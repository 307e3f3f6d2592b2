#!/usr/bin/env python3
"""End-to-end benchmark of the sketch service and the paper's estimators.

Run from the repository root::

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics ``BENCHMARK.json`` declares;
``--trace 1`` runs the same workload with span recorders wrapped around
each layer's public functions and prints the per-layer metrics instead.
Human-readable lines (host, probe, every metric with its raw value)
come first; the last line of standard output is one JSON object.
Failed correctness checks go to standard error and make ``correct``
false.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "workers", "query", "paper")


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def _dispatch(run, trace: bool) -> None:
    if trace:
        import traced

        traced.main(run)
    elif run.workload in ("ingest", "workers"):
        import wl_ingest

        wl_ingest.main(run, workers=2 if run.workload == "workers" else 0)
    elif run.workload == "query":
        import wl_query

        wl_query.main(run)
    else:
        import wl_paper

        wl_paper.main(run)


def _validate(run, declared: dict[str, str], trace: bool) -> dict:
    """The declared metric set, checked: a missing or non-finite metric
    fails the run instead of vanishing from the record."""
    measured = run.layers if trace else {
        name: (value, unit) for name, (value, unit, _) in run.metrics.items()
    }
    out = {}
    for name, unit in declared.items():
        value, got_unit = measured.get(name, (math.nan, unit))
        ok = math.isfinite(value) and (trace or value > 0) and got_unit == unit
        run.check(ok, f"metric {name} missing, not finite or not positive ({value} {got_unit})")
        out[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    extra = sorted(set(measured) - set(declared))
    run.check(not extra, f"metrics not declared in BENCHMARK.json: {extra}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import host
    from common import Run

    trace = bool(args.trace)
    declared = _declared(trace)
    run = Run(args.workload, args.seed, args.seconds)
    began = time.perf_counter()
    try:
        _dispatch(run, trace)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.cleanup()
    metrics = _validate(run, declared, trace)

    print("host", json.dumps(host.describe(), sort_keys=True))
    print(f"probe median {run.probes.median():.4f} ms, spread "
          f"{run.probes.spread():.4f} over {len(run.probes.readings)} probes "
          f"(reference {run.probes.reference_ms} ms)")
    print("run", json.dumps({"workload": run.workload, "seed": run.seed,
                             "wall_s": round(time.perf_counter() - began, 3),
                             **run.info}, sort_keys=True))
    print("detail", json.dumps({
        "probe_ms": run.probes.median(),
        "metrics": {name: {"value": value, "raw": raw}
                    for name, (value, _, raw) in run.metrics.items()},
    }, sort_keys=True))
    if trace:
        for name, row in metrics.items():
            print(f"  {name:34s} {row['value']:.6g} {row['unit']}")
    else:
        for name, (value, unit, raw) in run.metrics.items():
            beside = "" if raw is None else f"  (raw {raw:.6g})"
            print(f"  {name:20s} {value:.6g} {unit}{beside}")
    for message in run.failures:
        print("FAILED:", message, file=sys.stderr)
    for message in run.invalid:
        print("INVALID:", message, file=sys.stderr)
    correct = run.failed == 0 and not run.invalid
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
