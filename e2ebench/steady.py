#!/usr/bin/env python3
"""Steadiness report: run one workload N times and show the spread.

    python3 e2ebench/steady.py --workload query --runs 5 --first-seed 1

Each run gets its own seed.  Per end-to-end metric the report prints the
median and, relative to it, the quartiles, the minimum and maximum and
the interquartile spread ``(q3 - q1) / median``, for the reported value
(scaled to the reference probe where the metric is a time) and for the
raw value beside it.  The spread is what the
benchmark's bounds are set against; ``--json`` also writes every run's
values for comparing two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr[-3000:]}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    info = next(json.loads(line[4:]) for line in lines if line.startswith("run "))
    result = json.loads(lines[-1])
    return {"seed": seed, "result": result, "detail": detail, "info": info,
            "stderr": proc.stderr}


def spread(values: list[float]) -> dict:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {"median": mid, "q1": q1 / mid - 1, "q3": q3 / mid - 1,
            "min": min(values) / mid - 1, "max": max(values) / mid - 1,
            "iqr": (q3 - q1) / mid}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", default=None, help="write the runs here")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {row["name"]: row["bound"] for row in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = one_run(args.workload, seed, seconds, 0)
        runs.append(run)
        ok = run["result"]["correct"] and run["result"]["failed"] == 0
        print(f"seed {seed}: correct={ok} probe {run['detail']['probe_ms']:.4f} ms "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items()),
              flush=True)
        if not ok:
            print(run["stderr"][-2000:], file=sys.stderr)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s, longest "
          f"{max(r['info']['wall_s'] for r in runs):.1f} s wall; probe medians "
          + ", ".join(f"{r['detail']['probe_ms']:.3f}" for r in runs))
    print(f"{'metric':18s} {'reading':8s} {'median':>12s} {'q1':>7s} {'q3':>7s} "
          f"{'min':>7s} {'max':>7s} {'iqr':>7s} {'bound':>6s}")
    for name in bounds:
        reported = [r["result"]["metrics"][name]["value"] for r in runs]
        readings = [("reported", reported)]
        raw = [r["detail"]["metrics"][name]["raw"] for r in runs]
        if all(value is not None for value in raw):
            readings.append(("raw", raw))
        for label, values in readings:
            s = spread(values)
            flag = "  <-- over bound/3" if label == "reported" and s["iqr"] > bounds[name] / 3 else ""
            print(f"{name:18s} {label:8s} {s['median']:12.6g} {s['q1']:+7.3f} {s['q3']:+7.3f} "
                  f"{s['min']:+7.3f} {s['max']:+7.3f} {s['iqr']:7.3f} {bounds[name]:6.2f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
