"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q e2ebench/test_e2ebench.py

A short run of every workload must emit exactly the declared metric
set, all finite, with every correctness check passing; a run checked
against a deliberately wrong reference must fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seconds: int = 2) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_declared_metrics(workload, trace):
    code, result, stderr = _run(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stderr
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {row["name"] for row in rows}
    for row in rows:
        value = result["metrics"][row["name"]]["value"]
        assert math.isfinite(value), row["name"]
        assert result["metrics"][row["name"]]["unit"] == row["unit"]
        if not trace:
            assert value > 0, row["name"]


def test_traced_workers_show_the_broadcast():
    """At 2 workers each worker keeps about half of every batch, and
    rows are hashed more than once."""
    code, result, stderr = _run("workers", 1)
    assert code == 0, stderr
    metrics = result["metrics"]
    assert metrics["cluster.owned_fraction"]["value"] == pytest.approx(0.5, abs=0.05)
    assert metrics["sampling.hashes_per_row"]["value"] > 1


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, importable for an in-process run."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run

    return run


def _wrong_ingest_reference(monkeypatch, tmp_path):
    import wl_ingest

    right = wl_ingest.reference_engine
    monkeypatch.setattr(wl_ingest, "reference_engine", lambda bodies: right(bodies[:-1]))


def _wrong_query_reference(monkeypatch, tmp_path):
    import wl_query
    from inputs import build_query_store

    from repro.service.store import SketchStore

    other = tmp_path / "other.bin"
    build_query_store(4, other)
    monkeypatch.setattr(wl_query, "reference_store", lambda base_file: SketchStore.restore(other))


def _wrong_paper_reference(monkeypatch, tmp_path):
    import wl_paper

    monkeypatch.setattr(wl_paper, "FAMILIES", tuple(
        (estimator, scheme, values, exact + 1.0)
        for estimator, scheme, values, exact in wl_paper.FAMILIES))


@pytest.mark.parametrize("workload, wrong", [
    ("ingest", _wrong_ingest_reference),
    ("query", _wrong_query_reference),
    ("paper", _wrong_paper_reference),
])
def test_wrong_reference_fails_the_run(bench, monkeypatch, tmp_path, capsys, workload, wrong):
    """Checked against a deliberately wrong reference, the run must
    report ``correct: false``."""
    wrong(monkeypatch, tmp_path)
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".e2ebench-*"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
