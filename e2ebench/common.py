"""What every workload shares: the run record and sample statistics."""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from host import REFERENCE_PROBE_MS, ROOT, ProbeLog, probe_each_core


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples) -> float:
    return float(statistics.median(samples))


class Run:
    """Operations, correctness failures and metrics of one run.

    ``attempted`` counts operations the generator issued and checks it
    made; ``failed`` the ones that went wrong.  Every failure is also
    kept with a message, which ``run.py`` prints to standard error.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.probes = ProbeLog(REFERENCE_PROBE_MS)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.invalid: list[str] = []
        #: name -> (reported value, unit, raw value or None)
        self.metrics: dict[str, tuple[float, str, float | None]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.info: dict[str, object] = {}
        self.tmp = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT))

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        return self.op(bool(ok), what)

    def metric(self, name: str, raw: float, unit: str, scaled: float | None = None) -> None:
        """Record an end-to-end metric.  ``scaled`` is the same figure
        at the reference probe time; where there is one, it is reported
        and the raw figure is kept beside it."""
        if scaled is None:
            self.metrics[name] = (raw, unit, None)
        else:
            self.metrics[name] = (scaled, unit, raw)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def timed(run, action) -> tuple[float, float, object]:
    """Run ``action``: its raw seconds, the seconds scaled by the mean
    of the probes right before and right after it, and its result."""
    before = run.probes.record(probe_each_core())
    started = time.perf_counter()
    result = action()
    seconds = time.perf_counter() - started
    after = run.probes.record(probe_each_core())
    return seconds, seconds * run.probes.factor((before + after) / 2), result
