"""Host description and the host-speed probe.

The probe is a fixed pure-Python job that imports nothing from
``repro``.  Its run time tracks the speed level of the core it runs on,
so a timed slice divided by an adjacent probe (and multiplied by
``REFERENCE_PROBE_MS``) reads the same whichever speed level the host
happened to be in.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: every scaled time reads as if each probe next to it had taken this long
REFERENCE_PROBE_MS = 1.5


def _probe_job() -> int:
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    return total


def probe_once() -> float:
    """Milliseconds one probe job takes on the calling thread's core."""
    start = time.perf_counter()
    _probe_job()
    return (time.perf_counter() - start) * 1e3


def probe(repeats: int = 3) -> float:
    """Median probe time in ms over ``repeats`` jobs."""
    return statistics.median(probe_once() for _ in range(repeats))


def cores() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def probe_each_core(repeats: int = 1) -> float:
    """Mean over the visible cores of a probe pinned to each core.

    The cores change speed level independently and the measured server
    processes float between them, so the gap probe visits every core
    they can use.  The calling thread's affinity is restored afterwards.
    """
    visible = os.sched_getaffinity(0)
    readings = []
    try:
        for core in sorted(visible):
            os.sched_setaffinity(0, {core})
            readings.append(probe(repeats))
    finally:
        os.sched_setaffinity(0, visible)
    return sum(readings) / len(readings)


class ProbeLog:
    """The probes of one run, with the scale factor each slice gets."""

    def __init__(self, reference_ms: float) -> None:
        self.reference_ms = reference_ms
        self.readings: list[float] = []

    def record(self, reading: float) -> float:
        self.readings.append(reading)
        return reading

    def factor(self, reading: float) -> float:
        """Multiply a time measured next to ``reading`` by this."""
        return self.reference_ms / reading

    def median(self) -> float:
        return statistics.median(self.readings)

    def spread(self) -> float:
        """Interquartile range of the probes over their median."""
        if len(self.readings) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.readings, n=4)
        return (q3 - q1) / self.median()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def describe() -> dict:
    """What every run prints about the host and the code it measured."""
    import numpy

    return {
        "cores": cores(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_lines": _src_lines(),
    }
