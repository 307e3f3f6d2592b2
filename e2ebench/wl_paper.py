"""``paper``: the paper's experiments and Monte Carlo sweeps, in-process.

Rounds alternate one full serial regeneration of all eight experiments
with one Monte Carlo sweep of every estimator family; every third round
opens with a timed set-up of a fresh interpreter.  The host-speed probe
runs in this same thread before and after every timed piece.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

from common import median, percentile, timed
from host import ROOT, probe
from server import child_env

from repro.analysis import montecarlo
from repro.core.max_oblivious import (
    MaxObliviousHT, MaxObliviousL, MaxObliviousU, MaxObliviousUAsymmetric,
)
from repro.core.max_weighted import MaxPpsHT, MaxPpsL
from repro.core.or_estimators import OrObliviousHT, OrObliviousL, OrObliviousU
from repro.experiments.runner import EXPERIMENTS, FAST_KWARGS, run_all_experiments
from repro.sampling.dispersed import ObliviousPoissonScheme, PpsPoissonScheme

# the golden snapshots and their comparison live with the tests
sys.path.insert(0, str(ROOT / "tests" / "experiments"))
from _golden import TOLERANCES, _compare, canonicalize, load_golden  # noqa: E402

#: a timed set-up opens every third round, so that its samples spread
#: across the run; set-ups do not count against the run's seconds
SETUP_EVERY = 3
MC_TRIALS = 200_000
#: a family's pooled Monte Carlo mean must be this close to the exact mean
MC_SIGMAS = 4.0

_OBLIVIOUS = (0.4, 0.7)
_TAU = (10.0, 10.0)
_UNIFORM4 = (0.3, 0.3, 0.3, 0.3)
#: (estimator, scheme, data, exact mean): the estimators are unbiased,
#: so the exact mean of each is the function value it estimates.  Every
#: round runs each entry once, so call times form 15 equal groups; with
#: 15 of them the 50th and 90th percentiles fall inside a group rather
#: than on the edge between two groups of different cost.
FAMILIES = (
    (MaxObliviousHT(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (4.0, 1.0), 4.0),
    (MaxObliviousHT(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (0.0, 2.0), 2.0),
    (MaxObliviousL(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (4.0, 1.0), 4.0),
    (MaxObliviousU(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (1.0, 4.0), 4.0),
    (MaxObliviousU(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (5.0, 0.0), 5.0),
    (MaxObliviousUAsymmetric(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (3.0, 3.0), 3.0),
    (MaxObliviousL(_UNIFORM4), ObliviousPoissonScheme(_UNIFORM4), (4.0, 1.0, 2.0, 3.0), 4.0),
    (OrObliviousHT(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (1.0, 0.0), 1.0),
    (OrObliviousHT(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (1.0, 1.0), 1.0),
    (OrObliviousL(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (1.0, 1.0), 1.0),
    (OrObliviousU(_OBLIVIOUS), ObliviousPoissonScheme(_OBLIVIOUS), (0.0, 1.0), 1.0),
    (MaxPpsHT(_TAU), PpsPoissonScheme(_TAU, known_seeds=True), (6.0, 3.0), 6.0),
    (MaxPpsHT(_TAU), PpsPoissonScheme(_TAU, known_seeds=True), (4.0, 0.0), 4.0),
    (MaxPpsL(_TAU), PpsPoissonScheme(_TAU, known_seeds=True), (12.0, 2.0), 12.0),
    (MaxPpsL(_TAU), PpsPoissonScheme(_TAU, known_seeds=True), (3.0, 6.0), 6.0),
)

_READY = (
    "import repro\n"
    "from repro.analysis.montecarlo import simulate_estimator\n"
    "from repro.core.max_oblivious import MaxObliviousL\n"
    "from repro.experiments.runner import run_all_experiments\n"
    "from repro.sampling.dispersed import ObliviousPoissonScheme\n"
    "MaxObliviousL((0.5, 0.5)); ObliviousPoissonScheme((0.5, 0.5))\n"
    "print('ready', flush=True)\n"
)


def _until_ready() -> tuple[subprocess.Popen, bytes]:
    """Start a fresh interpreter and read until it is ready to estimate."""
    proc = subprocess.Popen([sys.executable, "-B", "-c", _READY], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE)
    return proc, proc.stdout.readline()


def check_figures(run, results: dict, first: dict | None) -> dict:
    """The first regeneration against the golden files where the full
    configuration is the pinned one (the experiments without fast-mode
    arguments), at the golden tests' tolerances; every later one
    against the first."""
    canon = {name: canonicalize(result) for name, result in results.items()}
    if first is None:
        for name in TOLERANCES:
            if name in FAST_KWARGS:
                continue
            mismatches: list[str] = []
            _compare(load_golden(name), canon[name], TOLERANCES[name], name, mismatches)
            run.check(not mismatches, f"{name} differs from its golden file: {mismatches[:3]}")
        return canon
    for name in canon:
        run.check(canon[name] == first[name], f"{name} differs between repeats")
    return first


class Tally:
    def __init__(self) -> None:
        #: (raw, scaled) seconds of each set-up
        self.setups: list[tuple[float, float]] = []
        self.figures_s: list[float] = []
        self.figures_scaled_s: list[float] = []
        self.mc_estimates = 0
        self.mc_s = 0.0
        self.mc_scaled_s = 0.0
        self.calls_ms: list[float] = []
        self.calls_scaled_ms: list[float] = []
        self.sums = [[0.0, 0.0, 0] for _ in FAMILIES]


def figures_round(run, tally: Tally, first):
    """One serial full regeneration of the eight experiments, one
    experiment at a time so that a probe sits between any two."""
    results = {}
    seconds = scaled = 0.0
    before = run.probes.record(probe())
    for name in EXPERIMENTS:
        started = time.perf_counter()
        results.update(run_all_experiments([name], fast=False, parallel=False))
        elapsed = time.perf_counter() - started
        after = run.probes.record(probe())
        seconds += elapsed
        scaled += elapsed * run.probes.factor((before + after) / 2)
        before = after
    tally.figures_s.append(seconds)
    tally.figures_scaled_s.append(scaled)
    return check_figures(run, results, first)


def mc_round(run, tally: Tally, index: int) -> None:
    for family, (estimator, scheme, values, _) in enumerate(FAMILIES):
        rng = np.random.default_rng([run.seed, family, index])
        before = probe(1)
        started = time.perf_counter()
        result = montecarlo.simulate_estimator(estimator, scheme, values, n_trials=MC_TRIALS, rng=rng)
        seconds = time.perf_counter() - started
        factor = run.probes.factor((before + probe(1)) / 2)
        tally.mc_estimates += result.n_trials
        tally.mc_s += seconds
        tally.mc_scaled_s += seconds * factor
        tally.calls_ms.append(seconds * 1e3)
        tally.calls_scaled_ms.append(seconds * 1e3 * factor)
        sums = tally.sums[family]
        sums[0] += result.mean * result.n_trials
        sums[1] += (result.variance + result.mean ** 2) * result.n_trials
        sums[2] += result.n_trials


def check_mc(run, tally: Tally) -> None:
    for (estimator, _, values, exact), (total, squares, n) in zip(FAMILIES, tally.sums):
        mean = total / n
        stderr = math.sqrt(max(squares / n - mean ** 2, 0.0) / n)
        run.check(abs(mean - exact) <= MC_SIGMAS * max(stderr, 1e-12),
                  f"{type(estimator).__name__} on {values}: Monte Carlo mean "
                  f"{mean} is not within {MC_SIGMAS} standard errors of {exact}")


def set_up(run) -> tuple[float, float]:
    """Raw and scaled seconds from interpreter start to ready."""
    seconds, scaled, (proc, line) = timed(run, _until_ready)
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("the paper set-up process failed")
    return seconds, scaled


def run_rounds(run, tally: Tally) -> None:
    deadline = time.perf_counter() + run.seconds
    first = None
    index = 0
    while time.perf_counter() < deadline or index < 2:
        if index % SETUP_EVERY == 0:
            started = time.perf_counter()
            tally.setups.append(set_up(run))
            deadline += time.perf_counter() - started
        first = figures_round(run, tally, first)
        mc_round(run, tally, index)
        index += 1
    check_mc(run, tally)
    run.info["rounds"] = index
    run.info["latency_samples"] = len(tally.calls_ms)


def main(run) -> None:
    tally = Tally()
    run_rounds(run, tally)
    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.metric("setup_s", median([raw for raw, _ in tally.setups]), "s",
               median([scaled for _, scaled in tally.setups]))
    run.metric("throughput_per_s", tally.mc_estimates / tally.mc_s, "1/s",
               tally.mc_estimates / tally.mc_scaled_s)
    run.metric("latency_p50_ms", percentile(tally.calls_ms, 50), "ms",
               percentile(tally.calls_scaled_ms, 50))
    run.metric("latency_p90_ms", percentile(tally.calls_ms, 90), "ms",
               percentile(tally.calls_scaled_ms, 90))
    run.metric("long_op_s", median(tally.figures_s), "s", median(tally.figures_scaled_s))
    run.metric("peak_rss_mb", rss_mb, "MB")
