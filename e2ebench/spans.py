"""In-memory span recorders wrapped around each layer's public functions.

:func:`install` replaces every target with a wrapper that records calls,
total time and self time (total minus the time spent in wrapped callees
on the same thread).  A function that other modules imported with
``from ... import`` is replaced in each of those modules too, because
callers look the name up there.  :func:`arm` makes SIGUSR1 write the
process's records to ``spans-<pid>.json``; forked shard workers inherit
both the wrappers and the handler.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

_local = threading.local()
_lock = threading.RLock()
#: metric key -> [calls, total seconds, self seconds]
STATS: dict[str, list] = {}
#: counter name -> amount
COUNTS: dict[str, float] = {}
#: thread CPU seconds spent inside outermost spans
TOP_CPU = [0.0]
_installed: list[tuple[object, str, object]] = []
_ARMED_PID = [0]


def count(name: str, amount: float) -> None:
    with _lock:
        COUNTS[name] = COUNTS.get(name, 0) + amount


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def wrap(fn, key: str, hook=None):
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        stack = _stack()
        outer = not stack
        cpu = time.thread_time() if outer else 0.0
        stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            with _lock:
                row = STATS.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - children
                if outer:
                    TOP_CPU[0] += time.thread_time() - cpu
        if hook is not None:
            hook(args, result)
        return result

    return recorded


# -- hooks: counters a span alone does not give -------------------------
def _submit_rows(args, result) -> None:
    count("store.rows", sum(len(batch[2]) for batch in args[1].batches))


def _cold_query(args, result) -> None:
    if not result.from_cache:
        count("queries.cold", 1)


def _ring_bytes(args, result) -> None:
    count("cluster.ring_bytes", len(args[1]))


def _queue_depth(args, result) -> None:
    depth = max((row["queue_depth"] for row in args[0].probes()), default=0)
    with _lock:
        COUNTS["cluster.queue_depth_max"] = max(COUNTS.get("cluster.queue_depth_max", 0), depth)


def _owned(args, result) -> None:
    count("cluster.rows_in", len(args[1]))
    count("cluster.rows_out", len(result[1]))


def _hashed(args, result) -> None:
    count("sampling.keys_hashed", len(result))


def _batch_rows(args, result) -> None:
    count("batch.rows", len(result))


#: (module, attribute path, metric key, hook, replace bindings elsewhere)
TARGETS = [
    ("repro.server.app", "decode_batches", "server.decode", None, False),
    ("repro.cluster.worker", "decode_batches", "cluster.worker_decode", None, False),
    ("repro.service.store", "SketchStore.submit", "store.submit", _submit_rows, True),
    ("repro.service.queries", "QueryPlanner.run", "queries.run", _cold_query, True),
    ("repro.service.confidence", "query_confidence", "queries.confidence", None, True),
    ("repro.service.codec", "to_bytes", "codec.encode", None, True),
    ("repro.service.codec", "store_to_bytes", "codec.encode", None, True),
    ("repro.service.codec", "from_bytes", "codec.decode", None, True),
    ("repro.service.codec", "store_from_bytes", "codec.decode", None, True),
    ("repro.wal.log", "WriteAheadLog.append_batch", "wal.append", None, True),
    ("repro.wal.log", "WriteAheadLog.append_batch_blob", "wal.append", None, True),
    ("repro.wal.recovery", "recover_store", "wal.recover", None, True),
    ("repro.cluster.pool", "ShardWorkerPool.dispatch", "cluster.dispatch", _queue_depth, True),
    ("repro.cluster.pool", "ShardWorkerPool.collect", "cluster.collect", None, True),
    ("repro.cluster.ring", "ShmRing.push", "cluster.ring_push", _ring_bytes, True),
    ("repro.cluster.worker", "owned_subset", "cluster.route", _owned, True),
    ("repro.streaming.engine", "StreamEngine.fold_delta", "cluster.fold", None, True),
    ("repro.streaming.engine", "StreamEngine.ingest_jobs", "streaming.plan", None, True),
    ("repro.streaming.engine", "StreamEngine.run_job", "streaming.apply", None, True),
    ("repro.streaming.merge", "merge_sketches", "streaming.merge", None, True),
    ("repro.streaming.merge", "merge_bottom_k", "streaming.merge", None, True),
    ("repro.streaming.merge", "merge_poisson", "streaming.merge", None, True),
    ("repro.streaming.query", "distinct_count", "streaming.query", None, True),
    ("repro.streaming.query", "l1_distance", "streaming.query", None, True),
    ("repro.streaming.query", "max_dominance", "streaming.query", None, True),
    ("repro.streaming.query", "sum_aggregate", "streaming.query", None, True),
    ("repro.sampling.seeds", "key_hashes", "sampling.hash", _hashed, True),
    ("repro.sampling.seeds", "splitmix64", "sampling.hash", None, True),
    ("repro.aggregates.distinct", "categorize_keys", "aggregates.categorize", None, True),
    ("repro.exact.engine", "exact_moments_vectorized", "exact.grid", None, True),
    ("repro.exact.grid", "exact_moments_value_grid", "exact.grid", None, True),
    ("repro.exact.grid", "exact_moments_grid", "exact.grid", None, True),
    ("repro.analysis.montecarlo", "simulate_estimator", "analysis.mc", None, True),
    ("repro.obs.series", "SeriesCollector.collect", "obs.background", None, True),
    ("repro.obs.health", "HealthMonitor.evaluate", "obs.background", None, True),
]
CORE_MODULES = ("max_oblivious", "max_weighted", "or_estimators", "order_based",
                "partition_based", "estimator_base")


def _replace(owner, attr: str, value) -> None:
    _installed.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _wrap_method(cls, attr: str, key: str, hook) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        _replace(cls, attr, staticmethod(wrap(raw.__func__, key, hook)))
    else:
        _replace(cls, attr, wrap(raw, key, hook))


def _wrap_function(module, attr: str, key: str, hook, everywhere: bool) -> None:
    original = getattr(module, attr)
    wrapped = wrap(original, key, hook)
    owners = [module]
    if everywhere:
        owners = [m for name, m in list(sys.modules.items())
                  if name.split(".")[0] == "repro" and getattr(m, attr, None) is original]
    for owner in owners:
        _replace(owner, attr, wrapped)


def install() -> None:
    """Wrap every target.  Imports the modules it patches first, so
    later imports find the wrapped names."""
    import repro.service.cli  # noqa: F401  (the serve entry point's imports)
    import repro.server.app  # noqa: F401
    import repro.cluster.worker  # noqa: F401
    import repro.experiments.runner as runner

    for module_name, path, key, hook, everywhere in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            _wrap_method(getattr(module, cls_name), attr, key, hook)
        else:
            _wrap_function(module, path, key, hook, everywhere)
    for name, fn in list(runner.EXPERIMENTS.items()):
        runner.EXPERIMENTS[name] = wrap(fn, f"experiments.{name}")
        _installed.append((runner.EXPERIMENTS, name, fn))
    for module_name in CORE_MODULES:
        module = importlib.import_module(f"repro.core.{module_name}")
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if "estimate_batch" in cls.__dict__:
                _wrap_method(cls, "estimate_batch", "batch.estimate", _batch_rows)
            if "estimate" in cls.__dict__:
                _wrap_method(cls, "estimate", "core.estimate", None)


def uninstall() -> None:
    """Put every original back (latest replacement first)."""
    while _installed:
        owner, attr, original = _installed.pop()
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def reset() -> None:
    with _lock:
        STATS.clear()
        COUNTS.clear()
        TOP_CPU[0] = 0.0


def snapshot(role: str) -> dict:
    times = os.times()
    with _lock:
        return {"pid": os.getpid(), "role": role, "cpu_s": times.user + times.system,
                "top_cpu_s": TOP_CPU[0],
                "stats": {k: list(v) for k, v in STATS.items()}, "counts": dict(COUNTS)}


def arm(directory: str) -> None:
    """SIGUSR1 writes this process's records into ``directory``; the
    armed process is the server, its forked children are workers."""
    _ARMED_PID[0] = os.getpid()
    target = Path(directory)

    def dump(signum, frame) -> None:
        role = "server" if os.getpid() == _ARMED_PID[0] else "worker"
        path = target / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot(role)))
        os.replace(tmp, path)

    signal.signal(signal.SIGUSR1, dump)
