"""The traced run: per-layer metrics from span recorders.

Server workloads alternate untraced and traced server lifetimes (the
``query`` workload: an untraced half, then a traced half); ``paper``
alternates rounds with the wrappers installed and removed.  The
untraced share gives ``trace.overhead_ratio``: traced cost over
untraced cost of the workload's main figure.  Every per-layer metric
is printed on every workload; a layer the workload does not reach reads
0.
"""

from __future__ import annotations

import json
import os
import signal
import time

from common import median, percentile
from host import ROOT

import spans

SPAN_WAIT_S = 30.0


class Layers:
    """Span records summed over processes, by role."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, list]] = {"server": {}, "worker": {}}
        self.counts: dict[str, float] = {}
        self.cpu = {"server": 0.0, "worker": 0.0}
        self.top_cpu = {"server": 0.0, "worker": 0.0}
        self.extra: dict[str, float] = {}

    def add(self, dump: dict) -> None:
        role = dump["role"]
        table = self.stats[role]
        for key, (calls, total, own) in dump["stats"].items():
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for key, amount in dump["counts"].items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts.get(key, 0), amount)
            else:
                self.counts[key] = self.counts.get(key, 0) + amount
        self.cpu[role] += dump["cpu_s"]
        self.top_cpu[role] += dump["top_cpu_s"]

    def bump(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def total(self, key: str, role: str | None = None) -> float:
        roles = (role,) if role else ("server", "worker")
        return sum(self.stats[r].get(key, (0, 0.0, 0.0))[1] for r in roles)

    def own(self, key: str, role: str | None = None) -> float:
        roles = (role,) if role else ("server", "worker")
        return sum(self.stats[r].get(key, (0, 0.0, 0.0))[2] for r in roles)

    def calls(self, key: str, role: str | None = None) -> int:
        roles = (role,) if role else ("server", "worker")
        return sum(self.stats[r].get(key, (0, 0.0, 0.0))[0] for r in roles)


def collect(server, directory, metrics: dict) -> list[dict]:
    """SIGUSR1 the server and its shard workers (not every member of the
    group: multiprocessing's resource tracker has no handler) and read
    one record per process."""
    for stale in directory.glob("spans-*"):
        stale.unlink()
    pids = [server.proc.pid] + [w["pid"] for w in metrics["workers"]]
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + SPAN_WAIT_S
    while len(list(directory.glob("spans-*.json"))) < len(pids):
        if time.monotonic() > deadline:
            raise RuntimeError("span records did not arrive from every process")
        time.sleep(0.01)
    dumps = [json.loads(path.read_text()) for path in directory.glob("spans-*.json")]
    for path in directory.glob("spans-*"):
        path.unlink()
    return dumps


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def report(run, layers: Layers, overhead: float, loadgen=(0.0, 0)) -> None:
    lay = run.layer
    server_cpu = layers.cpu["server"]
    rows = layers.counts.get("store.rows", 0)
    acked = layers.extra.get("rows_acked", 0)
    submits = layers.calls("store.submit", "server")
    lay("server.decode_s", layers.total("server.decode", "server"), "s")
    lay("server.cpu_s", server_cpu, "s")
    lay("server.untraced_s", max(server_cpu - layers.top_cpu["server"], 0.0), "s")
    lay("store.submit_self_s", layers.own("store.submit", "server"), "s")
    lay("store.submit_calls", submits, "count")
    lay("store.rows_per_submit", _ratio(rows, submits), "rows")
    lay("queries.run_s", layers.total("queries.run"), "s")
    lay("queries.confidence_s", layers.total("queries.confidence"), "s")
    lay("queries.cold_count", layers.counts.get("queries.cold", 0), "count")
    lay("queries.cache_hit_ratio", layers.extra.get("queries.cache_hit_ratio", 0.0), "ratio")
    lay("codec.encode_s", layers.own("codec.encode"), "s")
    lay("codec.decode_s", layers.own("codec.decode"), "s")
    lay("codec.snapshot_mb", layers.extra.get("codec.snapshot_mb", 0.0), "MB")
    lay("wal.append_s", layers.total("wal.append", "server"), "s")
    lay("wal.fsync_s", layers.extra.get("wal.fsync_s", 0.0), "s")
    lay("wal.fsync_count", layers.extra.get("wal.fsync_count", 0), "count")
    lay("wal.bytes_per_row", _ratio(layers.extra.get("wal.bytes", 0), acked), "B/row")
    lay("wal.replay_s", layers.total("wal.recover", "server"), "s")
    lay("wal.replay_records", layers.extra.get("wal.replay_records", 0), "count")
    lay("cluster.dispatch_s", layers.total("cluster.dispatch", "server"), "s")
    lay("cluster.ring_push_s", layers.total("cluster.ring_push", "server"), "s")
    lay("cluster.collect_s", layers.total("cluster.collect", "server"), "s")
    lay("cluster.fold_s", layers.total("cluster.fold", "server"), "s")
    lay("cluster.queue_depth_max", layers.counts.get("cluster.queue_depth_max", 0), "count")
    lay("cluster.ring_bytes_per_row", _ratio(layers.counts.get("cluster.ring_bytes", 0), acked),
        "B/row")
    lay("cluster.worker_decode_s", layers.total("cluster.worker_decode", "worker"), "s")
    lay("cluster.worker_route_s", layers.total("cluster.route", "worker"), "s")
    lay("cluster.worker_apply_s", layers.total("streaming.plan", "worker")
        + layers.total("streaming.apply", "worker"), "s")
    lay("cluster.worker_cpu_s", layers.cpu["worker"], "s")
    lay("cluster.owned_fraction", _ratio(layers.counts.get("cluster.rows_out", 0),
                                         layers.counts.get("cluster.rows_in", 0)), "ratio")
    lay("cluster.leaked_shm_segments", run.info.get("leaked_shm_segments", 0), "count")
    lay("streaming.plan_s", layers.total("streaming.plan", "server"), "s")
    lay("streaming.apply_s", layers.total("streaming.apply", "server"), "s")
    lay("streaming.merge_s", layers.own("streaming.merge"), "s")
    lay("streaming.query_s", layers.own("streaming.query"), "s")
    lay("streaming.retained_keys", layers.extra.get("streaming.retained_keys", 0), "count")
    lay("sampling.hash_s", layers.own("sampling.hash"), "s")
    lay("sampling.hashes_per_row", _ratio(layers.extra.get("served.keys_hashed", 0), acked),
        "ratio")
    lay("aggregates.categorize_s", layers.total("aggregates.categorize"), "s")
    lay("batch.estimate_s", layers.own("batch.estimate"), "s")
    lay("batch.rows_estimated", layers.counts.get("batch.rows", 0), "count")
    lay("exact.grid_s", layers.own("exact.grid"), "s")
    lay("core.scalar_estimates", layers.calls("core.estimate"), "count")
    lay("analysis.mc_s", layers.total("analysis.mc"), "s")
    for name in ("figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
                 "figure7", "impossibility"):
        lay(f"experiments.{name}_s", layers.total(f"experiments.{name}"), "s")
    lay("obs.background_s", layers.total("obs.background", "server"), "s")
    lay("host.probe_ms", run.probes.median(), "ms")
    lay("host.probe_spread", run.probes.spread(), "ratio")
    lay("loadgen.lateness_p99_ms", loadgen[0], "ms")
    lay("loadgen.waiting_max", loadgen[1], "count")
    lay("trace.overhead_ratio", overhead, "ratio")


def _launcher(directory) -> list[str]:
    return [str(ROOT / "e2ebench" / "launch.py"), str(directory)]


def _server_workload(run) -> None:
    import wl_ingest

    workers = 2 if run.workload == "workers" else 0
    directory = run.tmp / "spans"
    directory.mkdir()
    layers = Layers()
    bodies, rows, reference, records = wl_ingest.prepare(run.seed)
    plain, traced = wl_ingest.Lifetimes(), wl_ingest.Lifetimes()

    def on_end(server, phase) -> None:
        from server import get_json

        metrics = get_json(server.port, "/v1/metrics")[1]
        if phase == "served":
            layers.bump("wal.fsync_s", metrics["wal"]["fsync_seconds"])
            layers.bump("wal.fsync_count", metrics["wal"]["fsync_count"])
            layers.bump("wal.bytes", metrics["wal"]["appended_bytes"])
            layers.extra["streaming.retained_keys"] = sum(
                e["retained_keys"] for e in metrics["engines"].values())
        else:
            layers.bump("wal.replay_records", metrics["wal"]["replayed_records"])
        dumps = collect(server, directory, metrics)
        for dump in dumps:
            layers.add(dump)
        if phase == "served":
            # hashing per acked row on the serving path, not in recovery
            layers.bump("served.keys_hashed", sum(
                d["counts"].get("sampling.keys_hashed", 0) for d in dumps))

    deadline = time.perf_counter() + run.seconds
    index = 0
    while time.perf_counter() < deadline or index < 2:
        if index % 2:
            wl_ingest.lifetime(run, workers, bodies, rows, reference, records, traced,
                               _launcher(directory), on_end)
        else:
            wl_ingest.lifetime(run, workers, bodies, rows, reference, records, plain)
        index += 1
    layers.extra["rows_acked"] = traced.rows
    overhead = (plain.rows / plain.stream_s) / (traced.rows / traced.stream_s)
    report(run, layers, overhead)


def _query(run) -> None:
    import wl_query

    directory = run.tmp / "spans"
    directory.mkdir()
    layers = Layers()
    seconds = run.seconds
    run.seconds = seconds / 2
    plain = wl_query.main(run)

    def on_end(server, gen) -> None:
        from server import get_json

        for dump in collect(server, directory, get_json(server.port, "/v1/metrics")[1]):
            layers.add(dump)

    traced = wl_query.main(run, launcher=_launcher(directory), on_end=on_end)
    run.seconds = seconds
    caches = [part["metrics"]["query_cache"] for part in traced["parts"]]
    hits = sum(cache["hits"] for cache in caches)
    layers.extra["queries.cache_hit_ratio"] = _ratio(
        hits, hits + sum(cache["misses"] for cache in caches))
    layers.extra["streaming.retained_keys"] = sum(
        e["retained_keys"] for e in traced["parts"][-1]["metrics"]["engines"].values())
    snaps = [reply["bytes"] for kind, _, _, reply in traced["samples"] if kind == "snapshot"]
    layers.extra["codec.snapshot_mb"] = median(snaps) / 1e6 if snaps else 0.0
    overhead = _ratio(percentile([r for r, _ in traced["cold"]], 50),
                      percentile([r for r, _ in plain["cold"]], 50))
    report(run, layers, overhead, (traced["lateness_p99"], traced["waiting_max"]))


def _paper(run) -> None:
    import wl_paper

    layers = Layers()
    plain, traced = wl_paper.Tally(), wl_paper.Tally()
    deadline = time.perf_counter() + run.seconds
    first = None
    index = 0
    while time.perf_counter() < deadline or index < 2:
        tally = traced if index % 2 else plain
        if index % 2:
            spans.reset()
            spans.install()
        try:
            first = wl_paper.figures_round(run, tally, first)
            wl_paper.mc_round(run, tally, index)
        finally:
            if index % 2:
                spans.uninstall()
                layers.add(spans.snapshot("server") | {"cpu_s": 0.0})
        index += 1
    wl_paper.check_mc(run, plain)
    wl_paper.check_mc(run, traced)
    overhead = median(traced.figures_s) / median(plain.figures_s)
    report(run, layers, overhead)


def main(run) -> None:
    if run.workload in ("ingest", "workers"):
        _server_workload(run)
    elif run.workload == "query":
        _query(run)
    else:
        _paper(run)
