"""``query``: an open loop of queries, small writes and snapshots.

``serve`` restores a pre-built two-engine store file.  Every request has
a due time fixed before the run; its latency is measured from that due
time, so a request that waited behind a slow one shows the wait.  The
generator probes host speed in gaps of the schedule, on every core.
The run is split into equal segments, each a server lifetime that
starts from the same store file, so set-up is timed once per segment,
spread across the run.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
import shutil
import statistics
import time

from common import median, percentile, timed
from host import probe_each_core
from httpc import Connection
from inputs import QUERY_ENGINES, build_query_store, write_bodies
from server import Server, get_json

from repro.server.wire import decode_batches
from repro.service.queries import Query, query_value_json
from repro.service.store import IngestRequest, SketchStore

CONNECTIONS = 2
#: query slots per second
QUERY_RATE = 20
CYCLE_S = 0.5
#: snapshot offset within a cycle, after its cold queries
SNAPSHOT_AT = 0.45
PROBE_LEAD_S = 0.008
#: server lifetimes per run, each with a timed set-up
SEGMENTS = 4
#: a run whose generator started requests later than this is invalid
MAX_LATENESS_MS = 25.0
#: earlier (shape, version) answers re-checked against the library
CHECK_SAMPLES = 8
BATCH_TYPE = "application/x-repro-batch"

SHAPES = (
    ("uni", "distinct", ("a", "b"), False),
    ("pps", "dominance", ("a", "b"), False),
    ("uni", "l1", ("a", "c"), False),
    ("pps", "sum", ("a",), True),
    ("uni", "distinct", ("c", "d"), False),
    ("pps", "dominance", ("c", "d"), False),
    ("uni", "l1", ("b", "d"), False),
    ("pps", "sum", ("c",), True),
)


def _target(shape) -> str:
    engine, kind, instances, confidence = shape
    target = f"/v1/query?name={engine}&kind={kind}&instances={','.join(instances)}"
    return target + ("&confidence=1" if confidence else "")


def _query(shape) -> Query:
    _, kind, instances, confidence = shape
    return Query(kind, instances, confidence=confidence)


def schedule(cycles: int, n_writes: int) -> list[tuple[float, str, int]]:
    """``(due, kind, index)`` events, in half-second cycles.

    A write opens each cycle (alternating engines), so the next query
    of each of that engine's shapes is cold.  Queries alternate engines,
    which spaces one engine's cold queries 100 ms apart: at this load
    they do not queue behind each other.  The snapshot comes after the
    cold queries.  A probe slot precedes every request by
    ``PROBE_LEAD_S``; the probe runs there only if both connections are
    idle.
    """
    events = []
    slots = round(QUERY_RATE * CYCLE_S)
    for cycle in range(cycles):
        start = cycle * CYCLE_S
        if cycle < n_writes:
            events.append((start + 0.005, "write", cycle))
        for slot in range(slots):
            due = start + (slot + 0.5) / QUERY_RATE
            events.append((due, "query", (cycle * slots + slot) % len(SHAPES)))
        events.append((start + SNAPSHOT_AT, "snapshot", cycle))
    events += [(due - PROBE_LEAD_S, "probe", 0) for due, _, _ in list(events)]
    return sorted(events)


class Generator:
    def __init__(self, run, port: int, writes) -> None:
        self.run = run
        self.port = port
        self.writes = writes
        self.free: asyncio.Queue | None = None
        self.waiting = 0
        self.waiting_max = 0
        self.lateness_ms: list[float] = []
        #: (due, done, kind, from-due ms, payload)
        self.samples: list[tuple[float, str, float, dict]] = []
        self.probes: list[tuple[float, float]] = []
        self.skipped_probes = 0
        self.warm_misses = 0

    async def issue(self, due: float, kind: str, index: int) -> None:
        self.lateness_ms.append((time.perf_counter() - due) * 1e3)
        self.waiting += 1
        self.waiting_max = max(self.waiting_max, self.waiting)
        conn = await self.free.get()
        self.waiting -= 1
        try:
            if kind == "query":
                status, payload = await conn.request("GET", _target(SHAPES[index]))
            elif kind == "write":
                engine, body = self.writes[index]
                status, payload = await conn.request(
                    "POST", f"/v1/ingest?name={engine}", body, BATCH_TYPE)
            else:
                status, payload = await conn.request("POST", "/v1/snapshot")
        finally:
            self.free.put_nowait(conn)
        done = time.perf_counter()
        ok = status == 200
        if self.run.op(ok, f"{kind} {index}: {status} {payload[:200]!r}"):
            reply = json.loads(payload)
            reply["_index"] = index
            self.samples.append((due, done, kind, (done - due) * 1e3, reply))

    async def main(self, events) -> float:
        conns = [await Connection(self.port).open() for _ in range(CONNECTIONS)]
        self.free = asyncio.Queue()
        for conn in conns:
            self.free.put_nowait(conn)
        for shape in SHAPES:
            # warm the cache: only a write makes a measured query cold
            reply = await conns[0].json("GET", _target(shape))
            self.warm_misses += not reply["from_cache"]
        start = time.perf_counter() + 0.05
        tasks = []
        for offset, kind, index in events:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind == "probe":
                if self.free.qsize() == CONNECTIONS:
                    self.probes.append((time.perf_counter(), probe_each_core()))
                else:
                    self.skipped_probes += 1
                continue
            tasks.append(asyncio.create_task(self.issue(due, kind, index)))
        await asyncio.gather(*tasks)
        ended = time.perf_counter()
        for conn in conns:
            await conn.close()
        return ended - start

    def factor(self, due: float, done: float) -> float:
        """Scale factor from the last probe before a request was due and
        the first one after it was answered."""
        times = [t for t, _ in self.probes]
        before = bisect.bisect_right(times, due) - 1
        after = bisect.bisect_left(times, done)
        near = [self.probes[i][1] for i in (before, after) if 0 <= i < len(times)]
        return self.run.probes.factor(sum(near) / len(near))


def reference_store(base_file) -> SketchStore:
    """The store the served answers are checked against."""
    return SketchStore.restore(base_file)


def _check_values(run, gen: Generator, base_file, writes, snapshot_path) -> None:
    """Served answers against the library at the same engine version."""
    answers = [s[4] for s in gen.samples if s[2] == "query"]
    latest = {}
    for reply in answers:
        latest[reply["_index"]] = reply
    rng = random.Random(run.seed)
    chosen = list(latest.values()) + rng.sample(answers, min(CHECK_SAMPLES, len(answers)))
    restored = SketchStore.restore(snapshot_path)
    wanted: dict[str, dict[int, list]] = {name: {} for name in QUERY_ENGINES}
    for reply in chosen:
        engine = SHAPES[reply["_index"]][0]
        wanted[engine].setdefault(reply["version"], []).append(reply)
    for name in restored.names():
        wanted[name].setdefault(restored.version(name), []).append(None)
    acked = sorted(
        (s[4]["version"], s[4]["_index"]) for s in gen.samples if s[2] == "write"
    )
    for name in QUERY_ENGINES:
        replica = reference_store(base_file)
        pending = [(v, i) for v, i in acked if writes[i][0] == name]
        for version in sorted(wanted[name]):
            while replica.version(name) < version and pending:
                target, index = pending.pop(0)
                replica.submit(IngestRequest(
                    engine=name, batches=tuple(decode_batches(writes[index][1])),
                    version=target))
            run.check(replica.version(name) == version,
                      f"{name}: no acked write reaches version {version}")
            for reply in wanted[name][version]:
                if reply is None:
                    run.check(restored.engine(name) == replica.engine(name),
                              f"snapshot of {name} at version {version} differs")
                    continue
                shape = SHAPES[reply["_index"]]
                result = replica.query(name, _query(shape))
                expect = json.loads(json.dumps(query_value_json(result.value)))
                run.check(reply["value"] == expect,
                          f"{_target(shape)} v{version}: served {reply['value']} != {expect}")
                if shape[3]:
                    run.check(reply.get("confidence") == json.loads(json.dumps(result.confidence)),
                              f"{_target(shape)} v{version}: confidence differs")


def segment(run, workdir, pristine: bytes, writes, events, launcher, on_end) -> dict:
    """One server lifetime: timed set-up from the store file, the open
    loop, then the checks of what it served."""
    store_file = workdir / "store.bin"
    store_file.write_bytes(pristine)
    server = Server(["--store", str(store_file)], workdir, launcher=launcher)
    try:
        setup, setup_scaled, _ = timed(run, server.start)
        gen = Generator(run, server.port, writes)
        cpu_before = server.cpu_seconds()
        window = asyncio.run(gen.main(events))
        cpu = server.cpu_seconds() - cpu_before
        for _, reading in gen.probes:
            run.probes.record(reading)
        _, metrics = get_json(server.port, "/v1/metrics")
        rss = server.peak_rss_mb()
        if on_end is not None:
            on_end(server, gen)
        _check_values(run, gen, workdir / "base.bin", writes, store_file)
    finally:
        server.stop()
        run.info["leaked_shm_segments"] = (
            run.info.get("leaked_shm_segments", 0) + server.leaked_shm)

    flags = [s[4]["from_cache"] for s in gen.samples if s[2] == "query"]
    cache = metrics["query_cache"]
    misses = len(flags) - sum(flags) + gen.warm_misses
    run.check(cache["hits"] == sum(flags) and cache["misses"] == misses,
              f"cache counters {cache['hits']}/{cache['misses']} vs flags "
              f"{sum(flags)}/{misses}")
    probe_mid = statistics.median(r for _, r in gen.probes)
    return {
        "gen": gen, "metrics": metrics, "setup": (setup, setup_scaled),
        "cpu": cpu, "cpu_scaled": cpu * run.probes.factor(probe_mid),
        "window": window, "rss": rss,
        #: (kind, from-due ms, scaled ms, reply)
        "samples": [(kind, ms, ms * gen.factor(due, done), reply)
                    for due, done, kind, ms, reply in gen.samples],
    }


def main(run, launcher=None, on_end=None) -> dict:
    workdir = run.tmp / "query"
    workdir.mkdir()
    build_query_store(run.seed, workdir / "base.bin")
    pristine = (workdir / "base.bin").read_bytes()
    cycles = max(1, int(run.seconds / SEGMENTS / CYCLE_S))
    writes = write_bodies(run.seed, cycles)
    events = schedule(cycles, len(writes))
    try:
        parts = [segment(run, workdir, pristine, writes, events, launcher, on_end)
                 for _ in range(SEGMENTS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [sample for part in parts for sample in part["samples"]]
    lateness = [ms for part in parts for ms in part["gen"].lateness_ms]
    waiting_max = max(part["gen"].waiting_max for part in parts)

    def pick(kind, cached=None):
        return [(ms, scaled) for k, ms, scaled, reply in samples
                if k == kind and (cached is None or reply["from_cache"] == cached)]

    cold, every, snaps, writes_ms, cached = (
        pick("query", False), pick("query"), pick("snapshot"), pick("write"),
        pick("query", True))
    cpu = sum(part["cpu"] for part in parts)
    window = sum(part["window"] for part in parts)
    run.metric("setup_s", median([p["setup"][0] for p in parts]), "s",
               median([p["setup"][1] for p in parts]))
    run.metric("throughput_per_s", len(samples) / cpu, "1/s",
               len(samples) / sum(part["cpu_scaled"] for part in parts))
    run.metric("latency_p50_ms", percentile([r for r, _ in cold], 50), "ms",
               percentile([s for _, s in cold], 50))
    run.metric("latency_p90_ms", percentile([r for r, _ in every], 90), "ms",
               percentile([s for _, s in every], 90))
    run.metric("long_op_s", median([r for r, _ in snaps]) / 1e3, "s",
               median([s for _, s in snaps]) / 1e3)
    run.metric("peak_rss_mb", median([part["rss"] for part in parts]), "MB")
    lateness_p99 = percentile(lateness, 99)
    if lateness_p99 > MAX_LATENESS_MS:
        run.invalid.append(f"generator fell behind: lateness p99 {lateness_p99:.1f} ms")
    run.info.update({
        "segments": len(parts),
        "window_s": round(window, 3),
        "server_busy_share": round(cpu / window, 3),
        "latency_samples": len(every), "cold_queries": len(cold),
        "cached_queries": len(cached),
        "cached_p50_ms": round(percentile([r for r, _ in cached], 50), 4),
        "write_ack_p50_ms": round(percentile([r for r, _ in writes_ms], 50), 4),
        "lateness_p99_ms": round(lateness_p99, 3),
        "waiting_max": waiting_max,
        "skipped_probes": sum(part["gen"].skipped_probes for part in parts),
    })
    return {"parts": parts, "samples": samples, "cold": cold,
            "lateness_p99": lateness_p99, "waiting_max": waiting_max}
