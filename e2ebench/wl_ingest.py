"""``ingest`` and ``workers``: closed-loop binary ingest, SIGKILL, recovery.

One lifetime: start ``serve`` on an empty store with a WAL, stream the
fixed pre-encoded RBAT bodies over one keep-alive connection, check
the served engine, SIGKILL the process group, restart on the same WAL
(the timed recovery), check the recovered engine, stop.  Lifetimes
repeat until the run's seconds are spent.

The stream goes in slices.  Between slices the connections are idle
(and, with workers, the rings drained), and the generator probes the
host speed on every core.  Each slice's time is scaled by the mean of
the probes on either side of it.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time

from host import probe_each_core
from httpc import Connection
from inputs import INGEST_ENGINE, ingest_stream, spec_config
from common import median, percentile, timed
from server import Server, get_json

from repro.server.wire import decode_batches
from repro.service.store import IngestRequest, SketchStore

#: one connection: with two, the server and the generator (and with
#: workers, three server processes) contend for the two cores, and ack
#: times stop scaling with host speed
CONNECTIONS = 1
SLICE_BODIES = 8
BATCH_TYPE = "application/x-repro-batch"


class Lifetimes:
    """Tallies over every lifetime of one run."""

    def __init__(self) -> None:
        self.rows = 0
        self.stream_s = 0.0
        self.stream_scaled_s = 0.0
        self.acks_ms: list[float] = []
        self.acks_scaled_ms: list[float] = []
        self.setup_s: list[float] = []
        self.setup_scaled_s: list[float] = []
        self.recover_s: list[float] = []
        self.recover_scaled_s: list[float] = []
        self.rss_mb: list[float] = []


def reference_engine(bodies: list[bytes]):
    """A serial in-process submit of the same bodies."""
    store = SketchStore()
    config = spec_config(INGEST_ENGINE)
    store.create_from_config(config)
    for body in bodies:
        store.submit(IngestRequest(
            engine=config["name"], batches=tuple(decode_batches(body)),
        ))
    return store.engine(config["name"], sync=True)


def _wal_records(bodies: list[bytes]) -> int:
    # one record per instance batch of every body, plus the engine's
    # creation record
    return 1 + sum(len(decode_batches(body)) for body in bodies)


async def _drained(conn: Connection, workers: int) -> bool:
    if not workers:
        return True
    metrics = await conn.json("GET", "/v1/metrics")
    return all(w["queue_depth"] == 0 for w in metrics["workers"])


async def _stream(run, port: int, bodies: list[bytes], rows: list[int],
                  workers: int, tally: Lifetimes) -> None:
    conns = [await Connection(port).open() for _ in range(CONNECTIONS)]
    target = "/v1/ingest?name=" + spec_config(INGEST_ENGINE)["name"]
    before = run.probes.record(probe_each_core())
    try:
        for start in range(0, len(bodies), SLICE_BODIES):
            queue = list(range(start, min(start + SLICE_BODIES, len(bodies))))
            latencies: list[float] = []

            async def sender(conn: Connection) -> None:
                while queue:
                    index = queue.pop(0)
                    sent = time.perf_counter()
                    status, payload = await conn.request(
                        "POST", target, bodies[index], BATCH_TYPE
                    )
                    latencies.append((time.perf_counter() - sent) * 1e3)
                    ok = status == 200 and json.loads(payload)["rows"] == rows[index]
                    if run.op(ok, f"ingest body {index}: {status} {payload[:200]!r}"):
                        tally.rows += rows[index]

            began = time.perf_counter()
            await asyncio.gather(*(sender(conn) for conn in conns))
            while not await _drained(conns[0], workers):
                await asyncio.sleep(0.002)
            elapsed = time.perf_counter() - began
            after = run.probes.record(probe_each_core())
            factor = run.probes.factor((before + after) / 2)
            before = after
            tally.stream_s += elapsed
            tally.stream_scaled_s += elapsed * factor
            tally.acks_ms.extend(latencies)
            tally.acks_scaled_ms.extend(ms * factor for ms in latencies)
    finally:
        for conn in conns:
            await conn.close()


async def _snapshot_equal(run, port: int, workdir, name: str, reference, what: str) -> None:
    conn = await Connection(port).open()
    try:
        reply = await conn.json("POST", "/v1/snapshot", json.dumps({"path": name}).encode())
    finally:
        await conn.close()
    store = SketchStore.restore(reply["path"])
    engine_name = spec_config(INGEST_ENGINE)["name"]
    run.check(store.engine(engine_name) == reference,
              f"{what} engine differs from the serial in-process submit")
    (workdir / name).unlink()


def _restart(server: Server) -> None:
    server.kill()
    server.start()


def lifetime(run, workers: int, bodies, rows, reference, records: int,
             tally: Lifetimes, launcher=None, on_end=None) -> None:
    workdir = run.tmp / f"life-{len(tally.setup_s)}"
    workdir.mkdir()
    serve_args = ["--store", str(workdir / "store.bin"),
                  "--wal-dir", str(workdir / "wal"), "--fsync", "interval",
                  "--create", INGEST_ENGINE]
    if workers:
        serve_args += ["--workers", str(workers)]
    server = Server(serve_args, workdir, workers=workers, launcher=launcher)
    try:
        raw, scaled, _ = timed(run, server.start)
        tally.setup_s.append(raw)
        tally.setup_scaled_s.append(scaled)
        asyncio.run(_stream(run, server.port, bodies, rows, workers, tally))
        asyncio.run(_snapshot_equal(run, server.port, workdir, "served.snap", reference, "served"))
        metrics = _metrics(server.port)
        run.check(metrics["ingest"]["rows"] == sum(rows),
                  f"server ingest rows {metrics['ingest']['rows']} != {sum(rows)}")
        run.check(metrics["wal"]["appended_records"] == records,
                  f"WAL records {metrics['wal']['appended_records']} != {records}")
        if workers:
            applied = sum(w["rows"] for w in metrics["workers"])
            run.check(applied == sum(rows), f"worker rows applied {applied} != {sum(rows)}")
        tally.rss_mb.append(server.peak_rss_mb())
        if on_end is not None:
            on_end(server, "served")
        raw, scaled, _ = timed(run, lambda: _restart(server))
        tally.recover_s.append(raw)
        tally.recover_scaled_s.append(scaled)
        metrics = _metrics(server.port)
        run.check(metrics["wal"]["replayed_records"] == records,
                  f"replayed {metrics['wal']['replayed_records']} WAL records, expected {records}")
        asyncio.run(_snapshot_equal(run, server.port, workdir, "recovered.snap", reference, "recovered"))
        if on_end is not None:
            on_end(server, "recovered")
    finally:
        server.stop()
        run.info["leaked_shm_segments"] = run.info.get("leaked_shm_segments", 0) + server.leaked_shm
        shutil.rmtree(workdir, ignore_errors=True)


def _metrics(port: int) -> dict:
    status, payload = get_json(port, "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics -> {status}")
    return payload


def prepare(seed: int):
    bodies = ingest_stream(seed)
    rows = [sum(len(b.values) for b in decode_batches(body)) for body in bodies]
    reference = reference_engine(bodies)
    return bodies, rows, reference, _wal_records(bodies)


def run_workload(run, workers: int) -> Lifetimes:
    bodies, rows, reference, records = prepare(run.seed)
    tally = Lifetimes()
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline or len(tally.setup_s) < 2:
        lifetime(run, workers, bodies, rows, reference, records, tally)
    return tally


def report(run, tally: Lifetimes) -> None:
    run.metric("setup_s", median(tally.setup_s), "s", median(tally.setup_scaled_s))
    run.metric("throughput_per_s", tally.rows / tally.stream_s, "1/s",
               tally.rows / tally.stream_scaled_s)
    run.metric("latency_p50_ms", percentile(tally.acks_ms, 50), "ms",
               percentile(tally.acks_scaled_ms, 50))
    run.metric("latency_p90_ms", percentile(tally.acks_ms, 90), "ms",
               percentile(tally.acks_scaled_ms, 90))
    run.metric("long_op_s", median(tally.recover_s), "s", median(tally.recover_scaled_s))
    run.metric("peak_rss_mb", median(tally.rss_mb), "MB")
    run.info["lifetimes"] = len(tally.setup_s)
    run.info["latency_samples"] = len(tally.acks_ms)
    run.info["rows_acked"] = tally.rows


def main(run, workers: int) -> None:
    report(run, run_workload(run, workers))
