"""Seeded inputs, all built before any timed window.

The program only ever sees the bytes made here: pre-encoded RBAT ingest
bodies, a pre-built store file and small pre-encoded write bodies.
"""

from __future__ import annotations

import numpy as np

from repro.server.wire import encode_batches
from repro.service.store import IngestRequest, SketchStore

#: rows per ingest body: the ``--batch-size`` default of the CLI
BATCH_ROWS = 8192
INGEST_BODIES = 64
INGEST_INSTANCES = ("mon", "tue", "wed", "thu")
INGEST_ENGINE = "name=events,kind=bottom_k,k=64,shards=8,salt=11"

QUERY_INSTANCE_KEYS = 30_000
QUERY_INSTANCES = ("a", "b", "c", "d")
QUERY_ENGINES = {
    "uni": "name=uni,kind=poisson,threshold=0.2,ranks=uniform,salt=3",
    "pps": "name=pps,kind=poisson,threshold=0.02,ranks=pps,salt=5",
}
WRITE_ROWS = 16


def spec_config(spec: str) -> dict:
    """A ``--create`` spec as a :meth:`SketchStore.create_from_config`
    config, mirroring the CLI's own translation."""
    config = dict(pair.split("=", 1) for pair in spec.split(","))
    if "shards" in config:
        config["n_shards"] = config.pop("shards")
    return config


def _convert_windows(instances, keys, values) -> list[bytes]:
    """One body per 8192-row window, one wire batch per instance within
    the window, as ``repro.service convert --int-keys`` lays them out."""
    bodies = []
    for start in range(0, len(keys), BATCH_ROWS):
        window = slice(start, start + BATCH_ROWS)
        labels = instances[window]
        batches = []
        for index in dict.fromkeys(labels.tolist()):
            mask = labels == index
            batches.append((
                INGEST_INSTANCES[index],
                keys[window][mask],
                values[window][mask],
            ))
        bodies.append(encode_batches(batches))
    return bodies


def ingest_stream(seed: int, n_bodies: int = INGEST_BODIES) -> list[bytes]:
    """Distinct (instance, key) rows, so any arrival order of the bodies
    builds the same engine state."""
    rng = np.random.default_rng([seed, 1])
    n_rows = n_bodies * BATCH_ROWS
    keys = rng.choice(1 << 40, size=n_rows, replace=False).astype(np.int64)
    instances = rng.integers(0, len(INGEST_INSTANCES), size=n_rows)
    values = rng.lognormal(1.0, 1.0, size=n_rows)
    return _convert_windows(instances, keys, values)


def build_query_store(seed: int, path) -> SketchStore:
    """The multi-engine store file the ``query`` server restores."""
    rng = np.random.default_rng([seed, 2])
    store = SketchStore()
    universe = rng.choice(1 << 40, size=3 * QUERY_INSTANCE_KEYS, replace=False)
    for spec in QUERY_ENGINES.values():
        config = spec_config(spec)
        store.create_from_config(config)
        for label in QUERY_INSTANCES:
            # overlapping instances, so distinct/l1/dominance are not trivial
            keys = rng.choice(universe, size=QUERY_INSTANCE_KEYS, replace=False)
            values = rng.lognormal(1.0, 1.0, size=keys.size)
            store.submit(IngestRequest(
                engine=config["name"], batches=((label, keys, values),)))
    store.snapshot(path)
    return store


def write_bodies(seed: int, count: int) -> list[tuple[str, bytes]]:
    """Small distinct-key writes, alternating between the two engines."""
    rng = np.random.default_rng([seed, 3])
    # keys from above the query universe's range: never collide with it
    keys = (1 << 41) + rng.choice(1 << 30, size=count * WRITE_ROWS, replace=False)
    names = list(QUERY_ENGINES)
    writes = []
    for index in range(count):
        rows = slice(index * WRITE_ROWS, (index + 1) * WRITE_ROWS)
        label = QUERY_INSTANCES[int(rng.integers(len(QUERY_INSTANCES)))]
        values = rng.lognormal(1.0, 1.0, size=WRITE_ROWS)
        writes.append((
            names[index % len(names)],
            encode_batches([(label, keys[rows].astype(np.int64), values)]),
        ))
    return writes
