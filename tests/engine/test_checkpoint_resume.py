"""Checkpoint/resume determinism, including across process boundaries.

The satellite guarantee: run N batches, checkpoint mid-stream, restore
in a *fresh Python process*, finish ingesting — and the rendered
cluster table is byte-identical to an uninterrupted run.
"""

import os
import pickle
import subprocess
import sys

from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.net.prefix import Prefix
from repro.util.rng import spawn

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
_SRC = os.path.join(_REPO_ROOT, "src")

#: The fresh process: restore the checkpoint, ingest the remaining
#: triples, write the rendered snapshot bytes out.
_RESUME_SCRIPT = """\
import pickle, sys
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine

with open(sys.argv[1], "rb") as handle:
    job = pickle.load(handle)
table = PackedLpm.from_items(job["items"])
engine = ShardedClusterEngine.resume(
    job["checkpoint"], table,
    EngineConfig(num_shards=job["shards"], chunk_size=job["chunk"]),
)
with engine:
    engine.ingest_triples(job["remaining"])
    snapshot = engine.snapshot(name="determinism")
with open(job["out"], "wb") as handle:
    handle.write(pickle.dumps([
        (c.identifier.cidr, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes)
        for c in snapshot.clusters
    ] + [tuple(snapshot.unclustered_clients)]))
"""


def _workload(seed=2000, batches=6, batch_size=500):
    """Seeded synthetic table + request batches (util.rng streams)."""
    table_rng = spawn(seed, "engine-ckpt-table")
    items = []
    for i in range(48):
        items.append((Prefix(table_rng.getrandbits(32), table_rng.randint(8, 24)),
                      f"route-{i}"))
    traffic_rng = spawn(seed, "engine-ckpt-traffic")
    prefixes = [p for p, _ in items]
    all_batches = []
    for _ in range(batches):
        batch = []
        for _ in range(batch_size):
            if traffic_rng.random() < 0.9:
                home = traffic_rng.choice(prefixes)
                client = home.network + traffic_rng.randrange(home.num_addresses)
            else:
                client = traffic_rng.getrandbits(32)
            batch.append((client, f"/u{traffic_rng.randrange(200)}",
                          traffic_rng.randrange(1, 50_000)))
        all_batches.append(batch)
    return items, all_batches


def _render(snapshot):
    return pickle.dumps([
        (c.identifier.cidr, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes)
        for c in snapshot.clusters
    ] + [tuple(snapshot.unclustered_clients)])


def test_resume_in_same_process_is_identical(tmp_path):
    items, batches = _workload()
    table = PackedLpm.from_items(items)
    config = EngineConfig(num_shards=3, chunk_size=128)

    with ShardedClusterEngine(table, config) as uninterrupted:
        for batch in batches:
            uninterrupted.ingest_triples(batch)
        expected = _render(uninterrupted.snapshot(name="determinism"))

    path = str(tmp_path / "mid.ckpt")
    with ShardedClusterEngine(table, config) as first_half:
        for batch in batches[:3]:
            first_half.ingest_triples(batch)
        first_half.checkpoint(path)

    resumed = ShardedClusterEngine.resume(path, table, config)
    with resumed:
        for batch in batches[3:]:
            resumed.ingest_triples(batch)
        assert _render(resumed.snapshot(name="determinism")) == expected


def test_resume_in_fresh_process_is_byte_identical(tmp_path):
    items, batches = _workload()
    table = PackedLpm.from_items(items)
    config = EngineConfig(num_shards=3, chunk_size=128)

    with ShardedClusterEngine(table, config) as uninterrupted:
        for batch in batches:
            uninterrupted.ingest_triples(batch)
        expected = _render(uninterrupted.snapshot(name="determinism"))

    checkpoint = str(tmp_path / "mid.ckpt")
    with ShardedClusterEngine(table, config) as first_half:
        for batch in batches[:3]:
            first_half.ingest_triples(batch)
        first_half.checkpoint(checkpoint)

    job_path = str(tmp_path / "job.pickle")
    out_path = str(tmp_path / "snapshot.bytes")
    with open(job_path, "wb") as handle:
        pickle.dump({
            "items": items,
            "checkpoint": checkpoint,
            "remaining": [t for batch in batches[3:] for t in batch],
            "shards": 3,
            "chunk": 128,
            "out": out_path,
        }, handle)

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT, job_path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    with open(out_path, "rb") as handle:
        assert handle.read() == expected
