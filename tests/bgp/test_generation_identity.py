"""Generation byte-identity: the text of a small seeded world is pinned.

The snapshot synthesiser, the delta stream and the log generator are
pure functions of their seeds, and every later speed-up of them must
keep their output byte for byte.  These digests were recorded from the
per-snapshot implementation that re-derived every draw on each call;
a changed digest means a generated dump, stream or log changed.
"""

import hashlib

import pytest

from repro.bgp.sources import source_by_name
from repro.bgp.synth import DeltaGenerator, SnapshotFactory, SnapshotTime
from repro.simnet.topology import TopologyConfig, generate_topology
from repro.weblog.presets import make_log

SEED = 31337

CONFIG = TopologyConfig(
    seed=SEED,
    num_backbone=2,
    num_regional_isps=5,
    num_campus=4,
    num_enterprise=4,
    num_gateways=2,
    num_legacy_b=8,
)

#: Two times: day 0 (what every dump writer uses) and a later slot, so
#: late arrivals and the per-slot flap draws are part of the text.
TIMES = (SnapshotTime(0, 0), SnapshotTime(9, 2))

EXPECTED = {
    "dumps": "2d55b6d4daf2147bdfeead37e60cf203ba678cc85355ba3c3029025e5fe98912",
    "deltas": "cb0662981b6d686cdbccef1fdfe446b3374121b720cd709cb3db67ed44a3cd5f",
    "clf": "cbb5e3a88a60dd7141e098870d5382180be9c0178aaf0af4b6c8e8ed0464a1d7",
}


@pytest.fixture(scope="module")
def world():
    topology = generate_topology(CONFIG)
    return topology, SnapshotFactory(topology)


def _digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _dump_lines(factory):
    for when in TIMES:
        for snapshot in factory.snapshots_all_sources(when):
            yield f"# {snapshot.name} {snapshot.date}"
            yield from snapshot.to_lines()


def test_snapshot_dumps_are_unchanged(world):
    _, factory = world
    assert len(factory.sources) == 14
    assert _digest(_dump_lines(factory)) == EXPECTED["dumps"]


def test_delta_stream_is_unchanged(world):
    _, factory = world
    generator = DeltaGenerator(factory, source=source_by_name("AADS"), seed=SEED)
    # Two calls: the pending queue must carry over exactly.
    events = generator.events(700) + generator.events(500)
    assert _digest(delta.to_json() for delta in events) == EXPECTED["deltas"]


def test_clf_log_is_unchanged(world):
    topology, _ = world
    log = make_log(topology, "nagano", scale=0.03, seed=SEED).log
    assert _digest(entry.to_clf() for entry in log.entries) == EXPECTED["clf"]
