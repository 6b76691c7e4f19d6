"""EngineMetrics: counter math, derived rates, rendering, and the
shipped paths that move every counter."""

import os
import re
import subprocess
import sys

import pytest

from repro.analysis import sanitize
from repro.engine.cli import main as engine_main
from repro.engine.fastpath import MemoizedLookup, StrideLpm
from repro.engine.metrics import METRICS, EngineMetrics
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.errors import InjectedFault
from repro.faults import (
    SITE_CHECKPOINT_CORRUPT,
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_WAL_TORN,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.net.prefix import Prefix
from repro.serve.daemon import ServeConfig, ServeDaemon
from tests.serve.test_daemon import announce, fresh_table, log, withdraw

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestCounters:
    def test_record_batch_accumulates(self):
        metrics = EngineMetrics(2)
        metrics.record_batch(100, seconds=0.5, lookups=90)
        metrics.record_batch(100, seconds=1.5, lookups=110)
        assert metrics.entries == 200
        assert metrics.lookups == 200
        assert metrics.batches == 2
        assert metrics.total_seconds == 2.0
        assert metrics.max_batch_seconds == 1.5
        assert metrics.mean_batch_seconds == 1.0
        assert metrics.entries_per_second == 100.0

    def test_shard_skew(self):
        """One store, so no imbalance: the key the bench reads stays 1.0
        whatever ``num_shards`` the metrics were built with."""
        for shards in (1, 2, 4):
            metrics = EngineMetrics(shards)
            metrics.record_batch(200, seconds=1.0, lookups=200)
            assert metrics.shard_skew == 1.0
            assert metrics.num_shards == shards

    def test_zero_state_is_safe(self):
        metrics = EngineMetrics(3)
        assert metrics.entries_per_second == 0.0
        assert metrics.mean_batch_seconds == 0.0
        assert metrics.shard_skew == 1.0

    def test_event_counters(self):
        metrics = EngineMetrics(1)
        metrics.record_malformed(3)
        metrics.record_checkpoint()
        snap = metrics.snapshot()
        assert snap["malformed_skipped"] == 3
        assert snap["checkpoints_written"] == 1


class TestExport:
    def test_snapshot_keys_are_stable(self):
        snap = EngineMetrics(2).snapshot()
        assert set(snap) == {
            "entries", "lookups", "batches", "malformed_skipped",
            "checkpoints_written", "num_shards",
            "entries_quarantined", "checkpoint_rewrites",
            "memo_hits", "memo_misses", "memo_evictions",
            "routes_announced", "routes_withdrawn", "clients_reclustered",
            "patches_applied", "patch_rebuild_fallbacks",
            "sanitize_batch_checks", "sanitize_lpm_crosschecks",
            "sanitize_checkpoint_readbacks",
            "wal_appends", "wal_syncs", "wal_rotations",
            "wal_segments_truncated", "wal_recovered_events",
            "wal_truncated_frames", "wal_enospc_recoveries", "shed_events",
            "total_seconds", "mean_batch_seconds", "max_batch_seconds",
            "patch_seconds", "mean_patch_seconds",
            "entries_per_second", "shard_skew", "memo_hit_rate",
        }

    def test_patch_counters(self):
        metrics = EngineMetrics(1)
        metrics.record_patch(announced=3, withdrawn=2, reclustered=7, seconds=0.5)
        metrics.record_patch(announced=1, withdrawn=0, reclustered=0, seconds=0.25)
        metrics.record_patch_fallback()
        snap = metrics.snapshot()
        assert snap["routes_announced"] == 4
        assert snap["routes_withdrawn"] == 2
        assert snap["clients_reclustered"] == 7
        assert snap["patches_applied"] == 2
        assert snap["patch_rebuild_fallbacks"] == 1
        assert snap["patch_seconds"] == 0.75
        assert snap["mean_patch_seconds"] == 0.375
        assert EngineMetrics(1).mean_patch_seconds == 0.0

    def test_memo_counters(self):
        metrics = EngineMetrics(2)
        metrics.record_memo(75, 25, 10)
        metrics.record_memo(25, 75, 0)
        snap = metrics.snapshot()
        assert snap["memo_hits"] == 100
        assert snap["memo_misses"] == 100
        assert snap["memo_evictions"] == 10
        assert snap["memo_hit_rate"] == 0.5
        assert EngineMetrics(1).memo_hit_rate == 0.0

    def test_fault_counters(self):
        metrics = EngineMetrics(2)
        metrics.record_checkpoint_rewrite()
        metrics.record_checkpoint_rewrite()
        snap = metrics.snapshot()
        assert snap["checkpoint_rewrites"] == 2
        assert snap["entries_quarantined"] == 0

    def test_render_is_a_table(self):
        metrics = EngineMetrics(2)
        metrics.record_batch(10_000, seconds=0.25, lookups=10_000)
        text = metrics.render()
        assert "engine metrics" in text
        assert "entries_per_second" in text
        assert "40,000" in text  # 10k entries / 0.25 s
        assert "shard_skew" in text


def filled_metrics():
    """An ``EngineMetrics(2)`` whose 35 readings are all distinct but
    for the two nothing moves, ``entries_quarantined`` and
    ``shed_events``, which stay 0."""
    metrics = EngineMetrics(2)
    metrics.record_batch(1234, seconds=0.25, lookups=1500)
    metrics.record_batch(10, seconds=0.5, lookups=11)
    metrics.record_batch(0, seconds=0.0, lookups=0)
    metrics.record_malformed(28)
    for _ in range(4):
        metrics.record_checkpoint()
    for _ in range(6):
        metrics.record_checkpoint_rewrite()
    metrics.record_memo(hits=900, misses=100, evictions=17)
    for _ in range(8):
        metrics.record_patch(
            announced=3, withdrawn=2, reclustered=154321, seconds=0.015625
        )
    for _ in range(9):
        metrics.record_patch_fallback()
    metrics.record_sanitize(10, 11, 12)
    metrics.record_wal_appends(appends=12, syncs=1, rotations=13)
    metrics.record_wal_appends(appends=8, syncs=0, rotations=8)
    for _ in range(18):
        metrics.record_wal_sync()
    metrics.record_wal_truncated_segments(22)
    metrics.record_wal_recovery(events=23, truncated_frames=25)
    for _ in range(26):
        metrics.record_wal_enospc_recovery()
    return metrics


#: ``filled_metrics().render()``, byte for byte: row order, number
#: formats and the two-column shape CI's serve-smoke step reads with
#: ``awk '/name/ {print $2}'``.
RENDERED = """\
engine metrics
metric                             value
-----------------------------  ---------
entries                            1,244
lookups                            1,511
batches                                3
malformed_skipped                     28
checkpoints_written                    4
entries_quarantined                    0
checkpoint_rewrites                    6
memo_hits                            900
memo_misses                          100
memo_evictions                        17
routes_announced                      24
routes_withdrawn                      16
clients_reclustered            1,234,568
patches_applied                        8
patch_rebuild_fallbacks                9
sanitize_batch_checks                 10
sanitize_lpm_crosschecks              11
sanitize_checkpoint_readbacks         12
wal_appends                           20
wal_syncs                             19
wal_rotations                         21
wal_segments_truncated                22
wal_recovered_events                  23
wal_truncated_frames                  25
wal_enospc_recoveries                 26
shed_events                            0
num_shards                             2
entries_per_second                 1,659
memo_hit_rate                      0.900
total_seconds                   0.750000
mean_batch_seconds              0.250000
max_batch_seconds               0.500000
patch_seconds                   0.125000
mean_patch_seconds              0.015625
shard_skew                         1.000"""


def test_render_is_pinned_byte_for_byte():
    metrics = filled_metrics()
    assert len(set(metrics.snapshot().values())) == len(METRICS) - 1 == 34
    assert metrics.render() == RENDERED


# -- every declared counter moves on a shipped path --------------------------

#: Stored readings (fields only ``record_*`` moves): every declared
#: metric but the constructor's ``num_shards`` and the derived figures.
COUNTERS = {
    spec.name for spec in METRICS
    if not spec.init and spec.metadata["kind"] != "derived"
}

#: Counters no shipped path can move, and why.  All are still reported;
#: a path that starts moving one fails this test until it leaves here.
EXEMPT = {
    "sanitize_batch_checks": (
        "only ClusterStore.apply_packed runs guard_batch, and nothing in "
        "src/ calls apply_packed"
    ),
    "shed_events": (
        "the serve daemon sheds nothing; bench/check.py and "
        "bench/workloads.py still read it"
    ),
    "entries_quarantined": (
        "nothing is quarantined; bench/workloads.py still reads it"
    ),
}

#: What each phase below must move.  Phases with their own metrics (or
#: read between two snapshots) keep every ``record_*`` call the sole
#: mover of something: the engine's post-chunk and post-checkpoint
#: sanitize drains, say, or the two CLIs' malformed counts.
EXPECTED = {
    "engine ingest": {
        "entries", "lookups", "batches", "total_seconds",
        "max_batch_seconds", "memo_hits", "memo_misses", "memo_evictions",
        "sanitize_lpm_crosschecks",
    },
    "engine checkpoint": {
        "checkpoints_written", "checkpoint_rewrites",
        "sanitize_checkpoint_readbacks",
    },
    "repro-engine": {"malformed_skipped"},
    "serve": {
        "entries", "lookups", "batches", "total_seconds",
        "max_batch_seconds", "memo_hits", "memo_misses", "memo_evictions",
        "routes_announced", "routes_withdrawn", "clients_reclustered",
        "patches_applied", "patch_seconds", "patch_rebuild_fallbacks",
        "sanitize_lpm_crosschecks", "sanitize_checkpoint_readbacks",
        "checkpoints_written", "wal_appends", "wal_syncs", "wal_rotations",
        "wal_segments_truncated", "wal_recovered_events",
        "wal_truncated_frames", "wal_enospc_recoveries",
    },
    "repro-engine serve": {"malformed_skipped"},
}

BASE = 10 << 24
DUMP = "10.0.0.0/8\thop1\t7018\n12.0.0.0/8\thop2\t64500\n"


def _moved(before, after):
    return {name for name in COUNTERS if after[name] != before[name]}


def _engine_phases(tmp_path):
    plan = FaultPlan.build(
        # The first checkpoint is damaged and rewritten.
        FaultSpec(site=SITE_CHECKPOINT_CORRUPT, count=1),
        seed=5,
    )
    stride = StrideLpm.from_items(list(fresh_table().items()))
    table = MemoizedLookup(stride, maxsize=4)
    engine = ShardedClusterEngine(
        table, EngineConfig(num_shards=2, chunk_size=8),
        injector=FaultInjector(plan),
    )
    # A hot client between cold ones: memo hits, misses and evictions.
    triples = [
        (BASE if i % 2 else BASE + (1 << 16) + i, f"/{i % 5}", i)
        for i in range(600)
    ]
    sanitize.take_stats()
    start = engine.metrics.snapshot()
    engine.ingest(triples)
    ingested = engine.metrics.snapshot()
    engine.checkpoint(str(tmp_path / "engine.ckpt"))
    checkpointed = engine.metrics.snapshot()
    engine.close()
    return {
        "engine ingest": _moved(start, ingested),
        "engine checkpoint": _moved(ingested, checkpointed),
    }


def _serve_stream():
    # One run past the in-place patch limit (a rebuild), then small
    # runs that withdraw what requests just landed on.
    events = [announce(Prefix.from_cidr(f"10.3.{i}.0/24")) for i in range(70)]
    for i in range(30):
        for j in range(6):
            client = BASE if j % 2 else BASE + (3 << 16) + (i << 8) + j
            events.append(log(client, f"/{j}"))
        events.append(withdraw(Prefix.from_cidr(f"10.3.{i}.0/24")))
        events.append(announce(Prefix.from_cidr(f"10.4.{i}.0/24")))
    return events


def _serve_phase(tmp_path):
    metrics = EngineMetrics(1)

    def daemon(injector=None):
        config = ServeConfig(
            batch_size=8, checkpoint_path=str(tmp_path / "serve.ckpt"),
            checkpoint_every=99, wal_dir=str(tmp_path / "wal"),
            # Syncs only ahead of checkpoints (and at rotations, which
            # close a synced segment), so record_wal_sync is the one
            # mover of wal_syncs here; 99 puts a checkpoint between two
            # rotations, where there are frames left to sync.
            wal_sync_every=1 << 30, wal_segment_bytes=256,
        )
        table = MemoizedLookup(fresh_table(), maxsize=4)
        return ServeDaemon(table, config, metrics, injector)

    plan = FaultPlan.build(
        FaultSpec(site=SITE_SERVE_WAL_ENOSPC, at=120),
        FaultSpec(site=SITE_SERVE_WAL_TORN, at=240),
    )
    sanitize.take_stats()
    first = daemon(FaultInjector(plan))
    first.attach_wal()
    with pytest.raises(InjectedFault):
        for event in _serve_stream():
            first.feed(event)
    first.abort()
    second = daemon()
    second.recover()
    for i in range(20):
        second.feed(log(BASE + (1 << 16) + i % 7))
    second.finish()
    return {"serve": _moved(EngineMetrics(1).snapshot(), metrics.snapshot())}


def _malformed_count(output):
    return int(re.search(r"^malformed_skipped +(\S+)$", output, re.M)[1])


def test_every_counter_moves_on_a_shipped_path(tmp_path, capsys):
    previous = sanitize.set_enabled(True)
    try:
        moved = {**_engine_phases(tmp_path), **_serve_phase(tmp_path)}
    finally:
        sanitize.set_enabled(previous)
        sanitize.take_stats()

    dump = tmp_path / "routes.dump"
    dump.write_text(DUMP)
    log = tmp_path / "access.log"
    log.write_text(
        '10.1.0.5 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 1\n'
        "garbage line\n"
    )
    assert engine_main([str(log), "--table", str(dump), "--metrics"]) == 0
    moved["repro-engine"] = (
        {"malformed_skipped"}
        if _malformed_count(capsys.readouterr().out) else set()
    )
    stream = tmp_path / "stream.ndjson"
    stream.write_text('{"type": "log", "client": "10.1.0.5"}\nnot json\n')
    with open(stream) as stdin:
        served = subprocess.run(
            [sys.executable, "-m", "repro.serve.cli", "--stdin",
             "--table", str(dump), "--max-errors", "5", "--metrics"],
            stdin=stdin, capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            check=True,
        )
    moved["repro-engine serve"] = (
        {"malformed_skipped"} if _malformed_count(served.stdout) else set()
    )

    for phase, expected in EXPECTED.items():
        assert expected - moved[phase] == set(), phase
    assert set().union(*EXPECTED.values()) == COUNTERS - set(EXEMPT)
    assert set().union(*moved.values()) & set(EXEMPT) == set()
