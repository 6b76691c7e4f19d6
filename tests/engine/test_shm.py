"""The zero-copy shared-memory hot path.

Two contracts pinned here:

* **Bit-identity** — a worker's ``memoryview``-backed table attached
  from shared segments answers every lookup exactly as the private
  array-backed table it was published from, across random tables,
  delta patches, and republications (hypothesis property), and the
  shm-transport engine emits output identical to single-pass
  ``cluster_log``.
* **Lifecycle** — every shutdown path (graceful close, terminate,
  quarantine, injected worker crash) unlinks every segment; leaked
  segments from a dead run are reclaimed at publish time and counted
  in ``shm_unlink_failures``.
"""

from __future__ import annotations

import collections
import glob
import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clustering import cluster_log
from repro.engine import (
    EngineConfig,
    EngineMetrics,
    MemoizedLookup,
    PackedLpm,
    ShardedClusterEngine,
    SharedLpm,
    SupervisedEngine,
    SupervisorConfig,
)
from repro.engine import shm
from repro.engine.fastpath import StrideLpm
from repro.errors import WorkerCrashError
from repro.faults import (
    SITE_SHM_WORKER_CRASH,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.net.prefix import Prefix

SEED = 1998
CHUNK = 4096


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes, c.source_kind, c.source_name)
        for c in cluster_set.clusters
    }


def _own_segments():
    """Names of this process's live repro segments in /dev/shm."""
    return sorted(glob.glob(f"/dev/shm/repro-{os.getpid()}-*"))


#: Nested prefix pool inside 10/8 (same shape as test_patch.py): long
#: cover chains so deltas change the *longest* match, not just the set.
POOL = sorted(
    {
        Prefix(
            (10 << 24)
            | (((i * 0x9E3779B1) % (1 << (length - 8))) << (32 - length)),
            length,
        )
        for length in (8, 10, 12, 16, 20, 24, 28, 32)
        for i in range(3)
    },
    key=Prefix.sort_key,
)

#: Probe set: every boundary of every pool prefix, plus neighbours.
PROBES = sorted(
    {
        address
        for prefix in POOL
        for address in (
            prefix.network,
            prefix.last_address,
            max(0, prefix.network - 1),
            min((1 << 32) - 1, prefix.last_address + 1),
        )
    }
)


def _build(kind, items):
    cls = StrideLpm if kind == "stride" else PackedLpm
    return cls.from_items(items)


def _sorted_items(model):
    return sorted(model.items(), key=lambda kv: kv[0].sort_key())


def _resolved(table, addresses):
    """Longest-match prefix (None on miss) per address."""
    return [
        table.prefix(handle) if handle >= 0 else None
        for handle in table.lookup_many(addresses)
    ]


def _attach_and_compare(table):
    """Publish ``table``, attach a shared view, compare every probe."""
    published = SharedLpm(table, generation=next(shm._GENERATION_COUNTER))
    attached = None
    try:
        attached = shm.attach_shared_table(published.handle)
        assert attached.base.digest() == table.digest()
        # Handles are table-local (the published view is renumbered to
        # the canonical dense form): compare what they resolve to.
        assert _resolved(attached.base, PROBES) == _resolved(table, PROBES)
        assert type(attached.base) is type(table)
    finally:
        if attached is not None:
            attached.close()
        assert published.close(unlink=True) == 0


class TestSharedViewProperty:
    """Satellite (c): shared lookups ≡ private lookups, under patches."""

    @pytest.mark.parametrize("kind", ["packed", "stride"])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        initial=st.lists(
            st.sampled_from(POOL), unique=True, min_size=1, max_size=12
        ),
        batches=st.lists(
            st.tuples(
                st.lists(st.sampled_from(POOL), max_size=4),  # announces
                st.lists(st.sampled_from(POOL), max_size=4),  # withdraws
            ),
            max_size=3,
        ),
    )
    def test_shared_view_matches_private_across_patches(
        self, kind, initial, batches
    ):
        model = {prefix: f"v{i}" for i, prefix in enumerate(initial)}
        table = _build(kind, _sorted_items(model))
        _attach_and_compare(table)
        serial = itertools.count(1000)
        for announce_prefixes, withdraw_prefixes in batches:
            announce = {p: f"n{next(serial)}" for p in announce_prefixes}
            withdraw = [p for p in withdraw_prefixes if p not in announce]
            table.apply_delta(list(announce.items()), withdraw)
            # Epoch moved: the old publication is superseded; a fresh
            # publication of the patched table must again be identical.
            _attach_and_compare(table)

    def test_memo_front_is_rebuilt_in_the_worker(self):
        table = PackedLpm.from_items(
            _sorted_items({p: str(p) for p in POOL[:6]})
        )
        memoized = MemoizedLookup(table, maxsize=32)
        published = SharedLpm(
            memoized, generation=next(shm._GENERATION_COUNTER)
        )
        attached = None
        try:
            assert published.handle.memo_size == 32
            attached = shm.attach_shared_table(published.handle)
            assert isinstance(attached.table, MemoizedLookup)
            assert attached.table.lookup_many(PROBES) == memoized.lookup_many(
                PROBES
            )
        finally:
            if attached is not None:
                attached.close()
            published.close(unlink=True)

    def test_attached_view_refuses_in_place_patching(self):
        table = PackedLpm.from_items(
            _sorted_items({p: str(p) for p in POOL[:4]})
        )
        published = SharedLpm(table, generation=next(shm._GENERATION_COUNTER))
        attached = None
        try:
            attached = shm.attach_shared_table(published.handle)
            assert attached.base.is_view
            with pytest.raises(TypeError, match="buffer-backed"):
                attached.base.apply_delta([(POOL[0], "new")], [])
        finally:
            if attached is not None:
                attached.close()
            published.close(unlink=True)


class TestEngineEquivalence:
    """The byte-identity gate: shm transport == cluster_log."""

    @pytest.fixture(scope="class")
    def baseline(self, nagano_log, merged_table):
        return _signature(cluster_log(nagano_log.log, merged_table))

    def test_shm_engine_matches_cluster_log(
        self, nagano_log, merged_table, baseline
    ):
        packed = PackedLpm.from_merged(merged_table)
        config = EngineConfig(num_shards=2, chunk_size=CHUNK)
        with ShardedClusterEngine(packed, config) as engine:
            engine.ingest(nagano_log.log.entries)
            result = engine.snapshot()
        assert _signature(result) == baseline

    def test_counters_flow_back_through_the_accumulator(
        self, nagano_log, merged_table
    ):
        packed = PackedLpm.from_merged(merged_table)
        metrics = EngineMetrics(2)
        config = EngineConfig(num_shards=2, chunk_size=1000)
        entries = nagano_log.log.entries
        with ShardedClusterEngine(packed, config, metrics) as engine:
            engine.ingest(entries)
        assert metrics.entries == len(entries)
        assert metrics.batches == -(-len(entries) // 1000)
        assert sum(metrics.shard_entries) == metrics.entries

    def test_republish_on_epoch_bump(self, nagano_log, merged_table):
        """A mid-run withdrawal reaches the workers: the second half
        clusters against the patched table, exactly as inline does."""
        entries = nagano_log.log.entries
        half = len(entries) // 2
        packed = PackedLpm.from_merged(merged_table)
        # Withdraw the prefix owning the most second-half requests, so
        # a worker still resolving against the old table cannot agree.
        owners = collections.Counter(
            handle
            for handle in packed.lookup_many(e.client for e in entries[half:])
            if handle >= 0
        )
        victim = packed.prefix(owners.most_common(1)[0][0])

        def run(patch, **config):
            table = PackedLpm.from_merged(merged_table)
            generations = []
            with ShardedClusterEngine(
                table, EngineConfig(chunk_size=CHUNK, **config)
            ) as engine:
                engine.ingest(entries[:half])
                if engine._shm_group is not None:
                    generations.append(engine._shm_group.generation)
                if patch:
                    table.apply_delta([], [victim])
                engine.ingest(entries[half:])
                if engine._shm_group is not None:
                    generations.append(engine._shm_group.generation)
                return _signature(engine.snapshot()), generations

        shm_run, generations = run(True, num_shards=2)
        inline_run, _ = run(True, num_shards=2, use_processes=False)
        unpatched, _ = run(False, num_shards=2)
        assert shm_run == inline_run
        assert shm_run != unpatched
        assert generations[1] > generations[0]

    def test_is_stale_tracks_the_live_table(self, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        group = shm.ShmWorkerGroup(packed, num_shards=2)
        try:
            assert not group.is_stale(packed)
            victim = next(iter(packed.items()))[0]
            packed.apply_delta([(victim, "moved")], [])
            assert group.is_stale(packed)
        finally:
            group.shutdown()


class TestShmChaos:
    """Satellite (c): a worker hard-killed mid-batch changes nothing."""

    @pytest.fixture(scope="class")
    def baseline(self, nagano_log, merged_table):
        return _signature(cluster_log(nagano_log.log, merged_table))

    def test_worker_crash_mid_batch_recovers_identically(
        self, nagano_log, merged_table, baseline
    ):
        packed = PackedLpm.from_merged(merged_table)
        digest_before = packed.digest()
        plan = FaultPlan.build(
            FaultSpec(site=SITE_SHM_WORKER_CRASH, at=1, count=1), seed=SEED
        )
        config = EngineConfig(num_shards=2, chunk_size=CHUNK)
        engine = ShardedClusterEngine(
            packed, config, injector=FaultInjector(plan)
        )
        supervised = SupervisedEngine(
            engine, SupervisorConfig(max_retries=3, backoff_base=0)
        )
        with supervised:
            supervised.ingest(nagano_log.log.entries)
            result = supervised.snapshot(nagano_log.log.name)
            snap = supervised.metrics.snapshot()
        # The crash really happened (post-apply, pre-ack: the strictest
        # exactly-once case), the retry replayed it, nothing doubled.
        assert engine.injector.fired[SITE_SHM_WORKER_CRASH] == 1
        assert snap["chunk_retries"] >= 1
        assert snap["worker_restarts"] >= 1
        assert snap["chunks_quarantined"] == 0
        assert _signature(result) == baseline
        # The shared table itself was never touched by the dying worker.
        assert packed.digest() == digest_before
        assert _own_segments() == []

    def test_raw_dispatch_failure_surfaces_as_worker_crash(
        self, merged_table
    ):
        packed = PackedLpm.from_merged(merged_table)
        group = shm.ShmWorkerGroup(packed, num_shards=1)
        try:
            batch = shm.PackedBatch.from_triples([(1, "u", 1)])
            directive = (0, SITE_SHM_WORKER_CRASH, 0.0)
            with pytest.raises(WorkerCrashError, match="died mid-batch"):
                group.dispatch([batch], directive)
        finally:
            group.shutdown(kill=True)
        assert _own_segments() == []


class TestSegmentLifecycle:
    """Satellite (a): no path leaks a segment; leaks are reclaimed."""

    def test_graceful_close_unlinks_everything(
        self, nagano_log, merged_table
    ):
        packed = PackedLpm.from_merged(merged_table)
        config = EngineConfig(num_shards=2, chunk_size=CHUNK)
        with ShardedClusterEngine(packed, config) as engine:
            engine.ingest(nagano_log.log.entries[:5000])
            assert _own_segments() != []
        assert _own_segments() == []

    def test_terminate_on_failure_unlinks_everything(
        self, nagano_log, merged_table
    ):
        packed = PackedLpm.from_merged(merged_table)
        config = EngineConfig(num_shards=2, chunk_size=CHUNK)
        engine = ShardedClusterEngine(packed, config)
        engine.ingest(nagano_log.log.entries[:5000])
        assert _own_segments() != []
        engine.close(terminate=True)
        assert _own_segments() == []

    def test_quarantine_path_releases_the_group(
        self, nagano_log, merged_table, tmp_path
    ):
        packed = PackedLpm.from_merged(merged_table)
        plan = FaultPlan.build(
            FaultSpec(site=SITE_SHM_WORKER_CRASH, at=0, count=-1), seed=SEED
        )
        config = EngineConfig(num_shards=2, chunk_size=CHUNK)
        engine = ShardedClusterEngine(
            packed, config, injector=FaultInjector(plan)
        )
        supervised = SupervisedEngine(
            engine,
            SupervisorConfig(
                max_retries=1,
                backoff_base=0,
                allow_degraded=False,
                quarantine_path=str(tmp_path / "dead.jsonl"),
            ),
        )
        with supervised:
            supervised.ingest(nagano_log.log.entries[:CHUNK])
            assert supervised.metrics.snapshot()["chunks_quarantined"] == 1
            # The quarantine path tore the suspect group down in full.
            assert engine._shm_group is None
            assert _own_segments() == []

    def test_stale_segment_is_reclaimed_and_counted(self, monkeypatch):
        pid = os.getpid()
        seq = 990_001
        from multiprocessing.shared_memory import SharedMemory

        stale = SharedMemory(name=f"repro-{pid}-{seq}t", create=True, size=8)
        try:
            monkeypatch.setattr(shm, "_SEGMENT_COUNTER", itertools.count(seq))
            segment, leaked = shm._create_segment("t", 16)
            assert leaked == 1
            assert segment.size >= 16
            assert shm._release_segment(segment, unlink=True) == 0
        finally:
            try:
                stale.close()
            except (OSError, BufferError):
                pass

    def test_leak_detection_feeds_the_metric(
        self, merged_table, monkeypatch
    ):
        pid = os.getpid()
        seq = 991_001
        from multiprocessing.shared_memory import SharedMemory

        stale = SharedMemory(name=f"repro-{pid}-{seq}a", create=True, size=8)
        try:
            monkeypatch.setattr(shm, "_SEGMENT_COUNTER", itertools.count(seq))
            packed = PackedLpm.from_merged(merged_table)
            metrics = EngineMetrics(1)
            group = shm.ShmWorkerGroup(packed, num_shards=1, metrics=metrics)
            group.shutdown()
            assert metrics.snapshot()["shm_unlink_failures"] >= 1
        finally:
            try:
                stale.close()
            except (OSError, BufferError):
                pass
        assert _own_segments() == []

    def test_atexit_guard_reclaims_registered_segments(self):
        segment, _ = shm._create_segment("t", 32)
        name = segment.name
        shm._cleanup_leaked_segments()
        from multiprocessing.shared_memory import SharedMemory

        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


class TestInitFailureCleanup:
    """Regressions: constructors that fail after acquiring segments
    must release them — the caller never gets an object to close."""

    def test_publish_failure_after_segments_releases_both(self, monkeypatch):
        table = _build("packed", [(p, str(p)) for p in POOL[:6]])

        class Boom(RuntimeError):
            pass

        def exploding_handle(**kwargs):
            raise Boom("handle construction failed")

        monkeypatch.setattr(shm, "SharedLpmHandle", exploding_handle)
        before = _own_segments()
        with pytest.raises(Boom):
            SharedLpm(table, generation=next(shm._GENERATION_COUNTER))
        assert _own_segments() == before

    def test_raising_metrics_sink_still_tears_the_group_down(
        self, monkeypatch
    ):
        pid = os.getpid()
        seq = 992_001
        from multiprocessing.shared_memory import SharedMemory

        # A stale accumulator name forces leaked > 0, so the group's
        # constructor reports to the metrics sink after a clean body.
        stale = SharedMemory(name=f"repro-{pid}-{seq}a", create=True, size=8)
        try:
            monkeypatch.setattr(
                shm, "_SEGMENT_COUNTER", itertools.count(seq)
            )
            packed = _build("packed", [(p, str(p)) for p in POOL[:6]])

            class AngrySink:
                def record_shm_unlink_failures(self, count):
                    raise RuntimeError("metrics backend down")

            with pytest.raises(RuntimeError, match="metrics backend down"):
                shm.ShmWorkerGroup(packed, num_shards=1, metrics=AngrySink())
        finally:
            try:
                stale.close()
            except (OSError, BufferError):
                pass
        assert _own_segments() == []
