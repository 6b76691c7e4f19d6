"""EngineMetrics: counter math, derived rates, rendering."""

from repro.engine.metrics import EngineMetrics


class TestCounters:
    def test_record_batch_accumulates(self):
        metrics = EngineMetrics(2)
        metrics.record_batch([60, 40], seconds=0.5, lookups=100)
        metrics.record_batch([30, 70], seconds=1.5, lookups=100)
        assert metrics.entries == 200
        assert metrics.lookups == 200
        assert metrics.batches == 2
        assert metrics.shard_entries == [90, 110]
        assert metrics.total_seconds == 2.0
        assert metrics.max_batch_seconds == 1.5
        assert metrics.mean_batch_seconds == 1.0
        assert metrics.entries_per_second == 100.0

    def test_shard_skew(self):
        metrics = EngineMetrics(2)
        metrics.record_batch([150, 50], seconds=1.0, lookups=200)
        assert metrics.shard_skew == 1.5
        balanced = EngineMetrics(4)
        balanced.record_batch([25, 25, 25, 25], seconds=1.0, lookups=100)
        assert balanced.shard_skew == 1.0

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
            "worker_restarts", "chunk_retries", "chunks_quarantined",
            "entries_quarantined", "checkpoint_rewrites", "degraded",
            "memo_hits", "memo_misses", "memo_evictions",
            "routes_announced", "routes_withdrawn", "clients_reclustered",
            "patches_applied", "patch_rebuild_fallbacks",
            "sanitize_batch_checks", "sanitize_lpm_crosschecks",
            "sanitize_checkpoint_readbacks", "sanitize_rng_draws",
            "wal_appends", "wal_syncs", "wal_rotations",
            "wal_segments_truncated", "wal_recovered_events",
            "wal_truncated_frames", "wal_enospc_recoveries", "shed_events",
            "shm_unlink_failures",
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
        metrics.record_worker_restart()
        metrics.record_retry()
        metrics.record_retry()
        metrics.record_quarantine(entries=512)
        metrics.record_checkpoint_rewrite()
        metrics.record_degraded()
        snap = metrics.snapshot()
        assert snap["worker_restarts"] == 1
        assert snap["chunk_retries"] == 2
        assert snap["chunks_quarantined"] == 1
        assert snap["entries_quarantined"] == 512
        assert snap["checkpoint_rewrites"] == 1
        assert snap["degraded"] == 1

    def test_render_is_a_table(self):
        metrics = EngineMetrics(2)
        metrics.record_batch([5000, 5000], seconds=0.25, lookups=10_000)
        text = metrics.render()
        assert "engine metrics" in text
        assert "entries_per_second" in text
        assert "40,000" in text  # 10k entries / 0.25 s
        assert "shard_skew" in text
