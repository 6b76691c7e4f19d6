"""Lightweight engine telemetry: counters, timers, shard skew.

The engine feeds these from its ingestion loop; nothing here touches a
clock itself, so the numbers are deterministic in tests (feed synthetic
durations) and nearly free in production (integer adds per batch).
:meth:`EngineMetrics.snapshot` exposes a plain dict;
:meth:`EngineMetrics.render` prints it via :func:`repro.util.tables`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.util.tables import format_count, render_table

__all__ = ["EngineMetrics"]


class EngineMetrics:
    """Counters and timers for one engine run."""

    def __init__(self, num_shards: int = 1) -> None:
        self.num_shards = max(1, num_shards)
        self.entries = 0
        self.lookups = 0
        self.batches = 0
        self.malformed_skipped = 0
        self.checkpoints_written = 0
        self.worker_restarts = 0
        self.chunk_retries = 0
        self.chunks_quarantined = 0
        self.entries_quarantined = 0
        self.checkpoint_rewrites = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        self.routes_announced = 0
        self.routes_withdrawn = 0
        self.clients_reclustered = 0
        self.patches_applied = 0
        self.patch_rebuild_fallbacks = 0
        self.sanitize_batch_checks = 0
        self.sanitize_lpm_crosschecks = 0
        self.sanitize_checkpoint_readbacks = 0
        self.sanitize_rng_draws = 0
        self.wal_appends = 0
        self.wal_syncs = 0
        self.wal_rotations = 0
        self.wal_segments_truncated = 0
        self.wal_recovered_events = 0
        self.wal_truncated_frames = 0
        self.wal_enospc_recoveries = 0
        self.shed_events = 0
        self.shm_unlink_failures = 0
        self.degraded = False
        self.total_seconds = 0.0
        self.max_batch_seconds = 0.0
        self.patch_seconds = 0.0
        self.shard_entries: List[int] = [0] * self.num_shards

    # -- recording -------------------------------------------------------

    def record_batch(
        self, per_shard_counts: Sequence[int], seconds: float, lookups: int
    ) -> None:
        """Record one dispatched batch: per-shard entry counts, wall
        time, and LPM lookups performed."""
        self.batches += 1
        self.entries += sum(per_shard_counts)
        self.lookups += lookups
        self.total_seconds += seconds
        if seconds > self.max_batch_seconds:
            self.max_batch_seconds = seconds
        for shard, count in enumerate(per_shard_counts):
            self.shard_entries[shard] += count

    def record_malformed(self, count: int = 1) -> None:
        self.malformed_skipped += count

    def record_checkpoint(self) -> None:
        self.checkpoints_written += 1

    def record_worker_restart(self) -> None:
        """The worker group was torn down and will be rebuilt."""
        self.worker_restarts += 1

    def record_retry(self) -> None:
        """A failed chunk was re-dispatched."""
        self.chunk_retries += 1

    def record_quarantine(self, entries: int) -> None:
        """A chunk exhausted its retries and went to the dead-letter
        file; ``entries`` requests are excluded from the run's output."""
        self.chunks_quarantined += 1
        self.entries_quarantined += entries

    def record_checkpoint_rewrite(self) -> None:
        """A just-written checkpoint failed read-back verification and
        was written again."""
        self.checkpoint_rewrites += 1

    def record_memo(self, hits: int, misses: int, evictions: int) -> None:
        """Fold in one drain of a
        :class:`~repro.engine.fastpath.MemoizedLookup`'s counters
        (driver-side after inline chunks, worker-reported otherwise)."""
        self.memo_hits += hits
        self.memo_misses += misses
        self.memo_evictions += evictions

    def record_patch(
        self, announced: int, withdrawn: int, reclustered: int, seconds: float
    ) -> None:
        """Record one applied routing delta batch: routes announced and
        withdrawn in place, clients whose cluster assignment moved, and
        the wall time spent patching tables and reclustering."""
        self.patches_applied += 1
        self.routes_announced += announced
        self.routes_withdrawn += withdrawn
        self.clients_reclustered += reclustered
        self.patch_seconds += seconds

    def record_patch_fallback(self) -> None:
        """A delta batch was too large to patch in place and the serve
        loop rebuilt the table from scratch instead."""
        self.patch_rebuild_fallbacks += 1

    def record_sanitize(
        self,
        batch_checks: int,
        lpm_crosschecks: int,
        checkpoint_readbacks: int,
        rng_draws: int,
    ) -> None:
        """Fold in one drain of :func:`repro.analysis.sanitize.take_stats`
        (worker-reported for pooled chunks, driver-side after inline
        chunks and checkpoint writes).  All-zero when ``REPRO_SANITIZE``
        is off."""
        self.sanitize_batch_checks += batch_checks
        self.sanitize_lpm_crosschecks += lpm_crosschecks
        self.sanitize_checkpoint_readbacks += checkpoint_readbacks
        self.sanitize_rng_draws += rng_draws

    def record_wal_append(self, synced: bool) -> None:
        """One event frame reached the serve write-ahead log; ``synced``
        marks the appends whose batched fsync fired."""
        self.wal_appends += 1
        if synced:
            self.wal_syncs += 1

    def record_wal_sync(self) -> None:
        """An fsync outside the append cadence: the WAL made durable
        ahead of a checkpoint."""
        self.wal_syncs += 1

    def record_wal_rotation(self) -> None:
        """A WAL segment crossed its size threshold and was closed."""
        self.wal_rotations += 1

    def record_wal_truncated_segments(self, count: int) -> None:
        """``count`` checkpoint-covered WAL segments were deleted."""
        self.wal_segments_truncated += count

    def record_wal_recovery(self, events: int, truncated_frames: int) -> None:
        """One ``serve --resume --wal`` recovery: events re-fed from the
        WAL tail, and torn tails repaired while reading it back."""
        self.wal_recovered_events += events
        self.wal_truncated_frames += truncated_frames

    def record_wal_enospc_recovery(self) -> None:
        """A WAL append hit ``ENOSPC``, and the checkpoint-truncate-retry
        path got the event durably appended after all."""
        self.wal_enospc_recoveries += 1

    def record_shed(self, count: int = 1) -> None:
        """``count`` log events were dropped by ingress overload
        shedding (routing deltas are never shed)."""
        self.shed_events += count

    def record_shm_unlink_failures(self, count: int = 1) -> None:
        """``count`` shared-memory segments either failed to close or
        unlink on a teardown path, or were found leaked by a previous
        run and reclaimed at publish time.  Nonzero values mean cleanup
        needed the backstop — worth a look, not an error."""
        self.shm_unlink_failures += count

    def record_degraded(self) -> None:
        """The run fell back to inline (single-process) ingestion."""
        self.degraded = True

    # -- derived figures -------------------------------------------------

    @property
    def entries_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.entries / self.total_seconds

    @property
    def mean_batch_seconds(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.total_seconds / self.batches

    @property
    def mean_patch_seconds(self) -> float:
        if self.patches_applied == 0:
            return 0.0
        return self.patch_seconds / self.patches_applied

    @property
    def memo_hit_rate(self) -> float:
        """Share of memoized resolutions served without an LPM search."""
        probes = self.memo_hits + self.memo_misses
        if probes == 0:
            return 0.0
        return self.memo_hits / probes

    @property
    def shard_skew(self) -> float:
        """Max-over-mean shard load: 1.0 is perfect balance, 2.0 means
        the hottest shard saw twice the average."""
        if self.entries == 0:
            return 1.0
        mean = self.entries / self.num_shards
        return max(self.shard_entries) / mean if mean else 1.0

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Current readings as a flat dict (stable keys, plain types)."""
        return {
            "entries": self.entries,
            "lookups": self.lookups,
            "batches": self.batches,
            "malformed_skipped": self.malformed_skipped,
            "checkpoints_written": self.checkpoints_written,
            "worker_restarts": self.worker_restarts,
            "chunk_retries": self.chunk_retries,
            "chunks_quarantined": self.chunks_quarantined,
            "entries_quarantined": self.entries_quarantined,
            "checkpoint_rewrites": self.checkpoint_rewrites,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_evictions": self.memo_evictions,
            "routes_announced": self.routes_announced,
            "routes_withdrawn": self.routes_withdrawn,
            "clients_reclustered": self.clients_reclustered,
            "patches_applied": self.patches_applied,
            "patch_rebuild_fallbacks": self.patch_rebuild_fallbacks,
            "sanitize_batch_checks": self.sanitize_batch_checks,
            "sanitize_lpm_crosschecks": self.sanitize_lpm_crosschecks,
            "sanitize_checkpoint_readbacks": self.sanitize_checkpoint_readbacks,
            "sanitize_rng_draws": self.sanitize_rng_draws,
            "wal_appends": self.wal_appends,
            "wal_syncs": self.wal_syncs,
            "wal_rotations": self.wal_rotations,
            "wal_segments_truncated": self.wal_segments_truncated,
            "wal_recovered_events": self.wal_recovered_events,
            "wal_truncated_frames": self.wal_truncated_frames,
            "wal_enospc_recoveries": self.wal_enospc_recoveries,
            "shed_events": self.shed_events,
            "shm_unlink_failures": self.shm_unlink_failures,
            "degraded": int(self.degraded),
            "num_shards": self.num_shards,
            "total_seconds": self.total_seconds,
            "mean_batch_seconds": self.mean_batch_seconds,
            "max_batch_seconds": self.max_batch_seconds,
            "patch_seconds": self.patch_seconds,
            "mean_patch_seconds": self.mean_patch_seconds,
            "entries_per_second": self.entries_per_second,
            "memo_hit_rate": self.memo_hit_rate,
            "shard_skew": self.shard_skew,
        }

    def render(self) -> str:
        """ASCII table of the snapshot, one metric per row."""
        snap = self.snapshot()
        rows: List[List[str]] = []
        for key in (
            "entries",
            "lookups",
            "batches",
            "malformed_skipped",
            "checkpoints_written",
            "worker_restarts",
            "chunk_retries",
            "chunks_quarantined",
            "entries_quarantined",
            "checkpoint_rewrites",
            "memo_hits",
            "memo_misses",
            "memo_evictions",
            "routes_announced",
            "routes_withdrawn",
            "clients_reclustered",
            "patches_applied",
            "patch_rebuild_fallbacks",
            "sanitize_batch_checks",
            "sanitize_lpm_crosschecks",
            "sanitize_checkpoint_readbacks",
            "sanitize_rng_draws",
            "wal_appends",
            "wal_syncs",
            "wal_rotations",
            "wal_segments_truncated",
            "wal_recovered_events",
            "wal_truncated_frames",
            "wal_enospc_recoveries",
            "shed_events",
            "shm_unlink_failures",
            "degraded",
            "num_shards",
        ):
            rows.append([key, format_count(int(snap[key]))])
        rows.append(["entries_per_second", f"{snap['entries_per_second']:,.0f}"])
        rows.append(["memo_hit_rate", f"{snap['memo_hit_rate']:.3f}"])
        rows.append(["total_seconds", f"{snap['total_seconds']:.6f}"])
        rows.append(["mean_batch_seconds", f"{snap['mean_batch_seconds']:.6f}"])
        rows.append(["max_batch_seconds", f"{snap['max_batch_seconds']:.6f}"])
        rows.append(["patch_seconds", f"{snap['patch_seconds']:.6f}"])
        rows.append(["mean_patch_seconds", f"{snap['mean_patch_seconds']:.6f}"])
        rows.append(["shard_skew", f"{snap['shard_skew']:.3f}"])
        return render_table(["metric", "value"], rows, title="engine metrics")
