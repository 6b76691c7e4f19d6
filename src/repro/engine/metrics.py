"""Lightweight engine telemetry: counters, timers, memo and patch rates.

The engine feeds these from its ingestion loop; nothing here touches a
clock, so the numbers are deterministic in tests and nearly free in
production.  Each metric is declared once, as an :class:`EngineMetrics`
field in report order whose metadata holds its kind (``count``,
``seconds``, ``max`` or ``derived`` — computed on read, stored nowhere)
and render format; ``snapshot()`` and ``render()`` walk that list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict

from repro.util.tables import render_table

__all__ = ["METRICS", "EngineMetrics"]

_COUNT = {"kind": "count", "fmt": ","}
_SECONDS = {"kind": "seconds", "fmt": ".6f"}
_MAX = {"kind": "max", "fmt": ".6f"}


def _derived(fmt: str, compute: Callable[["EngineMetrics"], float]) -> Any:
    """A field stored nowhere: its class default is a property, read
    afresh each time (``Any``, so a ``float`` annotation accepts it)."""
    metadata = {"kind": "derived", "fmt": fmt}
    return field(default=property(compute), init=False, metadata=metadata)


def _ratio(part: float, whole: float, empty: float = 0.0) -> float:
    return part / whole if whole > 0 else empty


@dataclass(eq=False)
class EngineMetrics:
    """Counters and timers for one engine run: ``EngineMetrics(num_shards)``
    starts every other field at zero, and only ``record_*`` moves them."""

    entries: int = field(default=0, init=False, metadata=_COUNT)
    lookups: int = field(default=0, init=False, metadata=_COUNT)
    batches: int = field(default=0, init=False, metadata=_COUNT)
    malformed_skipped: int = field(default=0, init=False, metadata=_COUNT)
    checkpoints_written: int = field(default=0, init=False, metadata=_COUNT)
    #: Nothing moves this; ``bench/workloads.py`` still reads it (goes
    #: with ROADMAP item 1).
    entries_quarantined: int = field(default=0, init=False, metadata=_COUNT)
    checkpoint_rewrites: int = field(default=0, init=False, metadata=_COUNT)
    memo_hits: int = field(default=0, init=False, metadata=_COUNT)
    memo_misses: int = field(default=0, init=False, metadata=_COUNT)
    memo_evictions: int = field(default=0, init=False, metadata=_COUNT)
    routes_announced: int = field(default=0, init=False, metadata=_COUNT)
    routes_withdrawn: int = field(default=0, init=False, metadata=_COUNT)
    clients_reclustered: int = field(default=0, init=False, metadata=_COUNT)
    patches_applied: int = field(default=0, init=False, metadata=_COUNT)
    patch_rebuild_fallbacks: int = field(default=0, init=False, metadata=_COUNT)
    sanitize_batch_checks: int = field(default=0, init=False, metadata=_COUNT)
    sanitize_lpm_crosschecks: int = field(default=0, init=False, metadata=_COUNT)
    sanitize_checkpoint_readbacks: int = field(default=0, init=False, metadata=_COUNT)
    wal_appends: int = field(default=0, init=False, metadata=_COUNT)
    wal_syncs: int = field(default=0, init=False, metadata=_COUNT)
    wal_rotations: int = field(default=0, init=False, metadata=_COUNT)
    wal_segments_truncated: int = field(default=0, init=False, metadata=_COUNT)
    wal_recovered_events: int = field(default=0, init=False, metadata=_COUNT)
    wal_truncated_frames: int = field(default=0, init=False, metadata=_COUNT)
    wal_enospc_recoveries: int = field(default=0, init=False, metadata=_COUNT)
    #: Nothing moves this; ``bench/check.py`` and ``bench/workloads.py``
    #: still read it (goes with ROADMAP item 1).
    shed_events: int = field(default=0, init=False, metadata=_COUNT)
    #: Reported as given and read by nothing else: the engine holds one
    #: store.  ``bench/workloads.py`` still builds ``EngineMetrics(shards)``
    #: (goes with ROADMAP item 1).
    num_shards: int = field(default=1, metadata=_COUNT)
    entries_per_second: float = _derived(
        ",.0f", lambda m: _ratio(m.entries, m.total_seconds))
    #: Share of memoized resolutions served without an LPM search.
    memo_hit_rate: float = _derived(
        ".3f", lambda m: _ratio(m.memo_hits, m.memo_hits + m.memo_misses))
    total_seconds: float = field(default=0.0, init=False, metadata=_SECONDS)
    mean_batch_seconds: float = _derived(
        ".6f", lambda m: _ratio(m.total_seconds, m.batches))
    max_batch_seconds: float = field(default=0.0, init=False, metadata=_MAX)
    patch_seconds: float = field(default=0.0, init=False, metadata=_SECONDS)
    mean_patch_seconds: float = _derived(
        ".6f", lambda m: _ratio(m.patch_seconds, m.patches_applied))
    #: Always 1.0 (one store, so no imbalance); ``bench/child.py`` still
    #: reads the key (goes with ROADMAP item 1).
    shard_skew: float = _derived(".3f", lambda m: 1.0)

    # -- recording -------------------------------------------------------

    def record_batch(self, entries: int, seconds: float, lookups: int) -> None:
        """One folded batch: entries, wall time, lookups."""
        self.batches += 1
        self.entries += entries
        self.lookups += lookups
        self.total_seconds += seconds
        if seconds > self.max_batch_seconds:
            self.max_batch_seconds = seconds

    def record_malformed(self, count: int = 1) -> None:
        self.malformed_skipped += count

    def record_checkpoint(self) -> None:
        self.checkpoints_written += 1

    def record_checkpoint_rewrite(self) -> None:
        """A checkpoint failed read-back verification and was rewritten."""
        self.checkpoint_rewrites += 1

    def record_memo(self, hits: int, misses: int, evictions: int) -> None:
        """One drain of ``MemoizedLookup.take_memo_stats()``."""
        self.memo_hits += hits
        self.memo_misses += misses
        self.memo_evictions += evictions

    def record_patch(self, announced: int, withdrawn: int, reclustered: int,
                     seconds: float) -> None:
        """One routing delta batch patched in place: routes announced and
        withdrawn, clients whose cluster moved, patch-and-recluster time."""
        self.patches_applied += 1
        self.routes_announced += announced
        self.routes_withdrawn += withdrawn
        self.clients_reclustered += reclustered
        self.patch_seconds += seconds

    def record_patch_fallback(self) -> None:
        """A delta batch too large to patch was rebuilt from scratch."""
        self.patch_rebuild_fallbacks += 1

    def record_sanitize(self, batch_checks: int, lpm_crosschecks: int,
                        checkpoint_readbacks: int) -> None:
        """One drain of :func:`repro.analysis.sanitize.take_stats`
        (all-zero when ``REPRO_SANITIZE`` is off)."""
        self.sanitize_batch_checks += batch_checks
        self.sanitize_lpm_crosschecks += lpm_crosschecks
        self.sanitize_checkpoint_readbacks += checkpoint_readbacks

    def record_wal_appends(self, appends: int, syncs: int,
                           rotations: int) -> None:
        """Frames appended to the WAL, the batched fsyncs among them
        that fell due, and the segments they filled and closed."""
        self.wal_appends += appends
        self.wal_syncs += syncs
        self.wal_rotations += rotations

    def record_wal_sync(self) -> None:
        """An fsync ahead of a checkpoint, outside the append cadence."""
        self.wal_syncs += 1

    def record_wal_truncated_segments(self, count: int) -> None:
        """``count`` checkpoint-covered WAL segments were deleted."""
        self.wal_segments_truncated += count

    def record_wal_recovery(self, events: int, truncated_frames: int) -> None:
        """One ``serve --resume --wal``: events re-fed, torn tails cut."""
        self.wal_recovered_events += events
        self.wal_truncated_frames += truncated_frames

    def record_wal_enospc_recovery(self) -> None:
        """An ``ENOSPC`` append succeeded after checkpoint-and-truncate."""
        self.wal_enospc_recoveries += 1

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Current readings as a flat dict (stable keys, plain types)."""
        return {spec.name: getattr(self, spec.name) for spec in METRICS}

    def render(self) -> str:
        """ASCII table of the snapshot, one metric per row."""
        rows = [[spec.name, format(getattr(self, spec.name), spec.metadata["fmt"])]
                for spec in METRICS]
        return render_table(["metric", "value"], rows, title="engine metrics")


#: Every declared metric, in report order.
METRICS = tuple(spec for spec in fields(EngineMetrics) if "kind" in spec.metadata)
