"""The serve event loop: batch, patch, recluster, checkpoint.

:class:`ServeDaemon` is a single-process state machine fed one
:class:`~repro.serve.protocol.ServeEvent` at a time.  Log events buffer
into batches (one LPM pass per batch, like the engine's chunks); route
events buffer into a *coalesced* delta map (last event per prefix wins,
which is also what applying them one-by-one would leave behind).  The
buffers flush whenever the stream switches kind, so a routing change is
always applied between the requests that preceded it and the requests
that follow it — event order on the stream is the serialization order.

Applying a delta batch is the incremental §3.4 self-correction:

1. :meth:`~repro.engine.packed.PackedLpm.apply_delta` patches the live
   table in place and reports the address ``windows`` it touched (a
   :class:`~repro.engine.fastpath.MemoizedLookup` front evicts only the
   memo entries inside those windows);
2. :meth:`~repro.engine.state.ClusterStore.reassign_clients` re-resolves
   only the accumulated clients inside the windows and migrates the
   ones whose longest match moved.

A pathologically large batch (more than half the table) falls back to a
from-scratch rebuild — counted in
``EngineMetrics.patch_rebuild_fallbacks`` — with the patch-generation
counters carried over so checkpoints stay comparable.

Checkpoints use the engine's one layout (:mod:`repro.engine.state`)
and persist the store, the routing generation (``routing_epoch`` /
``deltas_applied``), the stream position (``stream_events``) and the
routing state as *base-table digest + net route diff* — the last
coalesced delta of every prefix touched since the table the daemon was
constructed with, as plain tuples; §3.4's point is that this is a few
percent of the table.  :meth:`ServeDaemon.recover` is the one way back
in: prove the table it was handed is the checkpoint's base, replay the
diff onto it, prove the result digests to the checkpointed table, adopt
the store.  What follows depends only on where the events past the
checkpoint live.  With a write-ahead log (``--wal``;
:mod:`repro.serve.wal`) every accepted event was appended *before* it
mutated daemon state, so the WAL frames past the checkpoint are re-fed
and the upstream is not needed at all.  Without one the upstream is
replayed from its start and :meth:`feed` drops the first
``stream_events`` events — they are in the restored state — while
folding the dropped route events into a last-delta-per-prefix map that
must equal the checkpoint's route diff at the boundary: the proof that
this *is* the stream the checkpoint was cut from, whatever
``--batch-size`` / ``--checkpoint-every`` either run used.

Overload is handled ahead of :meth:`feed`: :meth:`submit` admits events
into a bounded ingress queue with high/low watermarks, and under
sustained pressure sheds *log* events only — routing deltas are always
accepted, because a stale table corrupts every later assignment while a
dropped request merely undercounts one — with every drop counted in
``shed_events`` and the first drop announced via
:class:`~repro.errors.OverloadShedWarning`.

Under ``REPRO_SANITIZE=1`` a sampled subset of patches is followed by
:meth:`verify_patched` — the full patched-equals-rebuilt equivalence
gate — at runtime, not just in tests.
"""

from __future__ import annotations

import errno
import os
import warnings
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis import sanitize as _sanitize
from repro.bgp.table import KIND_BGP, LookupResult, RouteDelta, RouteEntry
from repro.core.clustering import ClusterSet
from repro.engine.fastpath import MemoizedLookup
from repro.engine.metrics import EngineMetrics
from repro.engine.packed import merge_windows
from repro.engine.state import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointTableMismatchError,
    ClusterStore,
    read_checkpoint,
    write_checkpoint,
    write_verified_checkpoint,
)
from repro.errors import InjectedFault, OverloadShedWarning, WalCorruptError
from repro.faults import SITE_SERVE_CRASH, FaultInjector
from repro.net.prefix import Prefix
from repro.serve.protocol import LogEvent, ServeEvent, parse_event
from repro.serve.wal import WalWriter, recover_wal

__all__ = ["ServeConfig", "ServeDaemon"]

#: Patch-vs-rebuild crossover: a coalesced delta batch touching more
#: prefixes than ``max(PATCH_FALLBACK_FLOOR, len(table) // 2)`` is
#: cheaper to rebuild than to splice piecewise.
PATCH_FALLBACK_FLOOR = 64


def _route_row(delta: RouteDelta) -> Tuple[str, int, int, int, str]:
    """One route-diff entry as the checkpoint holds it."""
    prefix = delta.prefix
    return (
        delta.op, prefix.network, prefix.length, delta.origin_asn, delta.source
    )


@dataclass
class ServeConfig:
    """Tunables for one daemon run.

    ``wal_dir`` enables the write-ahead log (``None`` = durability off,
    the pre-WAL behaviour).  ``shed_watermark`` bounds the ingress
    queue: 0 disables shedding entirely; otherwise crossing it starts
    dropping log events until the queue drains to half the watermark.
    The watermark should exceed ``batch_size`` — the serve loop drains
    a batch at a time, so a smaller watermark would shed during
    perfectly healthy batching.
    """

    name: str = "serve"
    batch_size: int = 4096
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0
    wal_dir: Optional[str] = None
    wal_sync_every: int = 64
    wal_segment_bytes: int = 4 << 20
    shed_watermark: int = 0


class ServeDaemon:
    """Clusters a live event stream against an in-place-patched table."""

    def __init__(
        self,
        table: Any,
        config: Optional[ServeConfig] = None,
        metrics: Optional[EngineMetrics] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.table = table
        self.config = config or ServeConfig()
        self.metrics = metrics or EngineMetrics(1)
        self.injector = injector
        self.store = ClusterStore()
        self.events_consumed = 0
        self.deltas_received = 0
        self._pending_logs: List[Tuple[int, str, int]] = []
        self._pending_deltas: Dict[Prefix, RouteDelta] = {}
        self._since_checkpoint = 0
        #: Replayed upstream events still to drop after a restore
        #: without a WAL, and the last route delta per prefix among the
        #: ones dropped so far (see :meth:`feed`).
        self._skip = 0
        self._skipped_routes: Dict[Prefix, RouteDelta] = {}
        #: Net routing change since the table this daemon was handed:
        #: prefix -> last coalesced delta.  With the base table's digest
        #: it is everything a checkpoint persists of the routing state.
        self._route_diff: Dict[Prefix, RouteDelta] = {}
        self._base_digest = table.digest()
        self._checkpoint_bytes = 0
        self._wal: Optional[WalWriter] = None
        self._ingress: Deque[ServeEvent] = deque()
        self._shedding = False

    # -- write-ahead log -------------------------------------------------

    def attach_wal(self) -> None:
        """Start a fresh write-ahead log at ``config.wal_dir``.

        For new runs only — a directory holding a previous run's log is
        overwritten segment by segment.  Resumed runs go through
        :meth:`recover`, which continues the existing log instead.
        """
        if self.config.wal_dir is None:
            raise ValueError("attach_wal needs config.wal_dir set")
        self._wal = WalWriter(
            self.config.wal_dir,
            sync_every=self.config.wal_sync_every,
            segment_bytes=self.config.wal_segment_bytes,
            injector=self.injector,
            start_index=self.events_consumed,
        )

    def _wal_append(self, event: ServeEvent) -> None:
        """Durably log one event before it touches any state.

        ``ENOSPC`` gets one recovery attempt: a checkpoint makes every
        closed WAL segment it covers redundant, and truncating them is
        the only space this daemon can legally free — so checkpoint,
        truncate, retry.  A second failure propagates (the disk is
        genuinely full and durability cannot be honoured), and so does
        a failure of the sync the checkpoint makes first: a disk that
        cannot take the few buffered frames cannot take a checkpoint.
        """
        wal = self._wal
        if wal is None:
            return
        payload = event.to_json().encode("utf-8")
        try:
            receipt = wal.append(payload)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            self.checkpoint_now()
            receipt = wal.append(payload)
            self.metrics.record_wal_enospc_recovery()
        self.metrics.record_wal_append(receipt.synced)
        if receipt.rotated:
            self.metrics.record_wal_rotation()

    def recover(self) -> int:
        """The one way back in: restore the checkpoint, then account
        for the events past it.

        This daemon's table must be the base the checkpoint's route
        diff is relative to (same ``--table`` files; proven by digest
        before anything is touched).  With a WAL, only the frames past
        the checkpoint's ``stream_events`` are re-fed — they are exactly
        the events whose effects the crash destroyed — and the log
        resumes in a fresh segment so the run keeps appending; no
        upstream replay.  The re-fed tail is fed, not flushed: whatever
        the uninterrupted daemon still held buffered at that point (the
        first half of a run of route deltas, say) stays buffered here
        too, so the events that follow coalesce with it exactly as they
        would have without the crash.  Without a WAL, the upstream is
        expected again from its start and :meth:`feed` drops the events
        the checkpoint already holds.  Returns the number of events
        re-fed.
        """
        path = self.config.checkpoint_path
        # A checkpoint that was never written is a legal fresh start
        # (the WAL still holds everything from event 0, because segment
        # truncation only ever follows a checkpoint); a checkpoint that
        # exists but cannot be read is NOT — recovering from scratch
        # would silently drop whatever the truncated segments covered —
        # so read errors propagate.
        if path is not None and os.path.exists(path):
            self._restore(path)
        base = self.events_consumed
        wal_dir = self.config.wal_dir
        if wal_dir is None:
            self._skip = base
            return 0
        recovery = recover_wal(wal_dir)
        tail = [pair for pair in recovery.events if pair[0] >= base]
        if recovery.next_index < base or len(tail) != recovery.next_index - base:
            raise WalCorruptError(
                f"WAL at {wal_dir!r} does not cover the checkpoint "
                f"boundary: checkpoint at stream event {base}, WAL holds "
                f"{len(tail)} events up to {recovery.next_index} — "
                "segments are missing"
            )
        for index, payload in tail:
            event = parse_event(payload.decode("utf-8"))
            if event is None:
                raise WalCorruptError(
                    f"WAL frame {index} decodes to no event — the log was "
                    "not written by this daemon"
                )
            self.feed(event)
        self.metrics.record_wal_recovery(len(tail), recovery.truncated_frames)
        self._wal = WalWriter.resume(
            wal_dir,
            recovery,
            sync_every=self.config.wal_sync_every,
            segment_bytes=self.config.wal_segment_bytes,
            injector=self.injector,
        )
        return len(tail)

    def _restore(self, path: str) -> None:
        """Adopt the checkpoint at ``path``: prove the base digest,
        replay the route diff, restore the generation, prove the table
        digest — and only then take the store and the position."""
        stores, meta = read_checkpoint(path)
        if len(stores) != 1 or "route_diff" not in meta:
            raise CheckpointError(
                f"{path!r} is not a serve checkpoint (those hold one store "
                f"and a route diff; this holds {len(stores)} shard(s)) — "
                "the batch engine wrote it"
            )
        if self.config.wal_dir is not None and not meta["wal"]:
            raise CheckpointTableMismatchError(
                f"checkpoint {path!r} was written without --wal, so no WAL "
                "holds the events after it — resume it without --wal and "
                "replay the upstream stream"
            )
        base_digest = meta["base_digest"]
        if base_digest != self._base_digest:
            raise CheckpointTableMismatchError(
                f"checkpoint {path!r} holds a route diff against a "
                f"different base table (checkpoint base "
                f"{base_digest[:12]}…, this table "
                f"{self._base_digest[:12]}…) — restart with the same "
                "--table files"
            )
        diff: Dict[Prefix, RouteDelta] = {}
        try:
            for op, network, length, origin_asn, source in meta["route_diff"]:
                prefix = Prefix(network, length)
                diff[prefix] = RouteDelta(op, prefix, origin_asn, source)
        except (TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} holds a malformed route diff ({exc})"
            ) from exc
        # Adopts ``diff`` as this daemon's own, so a checkpoint taken
        # after recovery is still relative to the original base.
        self._apply_routes(diff)
        self._inner_table.restore_generation(
            meta["routing_epoch"], meta["deltas_applied"]
        )
        stored, restored = meta["table_digest"], self.table.digest()
        if stored != restored:
            raise CheckpointTableMismatchError(
                "restored table's digest does not match the checkpoint "
                f"(stored {stored[:12]}…, restored {restored[:12]}…)"
            )
        self.store = stores[0]
        self.events_consumed = meta["stream_events"]
        self.deltas_received = meta["deltas_received"]

    # -- bounded ingress --------------------------------------------------

    def submit(self, event: ServeEvent) -> bool:
        """Admit one event through the overload gate.

        With no watermark configured this is :meth:`feed`.  Otherwise
        the event joins the ingress queue — unless shedding is active
        and it is a log event, in which case it is dropped and counted
        (``False`` return).  Routing deltas are *never* shed: a stale
        table silently mis-clusters every later request, while a
        dropped request only undercounts one.
        """
        high = self.config.shed_watermark
        if high <= 0:
            self.feed(event)
            return True
        size = len(self._ingress)
        if self._shedding:
            if size <= high // 2:
                self._shedding = False
        elif size >= high:
            self._shedding = True
            warnings.warn(
                f"ingress queue reached {size} events (watermark "
                f"{high}); shedding log events until it drains to "
                f"{high // 2}",
                OverloadShedWarning,
                stacklevel=2,
            )
        if self._shedding and isinstance(event, LogEvent):
            self.metrics.record_shed(1)
            return False
        self._ingress.append(event)
        return True

    def pump(self, limit: Optional[int] = None) -> int:
        """Drain up to ``limit`` queued events into :meth:`feed`
        (everything queued when ``limit`` is ``None``).  Returns the
        number drained."""
        drained = 0
        ingress = self._ingress
        while ingress and (limit is None or drained < limit):
            self.feed(ingress.popleft())
            drained += 1
        return drained

    @property
    def shedding(self) -> bool:
        """True while the overload gate is dropping log events."""
        return self._shedding

    @property
    def ingress_depth(self) -> int:
        return len(self._ingress)

    # -- event loop ------------------------------------------------------

    def feed(self, event: ServeEvent) -> None:
        """Consume one stream event (request or routing delta)."""
        # Log before any state moves: recovery replays exactly the WAL.
        self._wal_append(event)
        if self._skip:
            # Upstream replay after a restore without a WAL (so the
            # append above had no log to write to): the checkpoint
            # already holds this event.  Its route deltas must net the
            # checkpoint's route diff, or this is not the stream the
            # checkpoint was cut from.
            self._skip -= 1
            if isinstance(event, RouteDelta):
                self._skipped_routes[event.prefix] = event
            if not self._skip:
                self._prove_skipped_routes()
            return
        self.events_consumed += 1
        self._since_checkpoint += 1
        if isinstance(event, RouteDelta):
            self._flush_logs()
            self.deltas_received += 1
            # Last event per prefix wins — the same end state applying
            # the run one-by-one would leave, because no log event
            # separates the deltas of one run.
            self._pending_deltas[event.prefix] = event
        else:
            self._flush_deltas()
            # A LogEvent is the (client, url, size) triple itself.
            self._pending_logs.append(event)
            if len(self._pending_logs) >= self.config.batch_size:
                self._flush_logs()
        if (
            self.config.checkpoint_path
            and self.config.checkpoint_every
            and self._since_checkpoint >= self.config.checkpoint_every
        ):
            self.checkpoint_now()

    def finish(self) -> None:
        """Drain ingress, flush, final checkpoint, seal the WAL.

        The order matters: the checkpoint is written (and covered WAL
        segments truncated) *before* the seal, so a sealed log always
        ends with a segment the checkpoint still references — recovery
        after a graceful shutdown finds a sealed, contiguous log.
        """
        self.pump()
        if self._skip:
            raise CheckpointTableMismatchError(
                f"stream ended {self._skip:,} events short of the "
                f"checkpoint, which was taken at {self.events_consumed:,} — "
                "resume needs the same stream replayed from the start"
            )
        self._flush_all()
        if self.config.checkpoint_path:
            self.checkpoint_now()
        if self._wal is not None and not self._wal.sealed:
            self._wal.seal()
        self._drain_stats()

    def abort(self) -> None:
        """Crash-consistent teardown for fatal errors: sync and close
        the WAL *without* sealing, so recovery treats the run as a crash
        and replays its tail.  Buffers are deliberately not flushed —
        their events are in the WAL, and applying them here could mask
        the very state the fatal error poisoned."""
        if self._wal is not None and not self._wal.sealed:
            self._wal.close()

    def health(self) -> Dict[str, Any]:
        """One heartbeat's worth of liveness figures (plain types)."""
        return {
            "events": self.events_consumed,
            "deltas": self.deltas_received,
            "clusters": len(self.store),
            "unclustered": self.store.num_unclustered,
            "ingress": len(self._ingress),
            "shedding": self._shedding,
            "shed_events": self.metrics.shed_events,
            "wal_appends": self.metrics.wal_appends,
            "checkpoints": self.metrics.checkpoints_written,
            "checkpoint_bytes": self._checkpoint_bytes,
            "route_diff": len(self._route_diff),
            "epoch": int(self.table.epoch),
        }

    def snapshot(self, name: Optional[str] = None) -> ClusterSet:
        """Materialise the current clusters (non-destructive)."""
        return self.store.snapshot(
            name=name if name is not None else self.config.name,
            method="network-aware",
        )

    # -- flushing --------------------------------------------------------

    def _flush_all(self) -> None:
        self._flush_logs()
        self._flush_deltas()

    def _flush_logs(self) -> None:
        if not self._pending_logs:
            return
        batch = self._pending_logs
        self._pending_logs = []
        started = perf_counter()
        applied = self.store.apply_batch(batch, self.table)
        self.metrics.record_batch([applied], perf_counter() - started, applied)
        self._drain_stats()

    def _flush_deltas(self) -> None:
        if not self._pending_deltas:
            return
        deltas = self._pending_deltas
        self._pending_deltas = {}
        if self.injector is not None:
            if self.injector.fire(SITE_SERVE_CRASH) is not None:
                # Deliberately *before* any mutation: the process dies
                # with the on-disk checkpoint predating this batch,
                # which is what resume must recover from.
                raise InjectedFault(
                    SITE_SERVE_CRASH, "injected serve crash mid-delta"
                )
        started = perf_counter()
        windows, announced, withdrawn, rebuilt = self._apply_routes(deltas)
        if rebuilt:
            self.metrics.record_patch_fallback()
        moved = self.store.reassign_clients(windows, self.table)
        self.metrics.record_patch(
            announced, withdrawn, moved, perf_counter() - started
        )
        if _sanitize.is_enabled() and _sanitize.crosscheck_due():
            # Sampled runtime equivalence gate: the patched table must
            # be indistinguishable from a from-scratch rebuild.
            self.table.verify_patched()
            _sanitize.record_crosscheck()
        self._drain_stats()

    def _apply_routes(
        self, deltas: Dict[Prefix, RouteDelta]
    ) -> Tuple[List[Tuple[int, int]], int, int, bool]:
        """Apply one coalesced delta map to the live table — in place,
        or by :meth:`_rebuild` past the crossover — and fold it into
        the route diff.  The one way routes reach the table: live
        flushes and :meth:`recover`'s diff replay alike.
        Returns ``(windows, announced, withdrawn, rebuilt)``."""
        announce: List[Tuple[Prefix, Any]] = []
        withdraw: List[Prefix] = []
        for prefix in sorted(deltas, key=Prefix.sort_key):
            delta = deltas[prefix]
            if delta.op == RouteDelta.OP_ANNOUNCE:
                announce.append((prefix, self._value_for(delta)))
            else:
                withdraw.append(prefix)
        threshold = max(PATCH_FALLBACK_FLOOR, len(self.table) // 2)
        rebuilt = len(announce) + len(withdraw) > threshold
        if rebuilt:
            windows = self._rebuild(announce, withdraw)
        else:
            windows = list(self.table.apply_delta(announce, withdraw).windows)
        self._route_diff.update(deltas)
        return windows, len(announce), len(withdraw), rebuilt

    @property
    def _inner_table(self) -> Any:
        """The patchable table itself, under any memo front."""
        if isinstance(self.table, MemoizedLookup):
            return self.table.table
        return self.table

    def _value_for(self, delta: RouteDelta) -> LookupResult:
        """The table value an announce installs (LookupResult-shaped,
        like :meth:`PackedLpm.from_merged` values, so provenance and
        cluster source labels keep working)."""
        entry = RouteEntry(
            prefix=delta.prefix,
            as_path=(delta.origin_asn,) if delta.origin_asn else (),
        )
        return LookupResult(
            prefix=delta.prefix,
            entry=entry,
            source_name=delta.source,
            source_kind=KIND_BGP,
        )

    def _rebuild(
        self, announce: List[Tuple[Prefix, Any]], withdraw: List[Prefix]
    ) -> List[Tuple[int, int]]:
        """Full-rebuild fallback for oversized delta batches.

        Produces the same final table and the same invalidation windows
        as the in-place patch would, and carries the patch-generation
        counters forward so resume accounting stays consistent.
        """
        inner = self._inner_table
        items = dict(inner.items())
        spans: List[Tuple[int, int]] = []
        for prefix, value in announce:
            items[prefix] = value
            spans.append((prefix.network, prefix.last_address))
        for prefix in withdraw:
            items.pop(prefix, None)
            spans.append((prefix.network, prefix.last_address))
        epoch = int(inner.epoch)
        deltas_applied = int(inner.deltas_applied)
        rebuilt = type(inner).from_items(
            sorted(items.items(), key=lambda kv: kv[0].sort_key())
        )
        rebuilt.restore_generation(
            epoch + 1, deltas_applied + len(announce) + len(withdraw)
        )
        if isinstance(self.table, MemoizedLookup):
            self.table.table = rebuilt
            self.table.clear_memo()
        else:
            self.table = rebuilt
        return merge_windows(spans)

    # -- checkpoints -----------------------------------------------------

    def checkpoint_now(self) -> None:
        """Flush and write a verified checkpoint.

        Resets the periodic-checkpoint countdown itself, so direct
        calls — from :meth:`finish`, a signal handler, or the ENOSPC
        path — push the next periodic checkpoint out instead of letting
        it fire immediately after.

        Every checkpoint persists the routing state as
        ``meta["base_digest"]`` + ``meta["route_diff"]`` (plain tuples,
        one per prefix touched since the base table), which is all
        :meth:`recover` needs of it; with a WAL attached, the log is
        synced up to this position before the write and every closed
        segment the new checkpoint covers is deleted after it.
        """
        path = self.config.checkpoint_path
        if path is None:
            return
        self._flush_all()
        self._since_checkpoint = 0
        # The checkpoint is about to claim ``events_consumed``: the log
        # must hold that many events durably first, or a kill between
        # here and the next batched sync leaves a checkpoint past the
        # end of the WAL, which recover() rightly refuses.
        if self._wal is not None and self._wal.flush():
            self.metrics.record_wal_sync()
        digest = self.table.digest()
        meta: Dict[str, Any] = {
            "stream": self.config.name,
            "stream_events": self.events_consumed,
            "deltas_received": self.deltas_received,
            # Whether a WAL holds the events past this checkpoint.
            "wal": int(self.config.wal_dir is not None),
            "base_digest": self._base_digest,
            "route_diff": [
                _route_row(delta) for delta in self._route_diff.values()
            ],
        }
        write_verified_checkpoint(
            path,
            lambda: write_checkpoint(
                path,
                [self.store],
                table_digest=digest,
                meta=meta,
                routing_epoch=int(self.table.epoch),
                deltas_applied=int(self.table.deltas_applied),
            ),
            digest,
            self.injector,
            self.metrics,
        )
        self.metrics.record_checkpoint()
        self._checkpoint_bytes = os.path.getsize(path)
        if self._wal is not None:
            removed = self._wal.truncate_covered(self.events_consumed)
            if removed:
                self.metrics.record_wal_truncated_segments(removed)

    def _prove_skipped_routes(self) -> None:
        """The boundary proof of a replayed upstream: the route events
        among the dropped prefix, last one per prefix, are exactly the
        restored checkpoint's route diff."""
        skipped = set(map(_route_row, self._skipped_routes.values()))
        self._skipped_routes = {}
        if skipped != set(map(_route_row, self._route_diff.values())):
            raise CheckpointTableMismatchError(
                f"the first {self.events_consumed:,} events of the replayed "
                "stream do not net the checkpoint's route diff — the "
                "checkpoint was taken against a different routing table; "
                "resume needs the same stream replayed from the start"
            )

    # -- stats -----------------------------------------------------------

    def _drain_stats(self) -> None:
        """Move the table's memo counters and the sanitize counters into
        the metrics: after every flush, so a live (or aborted) daemon's
        figures move with ``lookups``, and once more from
        :meth:`finish`."""
        take_memo = getattr(self.table, "take_memo_stats", None)
        if take_memo is not None:
            self.metrics.record_memo(*take_memo())
        if _sanitize.is_enabled():
            self.metrics.record_sanitize(*_sanitize.take_stats())
