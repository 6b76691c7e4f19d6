"""Zero-copy shared-memory dispatch: one table, many workers, no pickles.

The packed LPM layouts are flat ``array('Q')``/``array('q')`` buffers,
so instead of pickling the whole table into every worker (and a
partial :class:`~repro.engine.state.ClusterStore` back per chunk), the
driver *publishes* the table once into ``multiprocessing.shared_memory``
segments and persistent workers attach to it by name:

* :class:`SharedLpm` places the interval arrays (and the stride-16
  front, for :class:`~repro.engine.fastpath.StrideLpm`) into two
  segments — raw buffers plus a once-pickled blob for the Python-object
  entries — and :func:`attach_shared_table` rebuilds a zero-copy
  ``memoryview``-backed table around them in the worker.  Only a
  :class:`SharedLpmHandle` (segment names, digest, generation) ever
  crosses the process boundary.
* :class:`ShmWorkerGroup` runs one persistent worker process per shard.
  Jobs (:class:`~repro.engine.fastpath.PackedBatch` — URL interning
  stays message-passed) arrive on a per-worker ``SimpleQueue``; workers
  fold results into a process-local delta store and write per-shard
  count/byte accumulators into a shared flat array, so per-chunk the
  driver only reads counters and a tiny ack — no partial store to
  unpickle.  Delta stores cross back only on an explicit
  :meth:`ShmWorkerGroup.sync` (every ``shard.SHM_SYNC_INTERVAL``
  chunks, and before any snapshot/checkpoint/shutdown).

Generation protocol: every publication carries a process-unique
generation number, written into slot 0 of the accumulator segment.  A
worker re-checks it against its attached generation before every batch
and refuses (``stale`` ack) rather than resolve against superseded
buffers; the driver republishes — sync, unlink, fresh segments, fresh
workers — whenever the live table's ``epoch``/``deltas_applied`` moved
(an ``apply_delta`` patch from :mod:`repro.serve`).

Crash story: segments are unlinked in ``finally`` blocks on every
shutdown path, an :mod:`atexit` guard reclaims anything a crashed
driver left registered, and stale segments discovered at publish time
(a previous run died hard) are unlinked and counted in the
``shm_unlink_failures`` metric.  Workers attach with the
resource-tracker registration cancelled, so the creator remains the one
owner the tracker knows about.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import time
from array import array
from dataclasses import dataclass
from multiprocessing import Pipe, Process, SimpleQueue, resource_tracker
from multiprocessing.connection import Connection, wait as _connection_wait
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import sanitize as _sanitize
from repro.engine.fastpath import (
    MemoizedLookup,
    PackedBatch,
    StrideLpm,
    build_table_view,
)
from repro.engine.packed import PackedLpm
from repro.engine.state import ClusterStore
from repro.errors import SanitizeError, WorkerCrashError
from repro.faults import SITE_SHM_WORKER_CRASH, execute_worker_directive

__all__ = [
    "SharedLpm",
    "SharedLpmHandle",
    "ShmWorkerGroup",
    "attach_shared_table",
]

#: Lifecycle specs for ``repro-lint --flow`` (literal dicts, read by the
#: analyzer via ``ast.literal_eval`` — never imported).  Segments minted
#: through :func:`_create_segment` must reach :func:`_release_segment`
#: on every path, and shared-table dispatch anywhere in the engine must
#: be dominated by a staleness check since the last republish point.
FLOW_SPECS = (
    {
        "rule": "resource-leak",
        "resource": "shm segment",
        "acquire": ("_create_segment",),
        "release_funcs": ("_release_segment",),
        "tuple_result": True,
    },
    {
        "rule": "stale-epoch-read",
        "reads": ("dispatch",),
        "guards": ("is_stale", "_ensure_shm_group"),
        "invalidators": ("apply_delta",),
        "modules": ("repro.engine",),
    },
    # Driver-side exactly-once protocol (checked interprocedurally by
    # ``repro-lint --flow --inter``): every dispatch re-establishes
    # freshness since the last delta, counter folds are separated by an
    # ack round, and an unlinked group never sees another dispatch
    # without a republish in between.
    {
        "rule": "epoch-protocol",
        "reads": ("dispatch",),
        "guards": ("is_stale", "_ensure_shm_group"),
        "invalidators": ("apply_delta",),
        "folds": ("_drain_counters",),
        "refresh": ("_await_acks",),
        "unlink": ("shutdown", "release_shm"),
        "dispatch": ("dispatch",),
        "republish": ("ShmWorkerGroup", "_ensure_shm_group"),
        "modules": ("repro.engine",),
    },
    # Worker-side half of the protocol: a batch applies against the
    # attached table only after the generation check since the last
    # (re-)attach; the guard is the comparison against ``generation``.
    {
        "rule": "epoch-protocol",
        "reads": ("apply_packed",),
        "guards": ("generation",),
        "invalidators": ("attach_shared_table",),
        "modules": ("repro.engine.shm",),
    },
)

#: Per-shard slots in the shared accumulator array, in order.  Workers
#: add to their own shard's slice only (single writer per slot), the
#: driver reads monotonic totals and folds deltas into the metrics.
(
    _C_ENTRIES,
    _C_BYTES,
    _C_BATCHES,
    _C_MEMO_HITS,
    _C_MEMO_MISSES,
    _C_MEMO_EVICTIONS,
    _C_SAN_BATCH,
    _C_SAN_XCHK,
    _C_SAN_READBACK,
    _C_SAN_RNG,
) = range(10)
_COUNTERS_PER_SHARD = 10

#: Slot 0 of the accumulator holds the published generation; shard
#: counters start at slot 1.
_ACC_GENERATION_SLOT = 0

#: Grace period for a worker to exit after a ``stop`` job before it is
#: terminated, and for a terminated worker to die before ``kill``.
_JOIN_GRACE_SECONDS = 5.0

#: Process-unique generation numbers for successive publications.
_GENERATION_COUNTER = itertools.count(1)

#: Segment-name sequence; names are ``repro-<pid>-<seq><tag>`` with tag
#: ``t`` (raw interval/stride buffers), ``e`` (pickled entries blob) or
#: ``a`` (accumulator) — short enough for the POSIX shm name limits.
_SEGMENT_COUNTER = itertools.count(1)

#: Driver-side registry of live (created, not yet unlinked) segments,
#: reclaimed by the atexit guard if a run dies without cleanup.
_LIVE_SEGMENTS: Dict[str, SharedMemory] = {}

#: Publication cache: ``(id(base), epoch, deltas_applied)`` →
#: ``(base, entries_blob, digest)``.  Re-publishing an unchanged table
#: (every benchmark repetition; every group rebuilt after quarantine)
#: skips re-pickling the entry columns and re-hashing the digest.  The
#: strong ``base`` reference both pins the id against reuse and is
#: compared identically on lookup; FIFO-capped since publications are
#: rare.  (``PackedLpm`` carries ``__slots__`` without ``__weakref__``,
#: so a ``WeakKeyDictionary`` is not an option.)
_PUBLISH_CACHE: Dict[Tuple[int, int, int], Tuple[Any, bytes, str]] = {}
_PUBLISH_CACHE_LIMIT = 4

#: Attach fast path: entries-segment name → the exact Python-object
#: entry columns serialised into it.  A worker forked *after* publish
#: inherits this mapping and skips the multi-MB unpickle — the fork's
#: copy-on-write pages are the same zero-copy sharing the segments give
#: the interval arrays.  A ``spawn``-started worker (or any foreign
#: process) simply misses and unpickles from the segment.
_ENTRIES_CACHE: Dict[str, Tuple[Any, Any, Any]] = {}

#: One job on a worker's queue:
#: ``(verb, seq, generation, handle, batch, directive)`` — ``attach``
#: carries the handle, ``batch`` the PackedBatch plus an optional armed
#: fault directive, ``sync`` and ``stop`` neither.
_ShmJob = Tuple[
    str, int, int, Optional["SharedLpmHandle"], Optional[PackedBatch],
    Optional[Tuple[int, str, float]],
]

#: One ack on a worker's pipe: ``(status, seq, error, store)`` —
#: ``attached``/``ok`` carry nothing, ``synced`` the drained delta
#: store, ``error``/``stale`` a message.
_ShmAck = Tuple[str, int, Optional[str], Optional[ClusterStore]]

#: Failures a segment close/unlink can legitimately raise: the segment
#: is already gone (someone reclaimed it), the mapping is still
#: referenced, or the OS refused.
_SEGMENT_CLEANUP_ERRORS = (OSError, BufferError, ValueError)


def _segment_name(tag: str) -> str:
    return f"repro-{os.getpid()}-{next(_SEGMENT_COUNTER)}{tag}"


def _cleanup_leaked_segments() -> None:
    """atexit guard: unlink anything a dying driver left behind."""
    for name, segment in list(_LIVE_SEGMENTS.items()):
        _LIVE_SEGMENTS.pop(name, None)
        try:
            segment.close()
        except _SEGMENT_CLEANUP_ERRORS:
            pass
        try:
            segment.unlink()
        except _SEGMENT_CLEANUP_ERRORS:
            pass


atexit.register(_cleanup_leaked_segments)


def _create_segment(tag: str, size: int) -> Tuple[SharedMemory, int]:
    """Create a fresh segment; reclaim a leaked same-name one if found.

    Returns ``(segment, leaked)`` where ``leaked`` counts stale segments
    from a dead run that had to be unlinked first (fed into the
    ``shm_unlink_failures`` metric: every such detection is a cleanup
    that a previous run failed to do).
    """
    name = _segment_name(tag)
    leaked = 0
    try:
        segment = SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        leaked += 1
        try:
            stale = SharedMemory(name=name)
            stale.close()
            stale.unlink()
        except _SEGMENT_CLEANUP_ERRORS:
            pass
        segment = SharedMemory(name=name, create=True, size=size)
    _LIVE_SEGMENTS[segment.name] = segment
    return segment, leaked


def _release_segment(segment: Optional[SharedMemory], unlink: bool) -> int:
    """Close (and optionally unlink) a segment; returns failure count."""
    if segment is None:
        return 0
    failures = 0
    _LIVE_SEGMENTS.pop(segment.name, None)
    try:
        segment.close()
    except _SEGMENT_CLEANUP_ERRORS:
        failures += 1
    if unlink:
        try:
            segment.unlink()
        except _SEGMENT_CLEANUP_ERRORS:
            failures += 1
    return failures


def _untrack_attachment(segment: SharedMemory) -> None:
    """Keep the creator the resource tracker's single registered owner.

    Attaching ``SharedMemory(name=...)`` registers the segment with the
    attaching process's resource tracker too.  Under ``fork`` (the
    Linux default) that tracker is the driver's own — registrations
    dedupe in a set, so a worker-side *unregister* would erase the
    creator's only entry and the tracker would complain at every
    unlink; the right move is to do nothing.  Under ``spawn`` each
    worker runs its own tracker, which would unlink the still-shared
    segment when the worker exits — there the registration must be
    cancelled.
    """
    try:
        if multiprocessing.get_start_method() == "fork":
            return
        resource_tracker.unregister(segment._name, "shared_memory")
    except (AttributeError, KeyError, OSError, RuntimeError, ValueError):
        pass


@dataclass(frozen=True)
class SharedLpmHandle:
    """Everything a worker needs to attach: names and numbers, never
    buffers.  This is the only table-shaped thing that crosses the
    process boundary in shm mode."""

    kind: str
    generation: int
    data_name: str
    entries_name: str
    acc_name: str
    digest: str
    epoch: int
    deltas_applied: int
    starts_bytes: int
    owners_bytes: int
    slots_bytes: int
    entries_bytes: int
    memo_size: int
    num_shards: int


class _AttachedTable:
    """A worker's zero-copy view plus the resources backing it."""

    def __init__(
        self,
        table: Any,
        base: PackedLpm,
        private: Optional[PackedLpm],
        segments: List[SharedMemory],
        views: List[Any],
    ) -> None:
        #: The lookup table batches resolve against (memo-wrapped view).
        self.table = table
        #: The raw shared view (for digest/crosscheck access).
        self.base = base
        #: Private-array twin for REPRO_SANITIZE cross-checks.
        self.private = private
        self._segments = segments
        self._views = views

    def close(self) -> None:
        """Release the memoryviews, then the mappings (best effort)."""
        self.table = None
        self.base = None
        self.private = None
        views, self._views = self._views, []
        for view in views:
            try:
                view.release()
            except _SEGMENT_CLEANUP_ERRORS:
                pass
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except _SEGMENT_CLEANUP_ERRORS:
                pass


def _unwrap_table(table: Any) -> Tuple[PackedLpm, int]:
    """Split a possibly-memoized table into (base table, memo size)."""
    if isinstance(table, MemoizedLookup):
        return table.table, table.maxsize
    return table, 0


class SharedLpm:
    """Driver-side publication of one table generation.

    Creates two segments: ``data`` holds the raw ``_starts`` /
    ``_owners`` (and, for stride tables, ``_slots``) buffers back to
    back; ``entries`` holds a once-pickled blob of the Python-object
    entry columns (prefixes, values, stride runs) each worker unpickles
    once at attach.  :attr:`handle` is the picklable description.
    """

    def __init__(
        self,
        table: Any,
        generation: int,
        acc_name: str = "",
        num_shards: int = 1,
    ) -> None:
        base, memo_size = _unwrap_table(table)
        if isinstance(base, StrideLpm):
            kind = "stride"
            packed_state, slots, runs = base.__getstate__()
        else:
            kind = "packed"
            packed_state = base.__getstate__()
            slots = array("q")
            runs = None
        starts, owners, prefixes, values, epoch, deltas_applied = packed_state
        # Snapshot the (mutable) stride runs so cached entries can never
        # alias a list a later patch rewrites in place.
        entries = (prefixes, values, list(runs) if runs is not None else None)
        cache_key = (id(base), epoch, deltas_applied)
        cached = _PUBLISH_CACHE.get(cache_key)
        if cached is not None and cached[0] is base:
            entries_blob, digest = cached[1], cached[2]
        else:
            entries_blob = pickle.dumps(
                entries, protocol=pickle.HIGHEST_PROTOCOL
            )
            digest = base.digest()
            _PUBLISH_CACHE[cache_key] = (base, entries_blob, digest)
            while len(_PUBLISH_CACHE) > _PUBLISH_CACHE_LIMIT:
                _PUBLISH_CACHE.pop(next(iter(_PUBLISH_CACHE)))
        starts_bytes = len(starts) * starts.itemsize
        owners_bytes = len(owners) * owners.itemsize
        slots_bytes = len(slots) * slots.itemsize
        self.leaked_detections = 0
        self._data: Optional[SharedMemory] = None
        self._entries: Optional[SharedMemory] = None
        try:
            self._data, leaked = _create_segment(
                "t", max(1, starts_bytes + owners_bytes + slots_bytes)
            )
            self.leaked_detections += leaked
            self._entries, leaked = _create_segment(
                "e", max(1, len(entries_blob))
            )
            self.leaked_detections += leaked
            buf = self._data.buf
            offset = 0
            for source in (starts, owners, slots):
                raw = memoryview(source).cast("B")
                size = raw.nbytes
                try:
                    buf[offset:offset + size] = raw
                finally:
                    raw.release()
                offset += size
            self._entries.buf[: len(entries_blob)] = entries_blob
            _ENTRIES_CACHE[self._entries.name] = entries
            self.handle = SharedLpmHandle(
                kind=kind,
                generation=generation,
                data_name=self._data.name,
                entries_name=self._entries.name,
                acc_name=acc_name,
                digest=digest,
                epoch=epoch,
                deltas_applied=deltas_applied,
                starts_bytes=starts_bytes,
                owners_bytes=owners_bytes,
                slots_bytes=slots_bytes,
                entries_bytes=len(entries_blob),
                memo_size=memo_size,
                num_shards=num_shards,
            )
        except BaseException:
            self.close(unlink=True)
            raise

    def close(self, unlink: bool = True) -> int:
        """Release both segments; returns the unlink-failure count."""
        failures = 0
        data, self._data = self._data, None
        failures += _release_segment(data, unlink)
        entries, self._entries = self._entries, None
        if entries is not None:
            _ENTRIES_CACHE.pop(entries.name, None)
        failures += _release_segment(entries, unlink)
        return failures


def attach_shared_table(
    handle: SharedLpmHandle, untrack: bool = False
) -> _AttachedTable:
    """Rebuild a zero-copy table around a published handle.

    The returned view's interval arrays are ``memoryview`` casts over
    the shared mapping — no buffer is copied.  With ``untrack`` the
    attachment's resource-tracker registration is cancelled (worker
    processes: the driver owns the segment's lifetime).  Under
    ``REPRO_SANITIZE=1`` a private-array twin is materialised and the
    view's digest is verified against the handle's.
    """
    data = SharedMemory(name=handle.data_name)
    segments = [data]
    views: List[Any] = []
    try:
        entries_segment = SharedMemory(name=handle.entries_name)
        segments.append(entries_segment)
        if untrack:
            _untrack_attachment(data)
            _untrack_attachment(entries_segment)
        # Fork fast path: a worker forked after publish inherited the
        # creator's entry columns (copy-on-write) — the segment blob
        # only needs unpickling in a process that didn't.
        entries = _ENTRIES_CACHE.get(handle.entries_name)
        if entries is None:
            entries = pickle.loads(
                bytes(entries_segment.buf[: handle.entries_bytes])
            )
        starts_end = handle.starts_bytes
        owners_end = starts_end + handle.owners_bytes
        slots_end = owners_end + handle.slots_bytes
        starts = data.buf[:starts_end].cast("Q")
        views.append(starts)
        owners = data.buf[starts_end:owners_end].cast("q")
        views.append(owners)
        slots: Any = None
        if handle.kind == "stride":
            slots = data.buf[owners_end:slots_end].cast("q")
            views.append(slots)
        base = build_table_view(
            handle.kind, starts, owners, slots, entries,
            handle.epoch, handle.deltas_applied,
        )
        private: Optional[PackedLpm] = None
        if _sanitize.is_enabled():
            if base.digest() != handle.digest:
                raise SanitizeError(
                    "shared LPM view digest diverged from the published "
                    f"handle (generation {handle.generation})"
                )
            private_starts = array("Q")
            private_starts.frombytes(bytes(data.buf[:starts_end]))
            private_owners = array("q")
            private_owners.frombytes(bytes(data.buf[starts_end:owners_end]))
            private_slots: Any = None
            if handle.kind == "stride":
                private_slots = array("q")
                private_slots.frombytes(bytes(data.buf[owners_end:slots_end]))
            private = build_table_view(
                handle.kind, private_starts, private_owners, private_slots,
                entries, handle.epoch, handle.deltas_applied,
            )
        table: Any = base
        if handle.memo_size > 0:
            table = MemoizedLookup(base, handle.memo_size)
        return _AttachedTable(table, base, private, segments, views)
    except BaseException:
        for view in views:
            try:
                view.release()
            except _SEGMENT_CLEANUP_ERRORS:
                pass
        for segment in segments:
            try:
                segment.close()
            except _SEGMENT_CLEANUP_ERRORS:
                pass
        raise


def _crosscheck_shared_lookups(
    attached: _AttachedTable, batch: PackedBatch
) -> None:
    """Sampled REPRO_SANITIZE invariant: the shared view answers every
    lookup exactly as a private-array copy of the same table does."""
    if attached.private is None or not _sanitize.crosscheck_due():
        return
    addresses = list(batch.addresses)
    shared = attached.base.lookup_many(addresses)
    private = attached.private.lookup_many(addresses)
    if shared != private:
        diverged = sum(1 for a, b in zip(shared, private) if a != b)
        raise SanitizeError(
            f"shared-memory LPM view diverged from its private twin on "
            f"{diverged}/{len(addresses)} lookups"
        )
    _sanitize.record_crosscheck()


def _shm_worker_main(shard: int, jobs: Any, ack: Connection) -> None:
    """Persistent worker loop: attach once, apply batches, sync deltas.

    Communicates results through three channels: the shared accumulator
    array (per-batch counters), the ack pipe (tiny status tuples, plus
    the delta store on ``sync``), and nothing else — the table never
    crosses back.
    """
    attached: Optional[_AttachedTable] = None
    acc: Optional[SharedMemory] = None
    counters: Any = None
    generation = -1
    base_slot = 1 + shard * _COUNTERS_PER_SHARD
    store = ClusterStore()
    try:
        while True:
            try:
                job: _ShmJob = jobs.get()
            except (EOFError, OSError):
                break
            verb, seq, job_generation, handle, batch, directive = job
            if verb == "stop":
                break
            try:
                if verb == "attach":
                    if attached is not None:
                        attached.close()
                    attached = attach_shared_table(handle, untrack=True)
                    if acc is None:
                        acc = SharedMemory(name=handle.acc_name)
                        _untrack_attachment(acc)
                        counters = acc.buf.cast("q")
                    generation = handle.generation
                    store = ClusterStore()
                    ack.send(("attached", seq, None, None))
                elif verb == "sync":
                    drained, store = store, ClusterStore()
                    ack.send(("synced", seq, None, drained))
                elif verb == "batch":
                    if (
                        job_generation != generation
                        or counters is None
                        or counters[_ACC_GENERATION_SLOT] != generation
                    ):
                        ack.send((
                            "stale", seq,
                            f"worker attached to generation {generation}, "
                            f"job carries {job_generation}", None,
                        ))
                        continue
                    crash_after_apply = None
                    if directive is not None:
                        if directive[1] == SITE_SHM_WORKER_CRASH:
                            crash_after_apply = directive
                        else:
                            execute_worker_directive(directive)
                    store.apply_packed(batch, attached.table)
                    _crosscheck_shared_lookups(attached, batch)
                    counters[base_slot + _C_ENTRIES] += len(batch)
                    counters[base_slot + _C_BYTES] += sum(batch.sizes)
                    counters[base_slot + _C_BATCHES] += 1
                    take = getattr(attached.table, "take_memo_stats", None)
                    if take is not None:
                        hits, misses, evictions = take()
                        counters[base_slot + _C_MEMO_HITS] += hits
                        counters[base_slot + _C_MEMO_MISSES] += misses
                        counters[base_slot + _C_MEMO_EVICTIONS] += evictions
                    if _sanitize.is_enabled():
                        checks, crosschecks, readbacks, draws = (
                            _sanitize.take_stats()
                        )
                        counters[base_slot + _C_SAN_BATCH] += checks
                        counters[base_slot + _C_SAN_XCHK] += crosschecks
                        counters[base_slot + _C_SAN_READBACK] += readbacks
                        counters[base_slot + _C_SAN_RNG] += draws
                    if crash_after_apply is not None:
                        # Injected hard death mid-batch: the batch is in
                        # the (doomed) delta store, the ack never sends,
                        # the driver sees the pipe snap.
                        execute_worker_directive(crash_after_apply)
                    ack.send(("ok", seq, None, None))
                else:
                    ack.send(("error", seq, f"unknown job verb {verb!r}", None))
            except Exception as exc:  # lint: ignore[broad-except] -- the worker reports over the ack pipe and the driver re-raises WorkerCrashError; raising here would just kill the worker without a message
                try:
                    ack.send(("error", seq, repr(exc), None))
                except (OSError, ValueError):
                    break
    finally:
        if counters is not None:
            try:
                counters.release()
            except _SEGMENT_CLEANUP_ERRORS:
                pass
        if attached is not None:
            attached.close()
        if acc is not None:
            try:
                acc.close()
            except _SEGMENT_CLEANUP_ERRORS:
                pass
        try:
            ack.close()
        except (OSError, ValueError):
            pass


class ShmWorkerGroup:
    """One persistent worker process per shard over a shared table.

    The driver dispatches per-chunk :class:`PackedBatch` jobs and waits
    for per-worker acks; counters flow back through the shared
    accumulator, delta stores only on :meth:`sync`.  Any failure —
    an error ack, a stale-generation refusal, a snapped ack pipe, a
    dispatch past ``dispatch_timeout`` — surfaces as
    :class:`~repro.errors.WorkerCrashError`; the caller is expected to
    :meth:`shutdown` the group and replay its un-synced chunks.
    """

    def __init__(
        self,
        table: Any,
        num_shards: int,
        dispatch_timeout: Optional[float] = None,
        metrics: Any = None,
    ) -> None:
        self.generation = next(_GENERATION_COUNTER)
        self.num_shards = num_shards
        self.dispatch_timeout = dispatch_timeout
        self._metrics = metrics
        self._seq = 0
        self._acc: Optional[SharedMemory] = None
        self._counters: Any = None
        self._published: Optional[SharedLpm] = None
        self._workers: List[Process] = []
        self._queues: List[Any] = []
        self._conns: List[Connection] = []
        self._last_seen = [
            [0] * _COUNTERS_PER_SHARD for _ in range(num_shards)
        ]
        leaked = 0
        try:
            slots = 1 + num_shards * _COUNTERS_PER_SHARD
            self._acc, leaked = _create_segment("a", 8 * slots)
            self._counters = self._acc.buf.cast("q")
            for slot in range(slots):
                self._counters[slot] = 0
            self._counters[_ACC_GENERATION_SLOT] = self.generation
            self._published = SharedLpm(
                table,
                generation=self.generation,
                acc_name=self._acc.name,
                num_shards=num_shards,
            )
            leaked += self._published.leaked_detections
            for shard in range(num_shards):
                queue: Any = SimpleQueue()
                recv_end, send_end = Pipe(duplex=False)
                worker = Process(
                    target=_shm_worker_main,
                    args=(shard, queue, send_end),
                    daemon=True,
                    name=f"repro-shm-{shard}",
                )
                worker.start()
                send_end.close()
                self._workers.append(worker)
                self._queues.append(queue)
                self._conns.append(recv_end)
            self._seq += 1
            for queue in self._queues:
                queue.put((
                    "attach", self._seq, self.generation,
                    self._published.handle, None, None,
                ))
            self._await_acks(self._seq, "attached")
            if leaked and metrics is not None:
                metrics.record_shm_unlink_failures(leaked)
        except BaseException:
            # Tear down before recording: a raising metrics sink must not
            # leave live workers and an unlinked accumulator behind.
            self.shutdown(kill=True)
            if leaked and metrics is not None:
                metrics.record_shm_unlink_failures(leaked)
            raise

    @property
    def handle(self) -> Optional[SharedLpmHandle]:
        return self._published.handle if self._published is not None else None

    def is_stale(self, table: Any) -> bool:
        """Has the live table moved past the published generation?"""
        base, _ = _unwrap_table(table)
        handle = self.handle
        if handle is None:
            return True
        return (
            handle.epoch != int(getattr(base, "epoch", 0))
            or handle.deltas_applied != int(getattr(base, "deltas_applied", 0))
        )

    # -- dispatch --------------------------------------------------------

    def dispatch(
        self,
        batches: List[PackedBatch],
        directive: Optional[Tuple[int, str, float]] = None,
    ) -> Dict[str, Any]:
        """Ship one chunk's per-shard batches; wait for every ack.

        Returns the accumulated counter deltas since the previous drain
        (memo and sanitize stats for the metrics).  Raises
        :class:`WorkerCrashError` on any worker failure; the chunk must
        then be considered not applied.
        """
        self._seq += 1
        seq = self._seq
        for shard, batch in enumerate(batches):
            armed = (
                directive
                if directive is not None and directive[0] == shard
                else None
            )
            self._queues[shard].put(
                ("batch", seq, self.generation, None, batch, armed)
            )
        self._await_acks(seq, "ok")
        return self._drain_counters()

    def sync(self) -> Tuple[List[ClusterStore], Dict[str, Any]]:
        """Collect every worker's delta store (workers reset to empty).

        The returned stores merge into the driver's authoritative
        per-shard states; after a successful sync the replay buffer of
        dispatched-but-unsynced chunks can be cleared.
        """
        self._seq += 1
        seq = self._seq
        for queue in self._queues:
            queue.put(("sync", seq, self.generation, None, None, None))
        payloads = self._await_acks(seq, "synced")
        stores = [payloads[shard] for shard in range(self.num_shards)]
        return stores, self._drain_counters()

    def _await_acks(self, seq: int, expected: str) -> Dict[int, Any]:
        pending: Dict[Connection, int] = {
            conn: shard for shard, conn in enumerate(self._conns)
        }
        payloads: Dict[int, Any] = {}
        deadline = (
            time.perf_counter() + self.dispatch_timeout
            if self.dispatch_timeout is not None
            else None
        )
        while pending:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.perf_counter())
            ready = _connection_wait(list(pending), timeout)
            if not ready:
                raise WorkerCrashError(
                    f"shm dispatch exceeded dispatch_timeout="
                    f"{self.dispatch_timeout}s; a worker is hung or died "
                    "mid-batch — group must be torn down, chunk not applied"
                )
            for conn in ready:
                shard = pending[conn]
                try:
                    status, ack_seq, error, payload = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrashError(
                        f"shm worker for shard {shard} died mid-batch "
                        "(ack pipe snapped) — group must be torn down, "
                        "chunk not applied"
                    ) from exc
                if ack_seq != seq:
                    continue
                if status == "error":
                    raise WorkerCrashError(
                        f"shm worker for shard {shard} failed ({error}) — "
                        "group must be torn down, chunk not applied"
                    )
                if status == "stale":
                    raise WorkerCrashError(
                        f"shm worker for shard {shard} refused a stale "
                        f"generation ({error}) — republish required"
                    )
                if status != expected:
                    raise WorkerCrashError(
                        f"shm worker for shard {shard} acked {status!r} "
                        f"where {expected!r} was expected"
                    )
                payloads[shard] = payload
                del pending[conn]
        return payloads

    def _drain_counters(self) -> Dict[str, Any]:
        counters = self._counters
        totals = [0] * _COUNTERS_PER_SHARD
        per_shard_entries = [0] * self.num_shards
        for shard in range(self.num_shards):
            base = 1 + shard * _COUNTERS_PER_SHARD
            seen = self._last_seen[shard]
            for slot in range(_COUNTERS_PER_SHARD):
                value = counters[base + slot]
                totals[slot] += value - seen[slot]
                if slot == _C_ENTRIES:
                    per_shard_entries[shard] = value - seen[slot]
                seen[slot] = value
        return {
            "entries": totals[_C_ENTRIES],
            "bytes": totals[_C_BYTES],
            "batches": totals[_C_BATCHES],
            "per_shard_entries": per_shard_entries,
            "memo": (
                totals[_C_MEMO_HITS],
                totals[_C_MEMO_MISSES],
                totals[_C_MEMO_EVICTIONS],
            ),
            "sanitize": (
                totals[_C_SAN_BATCH],
                totals[_C_SAN_XCHK],
                totals[_C_SAN_READBACK],
                totals[_C_SAN_RNG],
            ),
        }

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, kill: bool = False) -> None:
        """Stop workers and unlink every segment (idempotent).

        ``kill`` terminates instead of draining — the only safe option
        after a failed dispatch, when workers may be wedged mid-batch.
        Unlink failures (and leaked-segment detections) are counted into
        the ``shm_unlink_failures`` metric.
        """
        failures = 0
        try:
            if not kill:
                for queue in self._queues:
                    try:
                        queue.put(("stop", 0, 0, None, None, None))
                    except (OSError, ValueError):
                        pass
            for worker in self._workers:
                if kill and worker.is_alive():
                    worker.terminate()
            for worker in self._workers:
                worker.join(_JOIN_GRACE_SECONDS)
                if worker.is_alive():
                    worker.kill()
                    worker.join(_JOIN_GRACE_SECONDS)
        finally:
            self._workers = []
            for queue in self._queues:
                try:
                    queue.close()
                except (OSError, ValueError):
                    pass
            self._queues = []
            for conn in self._conns:
                try:
                    conn.close()
                except (OSError, ValueError):
                    pass
            self._conns = []
            published, self._published = self._published, None
            if published is not None:
                failures += published.close(unlink=True)
            counters, self._counters = self._counters, None
            if counters is not None:
                try:
                    counters.release()
                except _SEGMENT_CLEANUP_ERRORS:
                    pass
            acc, self._acc = self._acc, None
            failures += _release_segment(acc, unlink=True)
            if failures and self._metrics is not None:
                self._metrics.record_shm_unlink_failures(failures)
