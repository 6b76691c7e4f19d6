"""Sharded, batched ingestion: the engine's parallel front end.

Client addresses are hash-partitioned across N shards with a fixed
multiplicative hash (stable across processes and Python versions — no
``hash()``/``PYTHONHASHSEED`` dependence), so the same client always
lands on the same shard.  Ingestion is chunked: each chunk is split
into per-shard batches, the batches fan out to persistent worker
processes attached to the :class:`~repro.engine.packed.PackedLpm`
table through shared memory, and the per-shard
:class:`~repro.engine.state.ClusterStore` states merge back in shard
order — so results are bit-for-bit deterministic regardless of worker
scheduling, and identical to the single-pass
:func:`repro.core.clustering.cluster_log` on the same input.

With ``num_shards=1`` (or ``use_processes=False``) everything runs
inline in the calling process — same code path, no workers — which is
the mode tests use for speed and the CLI uses by default.

Parallel dispatch has one transport, the zero-copy shared-memory hot
path (:mod:`repro.engine.shm`): the table is published once into
shared segments, persistent workers attach by name and pull
:class:`~repro.engine.fastpath.PackedBatch` jobs from queues, and
per-chunk results come back as shared-array counter increments —
worker delta states cross back only on periodic syncs (every
``SHM_SYNC_INTERVAL`` chunks) and before any snapshot or checkpoint.
The table is republished whenever an ``apply_delta`` moved it on, so
workers always resolve against the current routing state.

Failure containment: a dispatched chunk counts only after *every*
shard's worker acked it, so any worker failure — exception, hard
death, hang past ``dispatch_timeout`` — leaves the engine's state
exactly as it was before the chunk, the worker group is torn down (no
orphaned workers, no leaked segments), and the driver sees a single
:class:`~repro.errors.WorkerCrashError`.  Re-dispatching the same chunk
is therefore always safe; :class:`~repro.engine.supervisor.SupervisedEngine`
builds its retry/quarantine/degrade loop on that guarantee.
"""

from __future__ import annotations

import itertools
import pickle
import time
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.analysis import sanitize as _sanitize
from repro.core.clustering import ClusterSet
from repro.engine.fastpath import PackedBatch
from repro.engine.metrics import EngineMetrics
from repro.engine.packed import PackedLpm
from repro.engine.shm import ShmWorkerGroup
from repro.engine.state import ClusterStore, read_checkpoint, write_checkpoint
from repro.errors import InjectedFault, WorkerCrashError
from repro.faults import SHM_WORKER_SITES, SITE_WORKER_SLOW, FaultInjector

__all__ = ["shard_of", "EngineConfig", "ShardedClusterEngine"]

#: Knuth's multiplicative constant; scrambles allocation-correlated
#: address bits so CIDR-dense logs still spread evenly across shards.
_HASH_MULTIPLIER = 0x9E3779B1
_HASH_MASK = 0xFFFFFFFF

#: One request on the wire: (client address, url, response bytes).
Triple = Tuple[int, str, int]

#: How many dispatched chunks may ride on worker-local delta state
#: before the driver pulls it back: smaller shrinks the replay window
#: after a worker crash, larger amortises the sync pickling better.
SHM_SYNC_INTERVAL = 32


def shard_of(address: int, num_shards: int) -> int:
    """Deterministic shard assignment for a client address."""
    return ((address * _HASH_MULTIPLIER) & _HASH_MASK) % num_shards


@dataclass
class EngineConfig:
    """Tunables for one engine run.

    ``dispatch_timeout`` bounds how long one dispatched chunk may take
    end to end; a worker group that blows past it is presumed dead (a
    worker killed mid-batch never acks) and the dispatch fails with
    :class:`~repro.errors.WorkerCrashError` instead.  ``None`` waits
    forever, which is only safe without fault injection and with
    trustworthy workers.
    """

    num_shards: int = 1
    chunk_size: int = 8192
    use_processes: bool = True
    name: str = "engine"
    dispatch_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1: {self.num_shards!r}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {self.chunk_size!r}")
        if self.dispatch_timeout is not None and self.dispatch_timeout <= 0:
            raise ValueError(
                f"dispatch_timeout must be positive: {self.dispatch_timeout!r}"
            )


#: The anticipated ways a worker round-trip fails: injected faults and
#: assertion trips inside worker code, pipe/pickle transport failures
#: (a worker that hard-exits snaps the result pipe) and the data-shape
#: errors a poisoned batch can raise in ``apply_packed``.  Kept concrete
#: so anything *outside* this set still tears the worker group down but
#: surfaces unwrapped instead of being mislabelled a retryable worker
#: crash.
_WORKER_FAILURE_ERRORS = (
    InjectedFault,
    AssertionError,
    OSError,
    EOFError,
    pickle.PickleError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    ArithmeticError,
    MemoryError,
    RuntimeError,
)


# -- driver side ----------------------------------------------------------


class ShardedClusterEngine:
    """Streaming clustering over a packed table with sharded workers.

    Usage::

        packed = PackedLpm.from_merged(merged_table)
        with ShardedClusterEngine(packed, EngineConfig(num_shards=4)) as eng:
            eng.ingest(entries)           # any iterable of LogEntry
            clusters = eng.snapshot()     # a plain ClusterSet

    The engine may be fed any number of times; ``snapshot`` and
    ``checkpoint`` can be taken between feeds.
    """

    def __init__(
        self,
        table: PackedLpm,
        config: Optional[EngineConfig] = None,
        metrics: Optional[EngineMetrics] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.table = table
        self.config = config or EngineConfig()
        self.metrics = metrics or EngineMetrics(self.config.num_shards)
        #: Optional fault injector (chaos testing); ``None`` — the
        #: default — costs one comparison per dispatched chunk.
        self.injector = injector
        self._stores: List[ClusterStore] = [
            ClusterStore() for _ in range(self.config.num_shards)
        ]
        self._shm_group: Optional[ShmWorkerGroup] = None
        #: Chunks dispatched over shm and acked but not yet pulled back
        #: in a sync: the replay buffer.  If the worker group dies, the
        #: driver re-applies these inline — per-shard order preserved,
        #: so the merged result is identical — before surfacing the
        #: failure.
        self._shm_pending: List[List[PackedBatch]] = []
        #: Checkpoint metadata this engine was restored from ({} when the
        #: engine started fresh); see :meth:`resume`.
        self.resume_meta: Dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ShardedClusterEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        # On an exception the group may hold hung or half-dead workers:
        # a graceful sync would wait on them forever, which is exactly
        # the orphaned-worker leak this guards against.
        self.close(terminate=exc_info and exc_info[0] is not None)

    def close(self, terminate: bool = False) -> None:
        """Shut the worker group down (idempotent).

        ``terminate`` kills workers instead of draining them — the only
        safe shutdown after a dispatch failure, when workers may be
        wedged mid-task.  Either way no acked chunk is lost: a graceful
        close syncs worker delta states back first, a terminating close
        replays the un-synced chunks inline from the driver's buffer.
        """
        if terminate:
            self.release_shm()
            return
        self._sync_shm()
        group, self._shm_group = self._shm_group, None
        if group is not None:
            group.shutdown()

    @property
    def _parallel(self) -> bool:
        """Dispatching to the shm worker group (vs inline)?"""
        return self.config.num_shards > 1 and self.config.use_processes

    # -- ingestion -------------------------------------------------------

    def ingest(self, entries: Iterable[Any]) -> int:
        """Consume log entries (anything with client/url/size attributes).

        Entries are chunked to ``config.chunk_size``, each chunk is
        partitioned by client shard and dispatched; returns the number
        of entries ingested in this call.
        """
        total = 0
        for chunk in _chunks(entries, self.config.chunk_size):
            total += self._ingest_chunk(chunk)
        return total

    def ingest_triples(self, triples: Iterable[Triple]) -> int:
        """Like :meth:`ingest` for pre-projected request triples."""
        total = 0
        for chunk in _chunks(triples, self.config.chunk_size):
            total += self._dispatch(chunk)
        return total

    def _ingest_chunk(self, chunk: Sequence[Any]) -> int:
        return self._dispatch(
            [(entry.client, entry.url, entry.size) for entry in chunk]
        )

    def apply_chunk(self, triples: Sequence[Triple]) -> int:
        """Apply one chunk of triples, all-or-nothing.

        This is the engine's atomic unit of progress: on success every
        shard's partial has merged; on any failure — a worker exception,
        a dead worker, a hang past ``config.dispatch_timeout`` — *no*
        state was merged, the worker group has been torn down, and the call
        raises :class:`WorkerCrashError`.  Re-applying the same chunk
        after a failure can therefore never double-count.
        """
        return self._dispatch(triples)

    def _dispatch(self, triples: Sequence[Triple]) -> int:
        num_shards = self.config.num_shards
        directive = None
        if self.injector is not None:
            directive = self.injector.worker_directive(
                num_shards,
                sites=SHM_WORKER_SITES if self._parallel else None,
            )
        began = time.perf_counter()
        if not self._parallel:
            if directive is not None:
                self._execute_inline_directive(directive)
            if num_shards == 1:
                self._stores[0].apply_batch(triples, self.table)
                counts = [len(triples)]
            else:
                batches = self._partition(triples, num_shards)
                counts = [len(batch) for batch in batches]
                for shard, batch in enumerate(batches):
                    self._stores[shard].apply_batch(batch, self.table)
            self._drain_inline_memo_stats()
        else:
            # Packed transport: each shard's work crosses the process
            # boundary as flat address/size buffers plus an interned
            # URL table (PackedBatch), not a pickled tuple list.
            packed_batches = PackedBatch.partition(triples, num_shards)
            counts = [len(batch) for batch in packed_batches]
            self._dispatch_shm(packed_batches, directive)
        elapsed = time.perf_counter() - began
        self.metrics.record_batch(counts, elapsed, lookups=len(triples))
        return len(triples)

    # -- shared-memory transport -----------------------------------------

    def _ensure_shm_group(self) -> ShmWorkerGroup:
        """The live worker group, republished if the table moved on.

        Staleness (an ``apply_delta`` bumped the table's epoch since
        publication) is checked before *every* dispatch: the old
        generation's delta state syncs back, its segments unlink, and a
        fresh generation publishes the patched table — workers can never
        resolve a batch against superseded buffers.
        """
        group = self._shm_group
        if group is not None and group.is_stale(self.table):
            self._sync_shm()
            group, self._shm_group = self._shm_group, None
            if group is not None:
                group.shutdown()
            group = None
        if group is None:
            group = ShmWorkerGroup(
                self.table,
                self.config.num_shards,
                dispatch_timeout=self.config.dispatch_timeout,
                metrics=self.metrics,
            )
            self._shm_group = group
        return group

    def _dispatch_shm(
        self,
        batches: List[PackedBatch],
        directive: Optional[Tuple[int, str, float]],
    ) -> None:
        """One chunk over the persistent shm workers, all-or-nothing.

        On success the chunk is acked by every worker and buffered for
        replay until the next sync pulls the delta states back.  On any
        failure the group is torn down, the buffered chunks re-apply
        inline (so no acked work is lost), and the dispatch raises
        :class:`WorkerCrashError` with nothing merged.
        """
        try:
            group = self._ensure_shm_group()
            stats = group.dispatch(batches, directive)
        except WorkerCrashError:
            self._recover_shm()
            raise
        except _WORKER_FAILURE_ERRORS as exc:
            self._recover_shm()
            raise WorkerCrashError(
                f"shm dispatch failed ({exc!r}) — worker group torn down, "
                "chunk not applied"
            ) from exc
        except BaseException:
            # Unknown failures (including KeyboardInterrupt) still tear
            # the group down — workers may be wedged and segments must
            # not leak — but surface unwrapped.
            self._recover_shm()
            raise
        self._shm_pending.append(batches)
        self.metrics.record_memo(*stats["memo"])
        self.metrics.record_sanitize(*stats["sanitize"])
        if len(self._shm_pending) >= SHM_SYNC_INTERVAL:
            self._sync_shm()

    def _sync_shm(self) -> None:
        """Pull worker delta states into the authoritative stores.

        After a successful sync the replay buffer is empty — everything
        acked so far is owned by the driver again.  A *failed* sync
        recovers the same way a failed dispatch does: tear down, replay
        the buffer inline; state stays exactly-once either way, so no
        error escapes.
        """
        group = self._shm_group
        if group is None:
            return
        try:
            stores, stats = group.sync()
        except (WorkerCrashError,) + _WORKER_FAILURE_ERRORS:
            self._recover_shm()
            return
        except BaseException:
            self._recover_shm()
            raise
        for shard, delta in enumerate(stores):
            if delta is not None:
                self._stores[shard].merge(delta)
        self._shm_pending.clear()
        self.metrics.record_memo(*stats["memo"])
        self.metrics.record_sanitize(*stats["sanitize"])

    def _recover_shm(self, count_restart: bool = True) -> None:
        """Tear the worker group down and replay its un-synced chunks.

        Worker-local delta stores die with the group (they may hold a
        partial application of the failing chunk), so every *acked*
        chunk since the last sync re-applies inline from the driver's
        buffer — per-shard order preserved, cluster merges commutative,
        result identical.  The memo/sanitize counters the replay
        generates driver-side are drained and discarded: the workers
        already reported those chunks' counters through the shared
        accumulator.
        """
        group, self._shm_group = self._shm_group, None
        if group is not None:
            group.shutdown(kill=True)
            if count_restart:
                self.metrics.record_worker_restart()
        if self._shm_pending:
            pending, self._shm_pending = self._shm_pending, []
            for batches in pending:
                for shard, batch in enumerate(batches):
                    self._stores[shard].apply_packed(batch, self.table)
            take = getattr(self.table, "take_memo_stats", None)
            if take is not None:
                take()
            if _sanitize.is_enabled():
                _sanitize.take_stats()

    def release_shm(self) -> None:
        """Shut the shm worker group down hard, keeping every acked
        chunk (replayed inline from the buffer) and unlinking every
        segment.  Idempotent; the quarantine/degrade paths call this so
        a failed run can never leak shared memory."""
        self._recover_shm(count_restart=False)

    def _drain_inline_memo_stats(self) -> None:
        """Move this process's memo counters into the metrics (inline
        ingestion resolves against ``self.table`` directly, so any
        :class:`~repro.engine.fastpath.MemoizedLookup` counts here)."""
        take = getattr(self.table, "take_memo_stats", None)
        if take is not None:
            self.metrics.record_memo(*take())
        if _sanitize.is_enabled():
            self.metrics.record_sanitize(*_sanitize.take_stats())

    @staticmethod
    def _partition(
        triples: Sequence[Triple], num_shards: int
    ) -> List[List[Triple]]:
        batches: List[List[Triple]] = [[] for _ in range(num_shards)]
        for triple in triples:
            batches[shard_of(triple[0], num_shards)].append(triple)
        return batches

    def _execute_inline_directive(
        self, directive: Tuple[int, str, float]
    ) -> None:
        """Honour an armed worker fault without worker processes.

        Inline mode cannot survive a literal ``os._exit``, so
        ``worker.die`` degrades to the same clean failure as
        ``worker.crash`` — raised *before* any state is touched, keeping
        the chunk atomic.  ``worker.slow`` just sleeps.
        """
        _, site, arg = directive
        if site == SITE_WORKER_SLOW:
            time.sleep(arg)
            return
        raise WorkerCrashError(
            f"injected inline worker fault ({site}) — chunk not applied"
        )

    # -- observation -----------------------------------------------------

    def snapshot(self, name: Optional[str] = None) -> ClusterSet:
        """Merge all shards into one :class:`ClusterSet` (non-destructive)."""
        self._sync_shm()
        combined = ClusterStore()
        for store in self._stores:
            combined.merge(store.copy())
        return combined.snapshot(
            name=name if name is not None else self.config.name,
            method="network-aware",
        )

    @property
    def entries_ingested(self) -> int:
        self._sync_shm()
        return sum(store.entries_applied for store in self._stores)

    # -- persistence -----------------------------------------------------

    def checkpoint(
        self, path: str, extra_meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write all shard states plus run metadata to ``path``.

        ``extra_meta`` entries are merged into the checkpoint's meta
        dict; the CLI uses this to record which log was being ingested
        and how far through it the run had got, so a resumed run can
        skip the already-counted prefix.
        """
        self._sync_shm()
        meta = {
            "num_shards": self.config.num_shards,
            "chunk_size": self.config.chunk_size,
            "name": self.config.name,
            "entries_ingested": self.entries_ingested,
        }
        if extra_meta:
            meta.update(extra_meta)
        write_checkpoint(
            path,
            self._stores,
            table_digest=self.table.digest(),
            meta=meta,
            routing_epoch=int(getattr(self.table, "epoch", 0)),
            deltas_applied=int(getattr(self.table, "deltas_applied", 0)),
        )
        self.metrics.record_checkpoint()
        if _sanitize.is_enabled():
            # The write itself performed (and counted) a read-back.
            self.metrics.record_sanitize(*_sanitize.take_stats())

    @classmethod
    def resume(
        cls,
        path: str,
        table: PackedLpm,
        config: Optional[EngineConfig] = None,
        metrics: Optional[EngineMetrics] = None,
        injector: Optional[FaultInjector] = None,
    ) -> "ShardedClusterEngine":
        """Rebuild an engine from a checkpoint and keep ingesting.

        The checkpoint must have been taken against a table with the
        same prefix set (digest match).  A
        different shard count than the checkpoint's is allowed — shard
        states merge into the new layout without changing aggregate
        results, since all statistics are order- and
        placement-independent.  Note the remapping is ``old_shard %
        num_shards``, not a re-partition by :func:`shard_of`: after a
        reshard resume the *per-shard attribution* of restored state is
        arbitrary (restored clients need not live on the shard
        ``shard_of`` would pick), so only aggregate snapshots — not any
        future placement-dependent accounting — should be read off the
        restored stores.  Shard-skew metrics are unaffected either way:
        they are computed from post-resume batch sizes only.

        The checkpoint's meta dict is kept on the returned engine as
        ``resume_meta``.
        """
        stores, meta = read_checkpoint(path, table_digest=table.digest())
        if config is None:
            config = EngineConfig(
                num_shards=int(meta.get("num_shards", len(stores)) or 1),
                chunk_size=int(meta.get("chunk_size", 8192) or 8192),
                name=str(meta.get("name", "engine")),
            )
        engine = cls(table, config, metrics, injector=injector)
        if len(stores) == config.num_shards:
            engine._stores = stores
        else:
            for shard, store in enumerate(stores):
                engine._stores[shard % config.num_shards].merge(store)
        engine.resume_meta = dict(meta)
        return engine


def _chunks(items: Iterable[Any], size: int) -> Iterator[List[Any]]:
    """Yield lists of up to ``size`` items from any iterable."""
    iterator = iter(items)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk
