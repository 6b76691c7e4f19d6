"""Sharded, batched ingestion in one process.

Client addresses are hash-partitioned across N shards with a fixed
multiplicative hash (stable across processes and Python versions — no
``hash()``/``PYTHONHASHSEED`` dependence), so the same client always
lands on the same shard.  Ingestion is chunked: each chunk is split
into per-shard batches, each batch folds into its shard's
:class:`~repro.engine.state.ClusterStore`, and the stores merge in
shard order on :meth:`ShardedClusterEngine.snapshot` — so results are
bit-for-bit deterministic and identical to the single-pass
:func:`repro.core.clustering.cluster_log` on the same input, whatever
the shard count or chunk size.

Everything runs in the calling process.  Shards are a partition of
the state, not of the work: a checkpoint keeps one store per shard,
and resuming under a different shard count merges them.  Every
checkpoint is read back after it is written and rewritten if it does
not verify (:func:`~repro.engine.state.write_verified_checkpoint`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.analysis import sanitize as _sanitize
from repro.core.clustering import ClusterSet
from repro.engine.metrics import EngineMetrics
from repro.engine.packed import PackedLpm
from repro.engine.state import (
    ClusterStore, read_checkpoint, write_checkpoint, write_verified_checkpoint,
)
from repro.faults import FaultInjector

__all__ = ["shard_of", "EngineConfig", "ShardedClusterEngine"]

#: Knuth's multiplicative constant; scrambles allocation-correlated
#: address bits so CIDR-dense logs still spread evenly across shards.
_HASH_MULTIPLIER = 0x9E3779B1
_HASH_MASK = 0xFFFFFFFF

#: One request: (client address, url, response bytes).
Triple = Tuple[int, str, int]


def shard_of(address: int, num_shards: int) -> int:
    """Deterministic shard assignment for a client address."""
    return ((address * _HASH_MULTIPLIER) & _HASH_MASK) % num_shards


@dataclass
class EngineConfig:
    """Tunables for one engine run."""

    num_shards: int = 1
    chunk_size: int = 8192
    name: str = "engine"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1: {self.num_shards!r}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {self.chunk_size!r}")


class ShardedClusterEngine:
    """Streaming clustering over a packed table into sharded stores.

    Usage::

        packed = PackedLpm.from_merged(merged_table)
        with ShardedClusterEngine(packed, EngineConfig(num_shards=4)) as eng:
            eng.ingest(triples)           # (client, url, size) tuples
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
        #: Optional fault injector (chaos testing): its checkpoint
        #: faults damage each file :meth:`checkpoint` writes.
        self.injector = injector
        self._stores: List[ClusterStore] = [
            ClusterStore() for _ in range(self.config.num_shards)
        ]
        #: Checkpoint metadata this engine was restored from ({} when the
        #: engine started fresh); see :meth:`resume`.
        self.resume_meta: Dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ShardedClusterEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """End the run.  The engine holds no process, file or segment,
        so there is nothing to release; kept so callers can scope a run
        with ``with``."""

    # -- ingestion -------------------------------------------------------

    def ingest(self, triples: Iterable[Triple]) -> int:
        """Consume request triples ``(client, url, size)``.

        Triples are chunked to ``config.chunk_size``, each chunk is
        partitioned by client shard and applied as it is; returns the
        number of triples ingested in this call.
        """
        total = 0
        for chunk in _chunks(triples, self.config.chunk_size):
            total += self._dispatch(chunk)
        return total

    #: The same method under its older names, which the bench tracer
    #: (``bench/child.py``) still patches (goes with ROADMAP item 1).
    ingest_triples = apply_chunk = ingest

    def _dispatch(self, triples: Sequence[Triple]) -> int:
        num_shards = self.config.num_shards
        began = time.perf_counter()
        if num_shards == 1:
            self._stores[0].apply_batch(triples, self.table)
            counts = [len(triples)]
        else:
            batches = self._partition(triples, num_shards)
            counts = [len(batch) for batch in batches]
            for shard, batch in enumerate(batches):
                self._stores[shard].apply_batch(batch, self.table)
        self._drain_memo_stats()
        elapsed = time.perf_counter() - began
        self.metrics.record_batch(counts, elapsed, lookups=len(triples))
        return len(triples)

    def _drain_memo_stats(self) -> None:
        """Move the table's memo counters into the metrics (chunks
        resolve against ``self.table`` directly, so any
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

    # -- observation -----------------------------------------------------

    def snapshot(self, name: Optional[str] = None) -> ClusterSet:
        """Merge all shards into one :class:`ClusterSet` (non-destructive).

        One store snapshots directly; several are copied before they
        merge, because :meth:`ClusterStore.merge` adopts states by
        reference.
        """
        if len(self._stores) == 1:
            combined = self._stores[0]
        else:
            combined = ClusterStore()
            for store in self._stores:
                combined.merge(store.copy())
        return combined.snapshot(
            name=name if name is not None else self.config.name,
            method="network-aware",
        )

    @property
    def entries_ingested(self) -> int:
        return sum(store.entries_applied for store in self._stores)

    # -- persistence -----------------------------------------------------

    def checkpoint(
        self, path: str, extra_meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write all shard states plus run metadata to ``path`` and
        prove the file reads back, rewriting it if it does not
        (:func:`~repro.engine.state.write_verified_checkpoint`).

        ``extra_meta`` entries are merged into the checkpoint's meta
        dict; the CLI uses this to record which log was being ingested
        and how far through it the run had got, so a resumed run can
        skip the already-counted prefix.
        """
        meta = {
            "num_shards": self.config.num_shards,
            "chunk_size": self.config.chunk_size,
            "name": self.config.name,
            "entries_ingested": self.entries_ingested,
        }
        if extra_meta:
            meta.update(extra_meta)
        digest = self.table.digest()

        def write() -> None:
            write_checkpoint(
                path,
                self._stores,
                table_digest=digest,
                meta=meta,
                routing_epoch=int(getattr(self.table, "epoch", 0)),
                deltas_applied=int(getattr(self.table, "deltas_applied", 0)),
            )
            self.metrics.record_checkpoint()
            if _sanitize.is_enabled():
                # The write itself performed (and counted) a read-back.
                self.metrics.record_sanitize(*_sanitize.take_stats())

        write_verified_checkpoint(
            path, write, digest, self.injector, self.metrics
        )

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
