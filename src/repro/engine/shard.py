"""Batched ingestion into one cluster store, in one process.

Ingestion is chunked: each chunk of request triples folds into the
engine's one :class:`~repro.engine.state.ClusterStore` through a single
:meth:`~repro.engine.state.ClusterStore.apply_batch`, and
:meth:`ShardedClusterEngine.snapshot` materialises that store directly
— so results are bit-for-bit deterministic and identical to the
single-pass :func:`repro.core.clustering.cluster_log` on the same input,
whatever the chunk size.

A checkpoint holds that one store.  Resuming from an older checkpoint
that holds several (written when the engine still partitioned its state
into per-shard stores) merges them into the one store; every statistic
is order- and placement-independent, so the report is unchanged.  Every
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

__all__ = ["EngineConfig", "ShardedClusterEngine"]

#: One request: (client address, url, response bytes).
Triple = Tuple[int, str, int]


@dataclass
class EngineConfig:
    """Tunables for one engine run."""

    #: The engine holds one store whatever this says; only the check
    #: below reads it.  ``bench/workloads.py`` still passes
    #: ``num_shards=2`` (goes with ROADMAP item 1).
    num_shards: int = 1
    chunk_size: int = 8192
    name: str = "engine"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1: {self.num_shards!r}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {self.chunk_size!r}")


class ShardedClusterEngine:
    """Streaming clustering over a packed table into one store.

    Usage::

        packed = PackedLpm.from_merged(merged_table)
        with ShardedClusterEngine(packed, EngineConfig()) as eng:
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
        self.store = ClusterStore()
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

        Triples are chunked to ``config.chunk_size`` and each chunk is
        folded into the store as it comes; returns the number of
        triples ingested in this call.
        """
        total = 0
        for chunk in _chunks(triples, self.config.chunk_size):
            total += self._dispatch(chunk)
        return total

    #: The same method under its older names, which the bench tracer
    #: (``bench/child.py``) still patches (goes with ROADMAP item 1).
    ingest_triples = apply_chunk = ingest

    def _dispatch(self, triples: Sequence[Triple]) -> int:
        began = time.perf_counter()
        applied = self.store.apply_batch(triples, self.table)
        self._drain_memo_stats()
        self.metrics.record_batch(applied, time.perf_counter() - began, applied)
        return applied

    def _drain_memo_stats(self) -> None:
        """Move the table's memo counters into the metrics (chunks
        resolve against ``self.table`` directly, so any
        :class:`~repro.engine.fastpath.MemoizedLookup` counts here)."""
        take = getattr(self.table, "take_memo_stats", None)
        if take is not None:
            self.metrics.record_memo(*take())
        if _sanitize.is_enabled():
            self.metrics.record_sanitize(*_sanitize.take_stats())

    # -- observation -----------------------------------------------------

    def snapshot(self, name: Optional[str] = None) -> ClusterSet:
        """The store's clusters as one :class:`ClusterSet`
        (non-destructive)."""
        return self.store.snapshot(
            name=name if name is not None else self.config.name,
            method="network-aware",
        )

    @property
    def entries_ingested(self) -> int:
        return self.store.entries_applied

    # -- persistence -----------------------------------------------------

    def checkpoint(
        self, path: str, extra_meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write the store plus run metadata to ``path`` and prove the
        file reads back, rewriting it if it does not
        (:func:`~repro.engine.state.write_verified_checkpoint`).

        ``extra_meta`` entries are merged into the checkpoint's meta
        dict; the CLI uses this to record which log was being ingested
        and how far through it the run had got, so a resumed run can
        skip the already-counted prefix.
        """
        meta = {
            # The number of stores in the file, which older builds read
            # back as their shard count.
            "num_shards": 1,
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
                [self.store],
                table_digest=digest,
                meta=meta,
                routing_epoch=int(getattr(self.table, "epoch", 0)),
                deltas_applied=int(getattr(self.table, "deltas_applied", 0)),
            )
            if _sanitize.is_enabled():
                # The write itself performed (and counted) a read-back.
                self.metrics.record_sanitize(*_sanitize.take_stats())

        write_verified_checkpoint(
            path, write, digest, self.injector, self.metrics
        )
        # Counted once it verifies: a rewrite is one more attempt at the
        # same checkpoint, not another checkpoint.
        self.metrics.record_checkpoint()

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
        same prefix set (digest match).  However many stores the file
        holds — older builds wrote one per shard — they merge into the
        engine's one store; all statistics are order- and
        placement-independent, so the report does not change.

        The checkpoint's meta dict is kept on the returned engine as
        ``resume_meta``.
        """
        stores, meta = read_checkpoint(path, table_digest=table.digest())
        if config is None:
            config = EngineConfig(
                chunk_size=int(meta.get("chunk_size", 8192) or 8192),
                name=str(meta.get("name", "engine")),
            )
        engine = cls(table, config, metrics, injector=injector)
        for store in stores:
            engine.store.merge(store)
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
