"""Supervision: retries, backoff, quarantine, verified checkpoints.

:class:`SupervisedEngine` wraps a
:class:`~repro.engine.shard.ShardedClusterEngine` and turns its
all-or-nothing chunk guarantee into a recovery policy:

* a failed chunk (an injected worker fault) is re-applied with
  bounded retries and exponential backoff — a failed attempt applied
  nothing, so a retry cannot double-count;
* a chunk that exhausts ``max_retries`` is **quarantined**: its triples
  go to a dead-letter file (JSON lines, replayable) and the loss is
  accounted in :class:`~repro.engine.metrics.EngineMetrics` — one
  poisonous chunk cannot abort a multi-hour run;
* checkpoints are **verified after writing**: the supervisor reads the
  file straight back, and a checkpoint that fails its CRC (bad disk,
  injected corruption) is rewritten instead of being discovered — as a
  resume failure — hours later.

The happy path adds one try/except per chunk.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.core.clustering import ClusterSet
from repro.engine.metrics import EngineMetrics
from repro.engine.shard import ShardedClusterEngine, Triple, _chunks
from repro.engine.state import write_verified_checkpoint
from repro.errors import WorkerCrashError

__all__ = ["SupervisorConfig", "SupervisedEngine"]

#: The longest one retry sleeps, whatever ``backoff_base`` doubles to.
BACKOFF_CAP_SECONDS = 5.0


@dataclass
class SupervisorConfig:
    """Recovery policy knobs.

    ``max_retries`` counts *re*-dispatches of one chunk after its first
    failure.  Retry ``n`` sleeps ``backoff_base * 2**(n-1)`` seconds,
    capped at :data:`BACKOFF_CAP_SECONDS` (tests pass
    ``backoff_base=0``).  ``quarantine_path=None`` still quarantines —
    counted in metrics — but keeps nothing on disk.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    quarantine_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries!r}")
        if self.backoff_base < 0:
            raise ValueError("backoff must be >= 0")

    def backoff_seconds(self, retry: int) -> float:
        """Sleep before retry ``retry`` (1-based): exponential, capped."""
        if self.backoff_base <= 0:
            return 0.0
        # 2**1023 is the largest power of two a float holds; a larger
        # int exponent would overflow before the cap applies.
        doublings = min(retry - 1, 1023)
        return min(BACKOFF_CAP_SECONDS, self.backoff_base * 2 ** doublings)


class SupervisedEngine:
    """A :class:`ShardedClusterEngine` that survives failed chunks.

    Usage mirrors the raw engine::

        with SupervisedEngine(engine, SupervisorConfig(max_retries=3)) as sup:
            sup.ingest(triples)
            clusters = sup.snapshot()

    ``sleep`` is injectable so tests can assert the backoff schedule
    without waiting it out.
    """

    def __init__(
        self,
        engine: ShardedClusterEngine,
        config: Optional[SupervisorConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.engine = engine
        self.config = config or SupervisorConfig()
        self._sleep = sleep
        self._chunk_index = 0

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "SupervisedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.engine.__exit__(*exc_info)

    def close(self) -> None:
        self.engine.close()

    # -- delegation ------------------------------------------------------

    @property
    def metrics(self) -> EngineMetrics:
        return self.engine.metrics

    @property
    def entries_ingested(self) -> int:
        return self.engine.entries_ingested

    @property
    def resume_meta(self) -> Dict[str, Any]:
        return self.engine.resume_meta

    def snapshot(self, name: Optional[str] = None) -> ClusterSet:
        return self.engine.snapshot(name)

    # -- supervised ingestion --------------------------------------------

    def ingest(self, triples: Iterable[Triple]) -> int:
        """Consume request triples ``(client, url, size)`` with the full
        recovery policy applied.

        Returns the number of triples *applied*; quarantined triples
        are excluded here and counted in
        ``metrics.entries_quarantined``.
        """
        total = 0
        for chunk in _chunks(triples, self.engine.config.chunk_size):
            total += self._apply_with_recovery(chunk)
        return total

    #: The same method under its older name, which callers and the
    #: bench tracer (``bench/child.py``) still use.
    ingest_triples = ingest

    def _apply_with_recovery(self, chunk: Sequence[Triple]) -> int:
        """Apply one chunk: retry, then quarantine.

        Safe because :meth:`ShardedClusterEngine.apply_chunk` is
        all-or-nothing: a failed attempt applied nothing, so the same
        chunk can be re-applied without double counting.
        """
        self._chunk_index += 1
        attempts = 0
        while True:
            try:
                return self.engine.apply_chunk(chunk)
            except WorkerCrashError as exc:
                attempts += 1
                if attempts <= self.config.max_retries:
                    self.metrics.record_retry()
                    self._sleep(self.config.backoff_seconds(attempts))
                    continue
                self._quarantine(chunk, exc)
                return 0

    def _quarantine(self, chunk: Sequence[Triple], cause: Exception) -> None:
        """Send ``chunk`` to the dead-letter file with full accounting."""
        self.metrics.record_quarantine(len(chunk))
        if self.config.quarantine_path is None:
            return
        record = {
            "chunk": self._chunk_index,
            "entries": len(chunk),
            "error": str(cause),
            "triples": [[client, url, size] for client, url, size in chunk],
        }
        with open(self.config.quarantine_path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    # -- verified checkpoints --------------------------------------------

    def checkpoint(
        self, path: str, extra_meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write a checkpoint and prove it reads back
        (:func:`~repro.engine.state.write_verified_checkpoint`)."""
        write_verified_checkpoint(
            path,
            lambda: self.engine.checkpoint(path, extra_meta=extra_meta),
            self.engine.table.digest(),
            self.engine.injector,
            self.metrics,
        )
