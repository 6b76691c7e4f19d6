"""Supervision: retries, backoff, quarantine, graceful degradation.

:class:`SupervisedEngine` wraps a
:class:`~repro.engine.shard.ShardedClusterEngine` and turns its
all-or-nothing chunk guarantee into a recovery policy:

* a failed chunk (worker exception, dead worker, dispatch hang) is
  re-dispatched with bounded retries and exponential backoff — the
  engine already tore the broken worker group down, so each retry
  starts a fresh one;
* a chunk that exhausts ``max_retries`` is **quarantined**: its triples
  go to a dead-letter file (JSON lines, replayable) and the loss is
  accounted in :class:`~repro.engine.metrics.EngineMetrics` — one
  poisonous chunk cannot abort a multi-hour run;
* when failures are *consecutive* — the workers keep dying no matter
  what we dispatch — the supervisor **degrades**: it abandons worker
  processes and finishes the run inline in the driver.  Degraded output
  is bit-for-bit identical to a healthy run (same code path the tests
  use), just slower; a :class:`~repro.errors.DegradedModeWarning` and
  ``metrics.degraded`` record that it happened.
* checkpoints are **verified after writing**: the supervisor reads the
  file straight back, and a checkpoint that fails its CRC (bad disk,
  injected corruption) is rewritten instead of being discovered — as a
  resume failure — hours later.

The happy path adds one try/except and one counter reset per chunk.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.core.clustering import ClusterSet
from repro.engine.metrics import EngineMetrics
from repro.engine.shard import ShardedClusterEngine, Triple, _chunks
from repro.engine.state import write_verified_checkpoint
from repro.errors import (
    ChunkQuarantinedError,
    DegradedModeWarning,
    SupervisionError,
    WorkerCrashError,
)

__all__ = ["SupervisorConfig", "SupervisedEngine"]


@dataclass
class SupervisorConfig:
    """Recovery policy knobs.

    ``max_retries`` counts *re*-dispatches of one chunk after its first
    failure.  Retry ``n`` sleeps ``backoff_base * 2**(n-1)`` seconds,
    capped at ``backoff_cap`` (tests pass ``backoff_base=0``).
    ``degrade_after`` is the consecutive-failure threshold at which the
    pool is declared unsalvageable; ``allow_degraded=False`` turns that
    safety net off (CLI ``--no-degrade``).  ``quarantine_path=None``
    still quarantines — counted in metrics — but keeps nothing on disk;
    ``allow_quarantine=False`` makes an exhausted chunk fatal instead.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    degrade_after: int = 3
    allow_degraded: bool = True
    quarantine_path: Optional[str] = None
    allow_quarantine: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries!r}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be >= 0")
        if self.degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1: {self.degrade_after!r}"
            )

    def backoff_seconds(self, retry: int) -> float:
        """Sleep before retry ``retry`` (1-based): exponential, capped."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** (retry - 1))


class SupervisedEngine:
    """A :class:`ShardedClusterEngine` that survives its own workers.

    Usage mirrors the raw engine::

        with SupervisedEngine(engine, SupervisorConfig(max_retries=3)) as sup:
            sup.ingest(entries)
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
        #: Checkpoint-site faults stay armed even after degradation
        #: clears the engine's worker-fault injector.
        self._injector = engine.injector
        self._consecutive_failures = 0
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
    def degraded(self) -> bool:
        return self.engine.metrics.degraded

    @property
    def resume_meta(self) -> Dict[str, Any]:
        return self.engine.resume_meta

    def snapshot(self, name: Optional[str] = None) -> ClusterSet:
        return self.engine.snapshot(name)

    # -- supervised ingestion --------------------------------------------

    def ingest(self, entries: Iterable[Any]) -> int:
        """Consume log entries with the full recovery policy applied.

        Returns the number of entries *applied*; quarantined entries
        are excluded here and counted in
        ``metrics.entries_quarantined``.
        """
        total = 0
        for chunk in _chunks(entries, self.engine.config.chunk_size):
            total += self._apply_with_recovery(
                [(entry.client, entry.url, entry.size) for entry in chunk]
            )
        return total

    def ingest_triples(self, triples: Iterable[Triple]) -> int:
        total = 0
        for chunk in _chunks(triples, self.engine.config.chunk_size):
            total += self._apply_with_recovery(chunk)
        return total

    def _apply_with_recovery(self, chunk: Sequence[Triple]) -> int:
        """Apply one chunk: retry → degrade → quarantine, in that order.

        Safe because :meth:`ShardedClusterEngine.apply_chunk` is
        all-or-nothing: a failed attempt applied nothing, so the same
        chunk can be re-dispatched (or re-applied inline after
        degradation) without double counting.
        """
        self._chunk_index += 1
        attempts = 0
        while True:
            try:
                applied = self.engine.apply_chunk(chunk)
                self._consecutive_failures = 0
                return applied
            except WorkerCrashError as exc:
                attempts += 1
                self._consecutive_failures += 1
                stalled = (
                    self._consecutive_failures >= self.config.degrade_after
                )
                if stalled and self.config.allow_degraded and not self.degraded:
                    self._degrade(exc)
                    continue
                if (
                    stalled
                    and not self.config.allow_degraded
                    and not self.config.allow_quarantine
                ):
                    # No recovery lever is left: the pool keeps dying
                    # and the operator disallowed both the inline
                    # fallback and dropping chunks.  Distinct from
                    # ChunkQuarantinedError (one poisonous chunk): this
                    # is the *run* being unable to make progress.
                    raise SupervisionError(
                        f"worker pool keeps dying "
                        f"({self._consecutive_failures} consecutive dispatch "
                        "failures) and both degraded fallback and quarantine "
                        "are disallowed"
                    ) from exc
                if attempts <= self.config.max_retries:
                    self.metrics.record_retry()
                    self._sleep(self.config.backoff_seconds(attempts))
                    continue
                if self.config.allow_quarantine:
                    self._quarantine(chunk, exc)
                    return 0
                raise ChunkQuarantinedError(
                    f"chunk #{self._chunk_index} failed "
                    f"{attempts} times and quarantine is disabled"
                ) from exc

    def _degrade(self, cause: WorkerCrashError) -> None:
        """Abandon worker processes; finish the run inline.

        The engine's accumulated shard state is untouched — only the
        dispatch mechanism changes — so the final snapshot is identical
        to what a healthy pooled run produces.
        """
        self.engine.close(terminate=True)
        self.engine.config.use_processes = False
        # Workers no longer exist, so worker faults can no longer fire.
        self.engine.injector = None
        self.metrics.record_degraded()
        warnings.warn(
            "worker pool keeps dying "
            f"({self._consecutive_failures} consecutive dispatch failures; "
            f"last: {cause}); degrading to inline single-process ingestion",
            DegradedModeWarning,
            stacklevel=3,
        )

    def _quarantine(self, chunk: Sequence[Triple], cause: Exception) -> None:
        """Send ``chunk`` to the dead-letter file with full accounting."""
        # A chunk that exhausted its retries means the shm worker group (if
        # one is live) has crashed repeatedly over this exact input: tear it
        # down and unlink its segments now rather than carrying suspect
        # workers into the next chunk.  The next dispatch re-publishes.
        self.engine.release_shm()
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
            self._injector,
            self.metrics,
        )
