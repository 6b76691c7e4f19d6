"""Runtime sanitizers for the engine hot paths (``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.analysis.xmodule` prove what they can
about cross-module contracts *without running the code*; this module is
the runtime half of the same bargain.  With ``REPRO_SANITIZE=1`` in the
environment the engine arms invariant checks inside its hot paths:

* **batch guards** — every :class:`~repro.engine.fastpath.PackedBatch`
  applied to a store is checked for parallel-array consistency and
  URL-id bounds before its entries are folded in;
* **LPM cross-checks** — a sampled fraction of
  :meth:`StrideLpm.lookup_many` calls is recomputed through the packed
  binary-search path and the index vectors compared, catching any
  drift between the stride index and the intervals it accelerates;
* **checkpoint read-backs** — every checkpoint write is immediately
  re-read and re-verified through the same CRC/version envelope the
  resume path uses.

A failed invariant raises :class:`repro.errors.SanitizeError` — the run
stops instead of producing silently wrong clusters.  Passing checks are
*counted*, drained with :func:`take_stats` at the same seam that drains
memo statistics (after each applied chunk), and surfaced through
``EngineMetrics`` so ``--metrics`` shows the sanitizers actually ran.

The mode is off by default and the disabled cost is one ``is_enabled()``
call per *batch* (never per address): the fast path stays fast.  The
environment variable is read at import time; tests flip the already-
imported module with :func:`set_enabled`.
"""

from __future__ import annotations

import os
from typing import Any, Tuple

from repro.errors import SanitizeError

__all__ = [
    "ENV_VAR",
    "CROSSCHECK_INTERVAL",
    "SanitizerStats",
    "is_enabled",
    "set_enabled",
    "take_stats",
    "guard_batch",
    "crosscheck_due",
    "record_crosscheck",
    "record_checkpoint_readback",
]

#: Environment variable that arms the sanitizers ("1"/"true"/"on").
ENV_VAR = "REPRO_SANITIZE"

#: One in this many ``StrideLpm.lookup_many`` calls is cross-checked
#: against the packed binary-search path (the first call always is, so
#: even tiny runs exercise the comparison at least once).
CROSSCHECK_INTERVAL = 16

_FALSEY = ("", "0", "false", "off", "no")


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSEY


_ENABLED = _env_enabled()


class SanitizerStats:
    """Process-local counters for the armed invariant checks.

    The engine drains them after every applied chunk and checkpoint
    write.  ``crosscheck_clock`` is the sampling clock, monotonic for
    the life of the process — it is deliberately *not* reset by
    :meth:`take` so the sampling cadence is independent of drain timing.
    """

    __slots__ = (
        "batch_checks",
        "lpm_crosschecks",
        "checkpoint_readbacks",
        "crosscheck_clock",
    )

    def __init__(self) -> None:
        self.batch_checks = 0
        self.lpm_crosschecks = 0
        self.checkpoint_readbacks = 0
        self.crosscheck_clock = 0

    def take(self) -> Tuple[int, int, int]:
        """Return and reset the three drain counters."""
        drained = (
            self.batch_checks,
            self.lpm_crosschecks,
            self.checkpoint_readbacks,
        )
        self.batch_checks = 0
        self.lpm_crosschecks = 0
        self.checkpoint_readbacks = 0
        return drained


_STATS = SanitizerStats()


def is_enabled() -> bool:
    """Is the sanitize mode armed in this process?"""
    return _ENABLED


def set_enabled(enabled: bool) -> bool:
    """Arm or disarm the sanitizers; returns the previous setting.

    For tests: the environment variable only matters at import time, so
    an already-imported module is flipped through here.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def take_stats() -> Tuple[int, int, int]:
    """Drain this process's sanitize counters.

    Returns ``(batch_checks, lpm_crosschecks, checkpoint_readbacks)`` —
    the argument order of ``EngineMetrics.record_sanitize``.  All zeros
    when disabled.
    """
    return _STATS.take()


# -- invariant checks -------------------------------------------------------


def guard_batch(batch: Any) -> None:
    """Check a ``PackedBatch`` for internal consistency before apply.

    A packed batch carries three parallel arrays plus an interned URL
    list; a frozen batch that has been mutated (or a packing bug) shows
    up as a length mismatch or an out-of-range URL id — exactly the
    drift ``zip`` would otherwise truncate silently.
    """
    length = len(batch.addresses)
    if len(batch.sizes) != length or len(batch.url_ids) != length:
        raise SanitizeError(
            "PackedBatch parallel arrays disagree: "
            f"{length} addresses, {len(batch.sizes)} sizes, "
            f"{len(batch.url_ids)} url_ids"
        )
    if length:
        highest = max(batch.url_ids)
        if highest >= len(batch.urls):
            raise SanitizeError(
                f"PackedBatch url_id {highest} out of range for "
                f"{len(batch.urls)} interned urls"
            )
    _STATS.batch_checks += 1


def crosscheck_due() -> bool:
    """Advance the sampling clock; ``True`` on sampled calls.

    The first call in a process is always due, then every
    :data:`CROSSCHECK_INTERVAL`-th call after it.
    """
    _STATS.crosscheck_clock += 1
    return _STATS.crosscheck_clock % CROSSCHECK_INTERVAL == 1


def record_crosscheck() -> None:
    """Count one passed stride/packed LPM cross-check."""
    _STATS.lpm_crosschecks += 1


def record_checkpoint_readback() -> None:
    """Count one passed checkpoint read-back-after-write."""
    _STATS.checkpoint_readbacks += 1

