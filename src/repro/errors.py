"""The structured error taxonomy for pipeline robustness.

The ingestion pipeline distinguishes two broad failure families, and
recovery code keys off the *class*, not the message:

* **Persistent-state failures** — a checkpoint file that is truncated,
  bit-flipped, foreign, or from an incompatible format version.  These
  subclass :class:`CheckpointError`; :class:`CheckpointCorruptError`
  means the bytes on disk are damaged (retryable by rewriting, never by
  rereading), while :class:`CheckpointVersionError` means the file is
  intact but this build cannot read it (not retryable at all — the
  operator must migrate or discard it).
* **Dirty input** — malformed log or routing-dump lines.  These are
  counted-and-skipped (see ``weblog.parser.ParseReport`` and
  ``bgp.formats.DumpReport``); a log stream raises
  ``weblog.parser.ParseLimitError`` only when an explicit
  ``max_errors`` budget is exhausted.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointTableMismatchError",
    "ServeProtocolError",
    "ServeLineTooLongError",
    "ServeDisconnectError",
    "WalError",
    "WalCorruptError",
    "WalSealedError",
    "WalSyncError",
    "InjectedFault",
    "SanitizeError",
]


class ReproError(Exception):
    """Base class for every structured error this package raises."""


# -- persistent state ------------------------------------------------------


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, foreign, damaged, or unreadable.

    Base of the checkpoint family: catching this catches every
    checkpoint failure; catch the subclasses to react differently to
    corruption versus version skew.  (Subclasses ``RuntimeError`` for
    compatibility with pre-taxonomy callers.)
    """


class CheckpointCorruptError(CheckpointError):
    """The checkpoint's bytes are damaged: truncated, bit-flipped, or
    not a checkpoint at all.  The file can never be read successfully;
    recovery means rewriting it (or resuming from an older one)."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint is intact but written by an incompatible format
    version (older or newer than this build reads)."""


class CheckpointTableMismatchError(CheckpointError):
    """The checkpoint was taken against a different routing table than
    the one the resume supplies."""


# -- live serving ----------------------------------------------------------


class ServeProtocolError(ReproError, ValueError):
    """An ndjson event on the serve stream does not decode.

    Raised by :mod:`repro.serve.protocol` for lines that are not JSON
    objects, carry an unknown ``type``, or are missing required fields.
    The daemon counts-and-skips these under its ``--max-errors`` budget,
    exactly as the batch pipeline treats malformed log lines.
    """


class ServeLineTooLongError(ServeProtocolError):
    """An event line exceeded the stream's line-length budget.

    Raised by :class:`repro.serve.protocol.LineSplitter` when a line
    grows past ``max_line_bytes`` — whether or not its newline ever
    arrives, so a hostile or broken client cannot balloon daemon memory
    by never terminating a line.  The oversized line's bytes are
    discarded and the error is counted under ``--max-errors``.
    """


class ServeDisconnectError(ServeProtocolError):
    """A serve client vanished mid-frame.

    The connection dropped (reset, or an injected ``serve.disconnect``)
    while a partial event line was still buffered.  The torn frame is
    discarded and counted under ``--max-errors``; the accept loop keeps
    serving — daemon state persists across connections.
    """


# -- write-ahead log -------------------------------------------------------


class WalError(ReproError, RuntimeError):
    """Base of the write-ahead-log family (:mod:`repro.serve.wal`)."""


class WalCorruptError(WalError):
    """The WAL's bytes are damaged beyond the torn-tail rule.

    A torn *tail* — an incomplete or CRC-failing frame at the very end
    of the newest segment — is expected after a crash and is repaired
    silently (truncate at the first bad frame, count it).  This error
    means something worse: a bad frame in the *middle* of the log, a
    segment with a mangled header, a gap in the segment sequence, or
    event frames after a seal.  Recovery cannot trust anything past the
    damage, so the daemon refuses to resume from it.
    """


class WalSealedError(WalError):
    """An append was attempted on a sealed write-ahead log.

    :meth:`~repro.serve.wal.WalWriter.seal` marks a graceful shutdown;
    a sealed writer accepts no further frames.  Resuming a sealed log
    from disk is fine — recovery starts a fresh segment — but the
    in-process writer object is done for good.
    """


class WalSyncError(WalError):
    """An ``fsync`` of the write-ahead log failed.

    The frames it was to make durable were already handed to the
    kernel, and after a failed ``fsync`` Linux may have dropped their
    dirty pages and marked them clean, so a second ``fsync`` can
    succeed without the bytes ever reaching the disk.  Nothing about
    the log's durable extent is known any more: the append that saw
    this is not retried, and the daemon stops.
    """


# -- fault injection -------------------------------------------------------


class InjectedFault(ReproError, RuntimeError):
    """An artificial failure raised by :mod:`repro.faults`.

    Recovery code must classify it by injection site, exactly as it
    would a real fault, and anything that escapes uncaught is a test
    failure.
    """

    def __init__(self, site: str, message: str = "") -> None:
        super().__init__(message or f"injected fault at {site!r}")
        self.site = site


# -- runtime sanitizers ----------------------------------------------------


class SanitizeError(ReproError, RuntimeError):
    """A ``REPRO_SANITIZE=1`` invariant check failed at runtime.

    Raised by :mod:`repro.analysis.sanitize` when an armed invariant —
    a stride/packed LPM cross-check, a :class:`PackedBatch` consistency
    guard — observes a violation.  This is never a data error: it means
    the engine's own internal contracts drifted, so the run must stop
    rather than produce silently wrong clusters.
    """

