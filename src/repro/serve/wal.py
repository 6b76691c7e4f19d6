"""Segmented, CRC32-framed write-ahead log for the serve daemon.

The daemon's original recovery story — "replay the identical stream
from event 0" — assumes the upstream can rewind, which a live socket
feed cannot.  The WAL removes that assumption: every *accepted* event
is appended here **before** it mutates daemon state, so the daemon's
state machine is always reconstructible from its newest checkpoint plus
the WAL tail, with no cooperation from the upstream at all.

On-disk format
--------------

A log is a directory of segment files, ``wal-00000000.seg``,
``wal-00000001.seg``, …  Each segment starts with a 17-byte header::

    magic      8 bytes   b"REPROWAL"
    version    1 byte    WAL_VERSION
    start      8 bytes   stream index of the segment's first frame (LE)

followed by frames.  A frame is::

    kind       1 byte    FRAME_EVENT or FRAME_SEAL
    length     4 bytes   payload length (LE)
    crc32      4 bytes   zlib.crc32 of the payload (LE)
    payload    ``length`` bytes (the event's canonical ndjson)

Appends go to the newest segment; when it crosses ``segment_bytes`` the
writer fsyncs, closes it, and opens the next.  ``fsync`` is batched:
one sync per ``sync_every`` appends (and always on rotate/seal), so
durability latency is tunable against throughput.

Recovery (:func:`recover_wal`) reads the segments in order.  A torn
*tail* — an incomplete or CRC-failing frame at the end of the newest
segment, exactly what a crash mid-append leaves — is repaired by
truncating the file at the last good frame and counted (one per torn
tail) so the daemon can report it.  Damage anywhere else — a bad frame
mid-log, a mangled segment header, a gap in the segment sequence, event
frames after a seal — raises
:class:`~repro.errors.WalCorruptError`: the log cannot be trusted past
that point and resuming from it would silently drop events.

A clean shutdown appends a zero-length ``FRAME_SEAL`` frame
(:meth:`WalWriter.seal`); recovery reports it so operators can
distinguish "crashed" from "drained".  Resuming a sealed log is legal —
recovery simply starts the next segment — but the in-process writer
refuses further appends with :class:`~repro.errors.WalSealedError`.

Checkpoints make the log finite: once a checkpoint covers stream index
``n``, every *closed* segment whose frames all precede ``n`` is deleted
(:meth:`WalWriter.truncate_covered`).  Disk pressure rides the same
lever — an ``ENOSPC`` append makes the daemon checkpoint, truncate, and
retry before giving up (see ``ServeDaemon._wal_append``).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import InjectedFault, WalCorruptError, WalSealedError
from repro.faults import (
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_WAL_TORN,
    FaultInjector,
)

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "FRAME_EVENT",
    "FRAME_SEAL",
    "encode_frame",
    "decode_frames",
    "WalRecovery",
    "WalWriter",
    "recover_wal",
]

WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 1

#: Lifecycle spec for ``repro-lint --flow``: every segment file opened
#: by the writer must reach ``close`` on all paths — a descriptor leaked
#: on an exception edge pins a partially-written segment that recovery
#: will later read as torn.
FLOW_SPECS = (
    {
        "rule": "resource-leak",
        "resource": "WAL segment file",
        "acquire": ("open",),
        "release_methods": ("close",),
        "modules": ("repro.serve.wal",),
    },
)

FRAME_EVENT = 0x45  # 'E'
FRAME_SEAL = 0x53  # 'S'

_FRAME_HEADER = struct.Struct("<BII")  # kind, payload length, payload crc32
_SEGMENT_HEADER = struct.Struct("<8sBQ")  # magic, version, start index

#: A frame longer than this cannot be legitimate (event lines are
#: ndjson, bounded by the serve line budget); treating the length field
#: as suspect keeps a flipped bit from making recovery "wait" for
#: gigabytes of payload that never existed.
MAX_FRAME_BYTES = 1 << 24

_ENOSPC = 28  # errno.ENOSPC, inlined to keep the hot append loop flat


def _segment_name(sequence: int) -> str:
    return f"wal-{sequence:08d}.seg"


def encode_frame(payload: bytes, kind: int = FRAME_EVENT) -> bytes:
    """Frame ``payload`` for appending: header (kind, length, CRC32)
    followed by the payload bytes."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return _FRAME_HEADER.pack(kind, len(payload), zlib.crc32(payload)) + payload


def decode_frames(blob: bytes) -> Tuple[List[Tuple[int, bytes]], int, bool]:
    """Decode consecutive frames from ``blob``.

    Returns ``(frames, consumed, clean)``: the ``(kind, payload)``
    pairs of every *complete, CRC-verified* frame; the byte offset
    where the last good frame ends; and whether the blob ends exactly
    there (``clean=False`` means a torn or corrupt tail follows).
    Decoding stops at the first incomplete header, impossible length,
    unknown kind, short payload, or CRC mismatch — the torn-tail
    contract the recovery property test pins: truncate a frame stream
    at *any* byte offset and you get back exactly the frames before
    the cut.
    """
    frames: List[Tuple[int, bytes]] = []
    offset = 0
    size = len(blob)
    while size - offset >= _FRAME_HEADER.size:
        kind, length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        if kind not in (FRAME_EVENT, FRAME_SEAL) or length > MAX_FRAME_BYTES:
            return frames, offset, False
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > size:
            return frames, offset, False
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            return frames, offset, False
        frames.append((kind, payload))
        offset = end
    return frames, offset, offset == size


@dataclass
class WalRecovery:
    """What :func:`recover_wal` found on disk.

    ``events`` is the ordered ``(stream_index, payload)`` list of every
    recovered event frame; ``next_index`` is where the next append
    belongs; ``truncated_frames`` counts torn tails repaired (0 on a
    clean log); ``sealed`` reports a graceful-shutdown seal at the end
    of the log; ``segments`` lists the surviving on-disk segments as
    ``(sequence, start_index, end_index, path)`` so a resuming writer
    can later truncate the ones a checkpoint covers.
    """

    events: List[Tuple[int, bytes]]
    next_index: int
    truncated_frames: int
    sealed: bool
    segments: List[Tuple[int, int, int, str]]


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """The ``(sequence, path)`` pairs of the segments in ``directory``,
    ordered; non-segment files are ignored."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if not (name.startswith("wal-") and name.endswith(".seg")):
            continue
        digits = name[len("wal-"):-len(".seg")]
        if not digits.isdigit():
            continue
        found.append((int(digits), os.path.join(directory, name)))
    found.sort()
    return found


def recover_wal(directory: str, repair: bool = True) -> WalRecovery:
    """Read every segment in ``directory`` back into ordered events.

    Tolerates exactly the damage a crash can cause — a torn tail on the
    newest segment, repaired by truncating the file at the last good
    frame (``repair=False`` leaves the bytes in place, for inspection).
    Anything else raises :class:`WalCorruptError`; see the module
    docstring for the full contract.
    """
    ordered = list_segments(directory)
    events: List[Tuple[int, bytes]] = []
    segments: List[Tuple[int, int, int, str]] = []
    truncated = 0
    sealed = False
    next_index = 0
    for position, (sequence, path) in enumerate(ordered):
        last = position == len(ordered) - 1
        with open(path, "rb") as handle:
            raw = handle.read()
        if len(raw) < _SEGMENT_HEADER.size:
            if not last:
                raise WalCorruptError(
                    f"WAL segment {path!r} has a truncated header but is "
                    "not the newest segment — the log is damaged mid-way"
                )
            # A crash during segment creation: nothing recoverable.
            truncated += 1
            if repair:
                os.unlink(path)
            continue
        magic, version, start = _SEGMENT_HEADER.unpack_from(raw, 0)
        if magic != WAL_MAGIC:
            raise WalCorruptError(
                f"{path!r} is not a repro WAL segment (bad magic)"
            )
        if version != WAL_VERSION:
            raise WalCorruptError(
                f"WAL segment {path!r} is version {version}, this build "
                f"writes version {WAL_VERSION}"
            )
        if segments and start != next_index:
            raise WalCorruptError(
                f"WAL segment {path!r} starts at stream index {start} but "
                f"the previous segment ends at {next_index} — a segment "
                "is missing or out of order"
            )
        frames, consumed, clean = decode_frames(raw[_SEGMENT_HEADER.size:])
        # A seal poisons only the rest of *its own* segment: a resumed
        # run legitimately appends fresh segments after a sealed one, so
        # the log as a whole counts as sealed only when the newest
        # segment ends in a seal.
        sealed = False
        index = start
        for kind, payload in frames:
            if sealed:
                raise WalCorruptError(
                    f"WAL segment {path!r} carries frames after its seal"
                )
            if kind == FRAME_SEAL:
                sealed = True
                continue
            events.append((index, payload))
            index += 1
        if not clean:
            if not last:
                raise WalCorruptError(
                    f"WAL segment {path!r} has a bad frame mid-log (only "
                    "the newest segment may carry a torn tail)"
                )
            truncated += 1
            sealed = False
            if repair:
                with open(path, "r+b") as handle:
                    handle.truncate(_SEGMENT_HEADER.size + consumed)
        next_index = index
        segments.append((sequence, start, index, path))
    return WalRecovery(
        events=events,
        next_index=next_index,
        truncated_frames=truncated,
        sealed=sealed,
        segments=segments,
    )


@dataclass(frozen=True)
class AppendReceipt:
    """What one :meth:`WalWriter.append` did: whether the batched fsync
    fired, and whether the segment rotated afterwards."""

    synced: bool = False
    rotated: bool = False


#: Every receipt there is, indexed ``[synced][rotated]``: an append
#: hands one of these back rather than building its own.
_RECEIPTS = tuple(
    tuple(AppendReceipt(synced, rotated) for rotated in (False, True))
    for synced in (False, True)
)


class WalWriter:
    """Appends framed events to a segmented log, durably and in order.

    One writer owns one directory for the life of a daemon run.  A
    fresh run starts at stream index 0; a resumed run is constructed
    from a :class:`WalRecovery` (:meth:`resume`) and always starts a
    new segment — appending into a possibly-torn tail would make the
    next crash ambiguous.
    """

    def __init__(
        self,
        directory: str,
        sync_every: int = 64,
        segment_bytes: int = 4 << 20,
        injector: Optional[FaultInjector] = None,
        start_index: int = 0,
        next_sequence: int = 0,
        inherited: Sequence[Tuple[int, int, int, str]] = (),
    ) -> None:
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1: {sync_every!r}")
        if segment_bytes < _SEGMENT_HEADER.size + _FRAME_HEADER.size:
            raise ValueError(f"segment_bytes too small: {segment_bytes!r}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.sync_every = sync_every
        self.segment_bytes = segment_bytes
        self.injector = injector
        self.next_index = start_index
        self._next_sequence = next_sequence
        #: Closed (or inherited pre-resume) segments as
        #: ``(sequence, start, end, path)`` — the truncation candidates.
        self._closed: List[Tuple[int, int, int, str]] = list(inherited)
        self._handle: Optional["_SegmentHandle"] = None
        self._since_sync = 0
        self._sealed = False

    @classmethod
    def resume(
        cls,
        directory: str,
        recovery: WalRecovery,
        sync_every: int = 64,
        segment_bytes: int = 4 << 20,
        injector: Optional[FaultInjector] = None,
    ) -> "WalWriter":
        """A writer continuing a recovered log in a fresh segment."""
        next_sequence = (
            recovery.segments[-1][0] + 1 if recovery.segments else 0
        )
        return cls(
            directory,
            sync_every=sync_every,
            segment_bytes=segment_bytes,
            injector=injector,
            start_index=recovery.next_index,
            next_sequence=next_sequence,
            inherited=recovery.segments,
        )

    # -- appending -------------------------------------------------------

    def append(self, payload: bytes) -> AppendReceipt:
        """Durably frame one event; returns what housekeeping fired.

        The caller's contract: append *before* applying the event to
        any in-memory state, so a crash at any instant leaves the log a
        superset of the state.  Raises :class:`WalSealedError` after
        :meth:`seal`, and lets ``OSError`` (``ENOSPC`` among them)
        propagate for the daemon's disk-pressure handling.
        """
        if self._sealed:
            raise WalSealedError(
                "write-ahead log is sealed — no appends after a graceful "
                "shutdown"
            )
        if self.injector is not None:
            if self.injector.fire(SITE_SERVE_WAL_ENOSPC) is not None:
                raise OSError(_ENOSPC, "injected: no space left on device")
        frame = encode_frame(payload)
        handle = self._ensure_segment()
        if self.injector is not None:
            if self.injector.fire(SITE_SERVE_WAL_TORN) is not None:
                # A torn write: half the frame reaches the platter, then
                # the process dies.  Recovery must truncate it away.
                handle.write(frame[: max(1, len(frame) // 2)])
                handle.sync()
                raise InjectedFault(
                    SITE_SERVE_WAL_TORN, "injected torn WAL append"
                )
        handle.write(frame)
        self.next_index += 1
        self._since_sync += 1
        synced = False
        if self._since_sync >= self.sync_every:
            handle.sync()
            self._since_sync = 0
            synced = True
        rotated = False
        if handle.size >= self.segment_bytes:
            self._rotate()
            rotated = True
        return _RECEIPTS[synced][rotated]

    def flush(self) -> bool:
        """Force the batched fsync now, so the log is durable up to
        ``next_index`` (a checkpoint about to claim that position must
        not get ahead of it); returns whether anything needed syncing."""
        if self._handle is None or not self._since_sync:
            return False
        self._handle.sync()
        self._since_sync = 0
        return True

    def seal(self) -> None:
        """Mark a graceful shutdown: seal frame, fsync, close.

        A log that ends in a seal recovers with ``sealed=True``; a
        writer, once sealed, refuses further appends.
        """
        if self._sealed:
            raise WalSealedError("write-ahead log is already sealed")
        handle = self._ensure_segment()
        handle.write(encode_frame(b"", kind=FRAME_SEAL))
        handle.sync()
        self._close_segment()
        self._sealed = True

    def close(self) -> None:
        """Sync and close *without* sealing (abort path: the log reads
        back as a crash, which is what an abort is)."""
        if self._handle is not None:
            self._handle.sync()
            self._close_segment()

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- segment lifecycle -----------------------------------------------

    def _ensure_segment(self) -> "_SegmentHandle":
        if self._handle is None:
            sequence = self._next_sequence
            self._next_sequence += 1
            path = os.path.join(self.directory, _segment_name(sequence))
            self._handle = _SegmentHandle(path, sequence, self.next_index)
        return self._handle

    def _rotate(self) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.sync()
        self._since_sync = 0
        self._close_segment()

    def _close_segment(self) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.close()
        self._closed.append(
            (handle.sequence, handle.start_index, self.next_index, handle.path)
        )
        self._handle = None

    # -- checkpoint-driven truncation ------------------------------------

    def truncate_covered(self, upto_index: int) -> int:
        """Delete closed segments a checkpoint has made redundant.

        A segment whose every frame precedes stream index
        ``upto_index`` can never be needed again — recovery starts from
        the checkpoint.  The open segment is never deleted — nor, when
        rotation or a recovery has left none open, the newest closed
        one: it is then the log's only record of its stream position,
        and a crash before the next append must still find it.  Returns
        the number of segments removed.
        """
        survivors: List[Tuple[int, int, int, str]] = []
        removed = 0
        newest = -1
        if self._handle is None and self._closed:
            newest = self._closed[-1][0]
        for sequence, start, end, path in self._closed:
            if end <= upto_index and sequence != newest:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
                removed += 1
            else:
                survivors.append((sequence, start, end, path))
        self._closed = survivors
        return removed


class _SegmentHandle:
    """One open segment file: header written on creation, size tracked
    so rotation needs no ``stat`` calls."""

    def __init__(self, path: str, sequence: int, start_index: int) -> None:
        self.path = path
        self.sequence = sequence
        self.start_index = start_index
        self._file = open(path, "wb")
        try:
            header = _SEGMENT_HEADER.pack(WAL_MAGIC, WAL_VERSION, start_index)
            self._file.write(header)
            self.size = len(header)
        except BaseException:
            # A failed header write (ENOSPC, signal) must not leak the
            # descriptor: nobody holds a reference to a half-constructed
            # handle, so nothing else can ever close it.
            self._file.close()
            raise

    def write(self, blob: bytes) -> None:
        self._file.write(blob)
        self.size += len(blob)

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
