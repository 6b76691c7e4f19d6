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
writer fsyncs, closes it, and opens the next.  An append only checks its
payload and queues it: the segment file is unbuffered, and the queued
frames are encoded and handed to the kernel in one ``write`` at the
first hand-off point — a sync falling due, the queue reaching the
buffer ``open()`` would give the file (``st_blksize``), a rotation
boundary, :meth:`~WalWriter.flush`, :meth:`~WalWriter.seal` or
:meth:`~WalWriter.close`.  The bytes, the sync points and the frame a
segment rotates at are those a buffered file would give, and so is
the loss window: a killed process loses the frames still queued, less
than one ``st_blksize`` buffer.  ``fsync`` is batched: one sync per
``sync_every`` appends (and always on rotate/seal), so a power loss
can lose every event since the last sync, up to ``sync_every - 1`` of
them; durability latency is tunable against throughput.

A write that fails part-way (a short write, then ``ENOSPC``) cuts the
segment back to the last whole frame that landed, so the log never
holds half a frame it did not mean to.  The frames that did not land
stay queued, except the appending event's own: an append that raises
``OSError`` has logged nothing, and may be retried.  A failed
``fsync`` raises :class:`~repro.errors.WalSyncError` instead, which is
not retried — after one, the kernel may already have dropped the
unsynced pages.

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

Checkpoints make the log finite: each checkpoint starts a new segment
and deletes the ones it covers (:meth:`WalWriter.truncate_covered`), so
recovery decodes only the frames written after the newest checkpoint;
``segment_bytes`` caps a segment between checkpoints.  The new segment's
header and the directory are fsynced before anything is deleted, so
the directory always holds a segment that reaches the checkpoint.  Disk
pressure rides the same lever — an ``ENOSPC`` append makes the daemon
checkpoint, truncate, and retry before giving up (see
``ServeDaemon._wal_append``).
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    InjectedFault,
    WalCorruptError,
    WalSealedError,
    WalSyncError,
)
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
    return _encode_frames((payload,), kind)


def _encode_frames(payloads: Sequence[bytes], kind: int = FRAME_EVENT) -> bytes:
    """The frames of ``payloads``, back to back (no bound check: the
    writer checks each payload as it is appended)."""
    pack, crc32 = _FRAME_HEADER.pack, zlib.crc32
    return b"".join([pack(kind, len(p), crc32(p)) + p for p in payloads])


def decode_frames(
    blob: bytes, start: int = 0
) -> Tuple[List[Tuple[int, bytes]], int, bool]:
    """Decode consecutive frames from ``blob``, the first at ``start``
    (recovery passes a whole segment file and its header's size rather
    than copying the frames out of it).

    Returns ``(frames, consumed, clean)``: the ``(kind, payload)``
    pairs of every *complete, CRC-verified* frame; the byte offset in
    ``blob`` where the last good frame ends; and whether the blob ends
    exactly there (``clean=False`` means a torn or corrupt tail
    follows).
    Decoding stops at the first incomplete header, impossible length,
    unknown kind, short payload, or CRC mismatch — the torn-tail
    contract the recovery property test pins: truncate a frame stream
    at *any* byte offset and you get back exactly the frames before
    the cut.
    """
    frames: List[Tuple[int, bytes]] = []
    offset = start
    size = len(blob)
    while size - offset >= _FRAME_HEADER.size:
        kind, length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        if kind not in (FRAME_EVENT, FRAME_SEAL) or length > MAX_FRAME_BYTES:
            return frames, offset, False
        body = offset + _FRAME_HEADER.size
        end = body + length
        if end > size:
            return frames, offset, False
        payload = blob[body:end]
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
        frames, consumed, clean = decode_frames(raw, _SEGMENT_HEADER.size)
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
                    handle.truncate(consumed)
        next_index = index
        segments.append((sequence, start, index, path))
    return WalRecovery(
        events=events,
        next_index=next_index,
        truncated_frames=truncated,
        sealed=sealed,
        segments=segments,
    )


class WalWriter:
    """Appends framed events to a segmented log, durably and in order.

    One writer owns one directory for the life of a daemon run.  A
    fresh run starts at stream index 0; a resumed run is constructed
    from a :class:`WalRecovery` (:meth:`resume`) and always starts a
    new segment — appending into a possibly-torn tail would make the
    next crash ambiguous.

    An append only checks and queues its payload; the queued frames are
    encoded and written in one call at the next hand-off point (see the
    module docstring), so the queue is the segment's only buffer.
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
        #: Payloads appended but not yet handed to the kernel, and the
        #: bytes their frames will take.
        self._queue: List[bytes] = []
        self._queued = 0
        self._since_sync = 0
        self._sealed = False
        #: What :meth:`take_counts` has not reported yet.
        self._counted_index = start_index
        self._syncs = 0
        self._rotations = 0

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

    def append(self, payload: bytes) -> None:
        """Log one event.

        The caller's contract: append *before* applying the event to
        any in-memory state, so a crash at any instant leaves the log a
        superset of the state.  Raises :class:`WalSealedError` after
        :meth:`seal`, ``ValueError`` for a payload over
        ``MAX_FRAME_BYTES`` and :class:`~repro.errors.WalSyncError` when
        an fsync fails.  An ``OSError`` (``ENOSPC`` among them) from a
        write means this append logged nothing — its frame is neither
        queued nor in the file and ``next_index`` has not moved — so the
        daemon's disk-pressure handling may retry it.
        """
        if self._sealed:
            raise WalSealedError(
                "write-ahead log is sealed — no appends after a graceful "
                "shutdown"
            )
        injector = self.injector
        if injector is not None:
            if injector.fire(SITE_SERVE_WAL_ENOSPC) is not None:
                raise OSError(_ENOSPC, "injected: no space left on device")
        if len(payload) > MAX_FRAME_BYTES:
            encode_frame(payload)  # raises the frame-bound ValueError
        handle = self._handle
        if handle is None:
            handle = self._open_segment()
        if injector is not None:
            if injector.fire(SITE_SERVE_WAL_TORN) is not None:
                self._tear(payload)
        self._queue.append(payload)
        self._queued += _FRAME_HEADER.size + len(payload)
        self.next_index += 1
        self._since_sync += 1
        if (
            self._since_sync >= self.sync_every
            or self._queued >= handle.buffer_bytes
            or handle.size + self._queued >= self.segment_bytes
        ):
            self._hand_off_appended(handle)

    def _hand_off_appended(self, handle: "_SegmentHandle") -> None:
        """The append that just queued a frame reached a hand-off point:
        write the queue, then fsync if a sync fell due, then rotate if
        the segment is full.  A failed write takes the new frame back
        out, so the append logged nothing."""
        try:
            self._hand_off()
        except OSError:
            payload = self._queue.pop()
            self._queued -= _FRAME_HEADER.size + len(payload)
            self.next_index -= 1
            self._since_sync -= 1
            raise
        if self._since_sync >= self.sync_every:
            handle.sync()
            self._since_sync = 0
            self._syncs += 1
        if handle.size >= self.segment_bytes:
            self._close_segment()
            self._since_sync = 0
            self._rotations += 1

    def _hand_off(self) -> None:
        """Encode every queued frame and hand them to the kernel in one
        write.  If the write fails part-way, the file is cut back to the
        last whole frame that landed and the frames that did not land
        stay queued before the error propagates."""
        queue = self._queue
        if not queue:
            return
        handle = self._handle
        assert handle is not None
        start = handle.size
        try:
            handle.write(_encode_frames(queue))
        except OSError:
            landed = handle.size - start
            whole = count = 0
            for payload in queue:
                end = whole + _FRAME_HEADER.size + len(payload)
                if end > landed:
                    break
                whole, count = end, count + 1
            handle.cut(start + whole)
            del queue[:count]
            self._queued -= whole
            raise
        queue.clear()
        self._queued = 0

    def _tear(self, payload: bytes) -> None:
        """The injected torn write: the queued frames and half of this
        one reach the platter, then the process dies.  Recovery must
        truncate the half frame away."""
        self._hand_off()
        frame = encode_frame(payload)
        handle = self._handle
        assert handle is not None
        handle.write(frame[: max(1, len(frame) // 2)])
        handle.sync()
        raise InjectedFault(SITE_SERVE_WAL_TORN, "injected torn WAL append")

    def take_counts(self) -> Tuple[int, int, int]:
        """``(appends, syncs, rotations)`` since the last call: the
        batched fsyncs that fell due and the segments closed full.  The
        daemon moves them into its metrics at its own pace rather than
        once per event."""
        counts = (
            self.next_index - self._counted_index, self._syncs,
            self._rotations,
        )
        self._counted_index = self.next_index
        self._syncs = self._rotations = 0
        return counts

    def flush(self) -> bool:
        """Force the batched fsync now, so the log is durable up to
        ``next_index`` (a checkpoint about to claim that position must
        not get ahead of it); returns whether anything needed syncing."""
        handle = self._handle
        if handle is None or not self._since_sync:
            return False
        self._hand_off()
        handle.sync()
        self._since_sync = 0
        return True

    def seal(self) -> None:
        """Mark a graceful shutdown: seal frame, fsync, close.

        A log that ends in a seal recovers with ``sealed=True``; a
        writer, once sealed, refuses further appends.
        """
        if self._sealed:
            raise WalSealedError("write-ahead log is already sealed")
        handle = self._handle
        if handle is None:
            handle = self._open_segment()
        self._hand_off()
        handle.write(encode_frame(b"", kind=FRAME_SEAL))
        self._close_segment()
        self._sealed = True

    def close(self) -> None:
        """Hand off, sync and close *without* sealing (abort path: the
        log reads back as a crash, which is what an abort is).  The
        segment is closed even when the hand-off fails."""
        if self._handle is not None:
            try:
                self._hand_off()
            finally:
                self._close_segment()

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- segment lifecycle -----------------------------------------------

    def _open_segment(self) -> "_SegmentHandle":
        # The sequence moves on only once the header is written: after
        # a failed one (ENOSPC) the retry reopens the same path and
        # truncates the short file, which would otherwise sit mid-log
        # as a segment with a torn header.
        sequence = self._next_sequence
        path = os.path.join(self.directory, _segment_name(sequence))
        self._handle = _SegmentHandle(path, sequence, self.next_index)
        self._next_sequence = sequence + 1
        return self._handle

    def _close_segment(self) -> None:
        """Sync and close the open segment (its queue handed off)."""
        handle = self._handle
        if handle is None:
            return
        try:
            handle.close()
        finally:
            self._closed.append(
                (handle.sequence, handle.start_index, self.next_index,
                 handle.path)
            )
            self._handle = None

    # -- checkpoint-driven truncation ------------------------------------

    def truncate_covered(self, upto_index: int) -> int:
        """Retire the segments a checkpoint at stream index
        ``upto_index`` has made redundant; returns how many were deleted.

        A checkpoint that covers every frame appended so far
        (``upto_index == next_index``, always the daemon's case) while
        the open segment holds frames first rolls the log over: the
        open segment is handed off and closed (fsynced), the next one
        is opened at ``next_index``, and its header and the directory
        are fsynced.  Only then is every closed segment whose frames
        all precede ``upto_index`` deleted, the one just closed
        included, so recovery decodes only the frames the checkpoint
        does not cover.  At every instant the directory holds a segment
        that reaches the checkpoint's position, so a kill anywhere in
        here recovers from the checkpoint.

        If the next segment cannot be created (``ENOSPC`` in its
        header, say), the checkpoint still stands and the log has no
        open segment; the next append opens it again.  With no segment
        open the newest closed one is never deleted: it is then the
        log's only record of its stream position, and a crash before
        the next append must still find it.  A rollover is not counted
        among the rotations, which are the segments closed full.
        """
        handle = self._handle
        if (
            handle is not None
            and upto_index == self.next_index
            and handle.start_index < upto_index
        ):
            self._hand_off()
            self._close_segment()
            self._since_sync = 0
            try:
                handle = self._open_segment()
            except OSError:
                pass
            else:
                handle.sync()
        closed = self._closed
        spared = closed[-1][0] if self._handle is None and closed else -1
        covered = 0
        # Closed segments are in stream order, so the covered ones are
        # a prefix: deleting it front first keeps the log contiguous
        # whenever the deleting stops.
        for sequence, _, end, _ in closed:
            if end > upto_index or sequence == spared:
                break
            covered += 1
        if covered:
            self._sync_directory()
        for _ in range(covered):
            try:
                os.unlink(closed[0][3])
            except FileNotFoundError:
                pass
            del closed[0]
        return covered

    def _sync_directory(self) -> None:
        """Fsync the log's directory, so the segment files created so
        far survive a power loss before any older one is deleted."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as exc:
            raise WalSyncError(
                f"fsync of WAL directory {self.directory!r} failed ({exc}) "
                "— the newest segment may not survive a power loss, so no "
                "covered segment is deleted"
            ) from exc


class _SegmentHandle:
    """One open segment file, unbuffered: the header is written on
    creation and the writer's queue is the only buffer in front of the
    kernel.  ``size`` counts the bytes that reached the file, so
    rotation needs no ``stat`` calls, and ``buffer_bytes`` is the buffer
    :func:`open` would have given the file (``st_blksize``, or
    ``io.DEFAULT_BUFFER_SIZE`` when there is no block size)."""

    def __init__(self, path: str, sequence: int, start_index: int) -> None:
        self.path = path
        self.sequence = sequence
        self.start_index = start_index
        self.size = 0
        self._synced = 0
        self._file = open(path, "wb", buffering=0)
        try:
            blksize = os.fstat(self._file.fileno()).st_blksize
            self.buffer_bytes = blksize if blksize > 1 else io.DEFAULT_BUFFER_SIZE
            self.write(
                _SEGMENT_HEADER.pack(WAL_MAGIC, WAL_VERSION, start_index)
            )
        except BaseException:
            # A failed header write (ENOSPC, signal) must not leak the
            # descriptor: nobody holds a reference to a half-constructed
            # handle, so nothing else can ever close it.
            self._file.close()
            raise

    def write(self, blob: bytes) -> None:
        """Hand ``blob`` to the kernel, however many writes that takes;
        ``size`` counts every byte that landed, also when one raises."""
        view = memoryview(blob)
        while view:
            written = self._file.write(view)
            self.size += written
            view = view[written:]

    def cut(self, size: int) -> None:
        """Truncate the file to ``size`` bytes and write on from there."""
        fd = self._file.fileno()
        os.ftruncate(fd, size)
        os.lseek(fd, size, os.SEEK_SET)
        self.size = size

    def sync(self) -> None:
        try:
            os.fsync(self._file.fileno())
        except OSError as exc:
            raise WalSyncError(
                f"fsync of WAL segment {self.path!r} failed ({exc}) — the "
                "kernel may have dropped the unsynced frames, so the log's "
                "durable extent is unknown"
            ) from exc
        self._synced = self.size

    def close(self) -> None:
        try:
            if self.size != self._synced:
                self.sync()
        finally:
            self._file.close()
