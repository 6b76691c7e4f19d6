"""Unit and property tests for the segmented write-ahead log.

The torn-tail property here is the acceptance gate from the issue:
truncate a frame stream at *any* byte offset and decoding returns
exactly the complete frames before the cut — never a partial frame,
never a lost complete one.
"""

import errno
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FaultPlan,
    FaultSpec,
)
from repro.serve.wal import (
    FRAME_EVENT,
    FRAME_SEAL,
    WAL_MAGIC,
    WAL_VERSION,
    WalWriter,
    decode_frames,
    encode_frame,
    list_segments,
    recover_wal,
)

PAYLOADS = [b'{"type":"log","client":1}', b"x", b"", b"a" * 300, b'{"k":2}']


def segment_blob(payloads, sealed=False):
    blob = b"".join(encode_frame(payload) for payload in payloads)
    if sealed:
        blob += encode_frame(b"", kind=FRAME_SEAL)
    return blob


#: A segment file's header: magic, version, start index.
_HEADER = 17


def _segment_file(start, payloads):
    """A segment's bytes: the header, then ``payloads``' frames."""
    header = struct.pack("<8sBQ", WAL_MAGIC, WAL_VERSION, start)
    return header + segment_blob(payloads)


def _payloads(sizes):
    return [bytes([index % 251]) * size for index, size in enumerate(sizes)]


class TestFrameCodec:
    def test_round_trip(self):
        frames, consumed, clean = decode_frames(segment_blob(PAYLOADS))
        assert [payload for _, payload in frames] == PAYLOADS
        assert all(kind == FRAME_EVENT for kind, _ in frames)
        assert clean and consumed == len(segment_blob(PAYLOADS))

    def test_seal_frame_decodes(self):
        frames, _, clean = decode_frames(segment_blob([b"one"], sealed=True))
        assert frames[-1][0] == FRAME_SEAL
        assert clean

    def test_crc_flip_stops_decoding(self):
        blob = bytearray(segment_blob(PAYLOADS))
        first = len(encode_frame(PAYLOADS[0]))
        blob[first + 9] ^= 0xFF  # the payload byte of the second frame
        frames, consumed, clean = decode_frames(bytes(blob))
        assert [payload for _, payload in frames] == PAYLOADS[:1]
        assert consumed == first
        assert not clean

    def test_unknown_kind_stops_decoding(self):
        blob = segment_blob([b"ok"]) + struct.pack("<BII", 0x7A, 0, 0)
        frames, consumed, clean = decode_frames(blob)
        assert [payload for _, payload in frames] == [b"ok"]
        assert not clean

    def test_every_truncation_point_yields_exact_prefix(self):
        """Exhaustive form of the acceptance property on a fixed
        multi-frame segment: every byte offset."""
        blob = segment_blob(PAYLOADS)
        boundaries = []
        offset = 0
        for payload in PAYLOADS:
            offset += len(encode_frame(payload))
            boundaries.append(offset)
        for cut in range(len(blob) + 1):
            frames, consumed, clean = decode_frames(blob[:cut])
            complete = sum(1 for boundary in boundaries if boundary <= cut)
            assert [p for _, p in frames] == PAYLOADS[:complete], cut
            assert clean == (cut == consumed)

    @given(
        payloads=st.lists(st.binary(max_size=64), min_size=1, max_size=8),
        cut_seed=st.integers(min_value=0),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncation_property(self, payloads, cut_seed):
        blob = segment_blob(payloads)
        cut = cut_seed % (len(blob) + 1)
        frames, consumed, clean = decode_frames(blob[:cut])
        decoded = [payload for _, payload in frames]
        assert decoded == payloads[: len(decoded)]  # a strict prefix
        boundary = len(segment_blob(payloads[: len(decoded)]))
        assert consumed == boundary
        # Clean exactly when the cut landed on a frame boundary.
        assert clean == (cut == boundary)

    @given(payloads=st.lists(st.binary(max_size=128), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_round_trip_property(self, payloads):
        frames, _, clean = decode_frames(segment_blob(payloads))
        assert clean
        assert [payload for _, payload in frames] == payloads


class TestWriterAndRecovery:
    def test_append_recover_round_trip(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=2, segment_bytes=4 << 20)
        for payload in PAYLOADS:
            writer.append(payload)
        writer.close()
        recovery = recover_wal(directory)
        assert [payload for _, payload in recovery.events] == PAYLOADS
        assert [index for index, _ in recovery.events] == list(
            range(len(PAYLOADS))
        )
        assert recovery.next_index == len(PAYLOADS)
        assert recovery.truncated_frames == 0
        assert not recovery.sealed

    def test_rotation_and_checkpoint_truncation(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1, segment_bytes=128)
        for index in range(20):
            writer.append(b"p" * 40)
        appends, _, rotations = writer.take_counts()
        assert appends == 20
        assert rotations >= 3
        assert len(list_segments(directory)) >= 4
        removed = writer.truncate_covered(10)
        assert removed >= 1
        writer.close()
        # Recovery after truncation still yields a contiguous tail.
        recovery = recover_wal(directory)
        assert recovery.next_index == 20
        indices = [index for index, _ in recovery.events]
        assert indices == list(range(indices[0], 20))
        assert indices[0] <= 10

    def test_truncation_keeps_the_log_position_when_no_segment_is_open(
        self, tmp_path
    ):
        """A checkpoint landing right after a rotation covers every
        closed segment while none is open: deleting them all would leave
        an empty directory, and a crash before the next append would
        recover to stream index 0 behind the checkpoint."""
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1, segment_bytes=128)
        appended = 0
        while True:
            writer.append(b"p" * 40)
            appended += 1
            if writer.take_counts()[2] and appended > 6:
                break
        writer.truncate_covered(appended)
        assert len(list_segments(directory)) == 1
        writer.close()
        assert recover_wal(directory).next_index == appended
        # Once a newer segment is open the spared one goes too.
        resumed = WalWriter.resume(directory, recover_wal(directory))
        resumed.append(b"q")
        assert resumed.truncate_covered(appended) == 1
        resumed.close()
        assert recover_wal(directory).next_index == appended + 1

    def test_a_covering_checkpoint_leaves_one_segment_starting_there(
        self, tmp_path
    ):
        """A checkpoint at ``next_index`` rolls the log over and deletes
        every segment before it, the rotated ones and the one it just
        closed: what is left is one segment that starts at the
        checkpoint."""
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=3, segment_bytes=128)
        for _ in range(10):
            writer.append(b"p" * 40)
        rotated = len(list_segments(directory))
        assert rotated >= 3
        assert writer.truncate_covered(10) == rotated
        (sequence, path), = list_segments(directory)
        assert sequence == rotated
        with open(path, "rb") as handle:
            assert handle.read() == _segment_file(10, [])
        # Rollovers are not rotations: those count segments closed full.
        assert writer.take_counts()[2] == rotated - 1
        for payload in PAYLOADS:
            writer.append(payload)
        writer.close()
        recovery = recover_wal(directory)
        assert recovery.events == list(enumerate(PAYLOADS, start=10))
        assert recovery.truncated_frames == 0

    def test_a_checkpoint_covering_nothing_new_does_not_roll_over(
        self, tmp_path
    ):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1)
        # Nothing appended yet: no segment to roll, none to delete.
        assert writer.truncate_covered(0) == 0
        assert list_segments(directory) == []
        writer.append(b"one")
        assert writer.truncate_covered(1) == 1
        assert writer.truncate_covered(1) == 0
        assert [seq for seq, _ in list_segments(directory)] == [1]
        # Behind next_index it deletes only what it covers, no rollover.
        writer.append(b"two")
        writer.append(b"three")
        assert writer.truncate_covered(2) == 0
        assert [seq for seq, _ in list_segments(directory)] == [1]
        writer.close()
        assert recover_wal(directory).events == [(1, b"two"), (2, b"three")]

    def test_seal_then_append_raises(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal"))
        writer.append(b"one")
        writer.seal()
        assert writer.sealed
        with pytest.raises(WalSealedError):
            writer.append(b"two")
        with pytest.raises(WalSealedError):
            writer.seal()

    def test_sealed_log_recovers_sealed_and_resumes(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1)
        writer.append(b"one")
        writer.seal()
        recovery = recover_wal(directory)
        assert recovery.sealed
        assert recovery.next_index == 1
        resumed = WalWriter.resume(directory, recovery, sync_every=1)
        resumed.append(b"two")
        resumed.close()
        # A seal mid-log (earlier graceful shutdown) is legal history;
        # only the newest segment decides the log's sealed status.
        second = recover_wal(directory)
        assert [payload for _, payload in second.events] == [b"one", b"two"]
        assert not second.sealed

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1)
        for payload in PAYLOADS:
            writer.append(payload)
        writer.close()
        (_, path), = list_segments(directory)
        with open(path, "ab") as handle:
            handle.write(encode_frame(b"doomed")[:7])
        recovery = recover_wal(directory)
        assert [payload for _, payload in recovery.events] == PAYLOADS
        assert recovery.truncated_frames == 1
        # The repair was physical: a second pass reads a clean log.
        assert recover_wal(directory).truncated_frames == 0

    def test_repair_false_leaves_bytes(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1)
        writer.append(b"kept")
        writer.close()
        (_, path), = list_segments(directory)
        with open(path, "ab") as handle:
            handle.write(b"\x45garbage")
        size = os.path.getsize(path)
        recovery = recover_wal(directory, repair=False)
        assert recovery.truncated_frames == 1
        assert os.path.getsize(path) == size

    def test_mid_log_damage_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1, segment_bytes=96)
        for index in range(8):
            writer.append(b"x" * 40)
        writer.close()
        segments = list_segments(directory)
        assert len(segments) >= 3
        _, first_path = segments[0]
        with open(first_path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.truncate()
        with pytest.raises(WalCorruptError):
            recover_wal(directory)

    def test_segment_gap_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1, segment_bytes=96)
        for index in range(8):
            writer.append(b"x" * 40)
        writer.close()
        segments = list_segments(directory)
        os.unlink(segments[1][1])
        with pytest.raises(WalCorruptError):
            recover_wal(directory)

    def test_foreign_file_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        os.makedirs(directory)
        with open(os.path.join(directory, "wal-00000000.seg"), "wb") as handle:
            handle.write(b"NOTAWAL!" + b"\x00" * 32)
        with pytest.raises(WalCorruptError):
            recover_wal(directory)

    def test_version_skew_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        os.makedirs(directory)
        header = struct.pack("<8sBQ", WAL_MAGIC, WAL_VERSION + 1, 0)
        with open(os.path.join(directory, "wal-00000000.seg"), "wb") as handle:
            handle.write(header + encode_frame(b"x"))
        with pytest.raises(WalCorruptError):
            recover_wal(directory)

    def test_event_frames_after_seal_in_segment_raise(self, tmp_path):
        directory = str(tmp_path / "wal")
        os.makedirs(directory)
        header = struct.pack("<8sBQ", WAL_MAGIC, WAL_VERSION, 0)
        blob = (
            header
            + encode_frame(b"ok")
            + encode_frame(b"", kind=FRAME_SEAL)
            + encode_frame(b"smuggled")
        )
        with open(os.path.join(directory, "wal-00000000.seg"), "wb") as handle:
            handle.write(blob)
        with pytest.raises(WalCorruptError):
            recover_wal(directory)

    def test_empty_or_missing_directory_is_a_fresh_log(self, tmp_path):
        recovery = recover_wal(str(tmp_path / "never-created"))
        assert recovery.events == []
        assert recovery.next_index == 0
        assert not recovery.sealed


class TestInjectedFaults:
    def test_enospc_site_raises_oserror(self, tmp_path):
        plan = FaultPlan.build(FaultSpec(site=SITE_SERVE_WAL_ENOSPC, at=1))
        writer = WalWriter(
            str(tmp_path / "wal"), sync_every=1, injector=FaultInjector(plan)
        )
        writer.append(b"fine")
        with pytest.raises(OSError) as excinfo:
            writer.append(b"full")
        assert excinfo.value.errno == 28
        # The failed append reached the platter not at all.
        writer.close()
        recovery = recover_wal(str(tmp_path / "wal"))
        assert [payload for _, payload in recovery.events] == [b"fine"]

    def test_torn_site_leaves_half_a_frame(self, tmp_path):
        directory = str(tmp_path / "wal")
        plan = FaultPlan.build(FaultSpec(site=SITE_SERVE_WAL_TORN, at=2))
        writer = WalWriter(directory, sync_every=1, injector=FaultInjector(plan))
        writer.append(b"one")
        writer.append(b"two")
        with pytest.raises(InjectedFault):
            writer.append(b"torn-away")
        recovery = recover_wal(directory)
        assert [payload for _, payload in recovery.events] == [b"one", b"two"]
        assert recovery.truncated_frames == 1
        assert recovery.next_index == 2


class TestSegmentHandleCleanup:
    """Regression: a failed header write must close the descriptor.

    ``_SegmentHandle.__init__`` opens the file before writing the
    header; if the write raises (ENOSPC, a signal) nobody holds a
    reference to the half-constructed handle, so the constructor is
    the only place the descriptor can ever be closed.
    """

    def test_failed_header_write_closes_the_descriptor(
        self, tmp_path, monkeypatch
    ):
        import builtins

        from repro.serve import wal as wal_mod

        real_open = builtins.open
        opened = []

        def recording_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        class ExplodingHeader:
            def pack(self, *args):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(wal_mod, "_SEGMENT_HEADER", ExplodingHeader())
        with pytest.raises(OSError):
            wal_mod._SegmentHandle(str(tmp_path / "seg.wal"), 0, 0)
        assert len(opened) == 1
        assert opened[0].closed


class TestQueuedHandOff:
    """An append only queues its frame; the queue reaches the file in
    one write at each hand-off point.  The files and the sync and
    rotation counts must be those of a writer that wrote every frame through a buffered
    file, and no more than one ``st_blksize`` buffer may wait in memory
    (the frames a ``kill -9`` loses)."""

    @given(
        sizes=st.lists(st.integers(0, 700), min_size=1, max_size=60),
        sync_every=st.integers(1, 80),
        segment=st.one_of(
            st.integers(_HEADER + 9, 3000),
            # A frame that ends exactly on the rotation boundary.
            st.integers(1, 60).map(lambda frames: -frames),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_files_counts_and_kill_window_match_the_model(
        self, sizes, sync_every, segment
    ):
        payloads = _payloads(sizes)
        if segment < 0:
            frames = min(-segment, len(payloads))
            segment = _HEADER + len(segment_blob(payloads[:frames]))
        with tempfile.TemporaryDirectory() as directory:
            writer = WalWriter(
                directory, sync_every=sync_every, segment_bytes=segment
            )
            # The reference: frames grouped into segments, and the
            # syncs and rotations a buffered file would give per append.
            expected_segments = [[]]
            size, since_sync = _HEADER, 0
            for payload in payloads:
                writer.append(payload)
                expected_segments[-1].append(payload)
                size += len(encode_frame(payload))
                since_sync += 1
                synced = since_sync >= sync_every
                if synced:
                    since_sync = 0
                rotated = size >= segment
                assert writer.take_counts() == (1, synced, rotated)
                if rotated:
                    expected_segments.append([])
                    size, since_sync = _HEADER, 0
                    continue
                # Whole frames only reach the file, and what waits in
                # the queue fits one buffer.
                (_, path), = list_segments(directory)[-1:]
                on_disk = open(path, "rb").read()
                wanted = _segment_file(
                    writer.next_index - len(expected_segments[-1]),
                    expected_segments[-1],
                )
                assert wanted.startswith(on_disk)
                assert len(wanted) - len(on_disk) <= os.stat(path).st_blksize
                frames, _, clean = decode_frames(on_disk[_HEADER:])
                assert clean
            assert writer.take_counts() == (0, 0, 0)
            writer.close()
            if not expected_segments[-1]:
                expected_segments.pop()
            segments = list_segments(directory)
            assert len(segments) == len(expected_segments)
            start = 0
            for (_, path), frames in zip(segments, expected_segments):
                with open(path, "rb") as handle:
                    assert handle.read() == _segment_file(start, frames)
                start += len(frames)

    def test_a_failed_fsync_is_not_reported_as_a_retryable_oserror(
        self, tmp_path, monkeypatch
    ):
        """After a failed fsync the kernel may have dropped the dirty
        pages, so the append cannot be retried: it raises WalSyncError,
        and the frame it wrote stays the one copy in the log."""
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=2)
        writer.append(b"one")

        def failing_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(WalSyncError) as excinfo:
            writer.append(b"two")
        assert not isinstance(excinfo.value, OSError)
        monkeypatch.undo()
        writer.close()
        assert [p for _, p in recover_wal(directory).events] == [b"one", b"two"]


class ShortThenFull:
    """A raw segment file that takes ``budget`` more bytes — the write
    that crosses the budget lands short — then raises ``ENOSPC`` once;
    after that, space was freed and writes land whole (or, with
    ``frees_space=False``, every later write raises too)."""

    def __init__(self, raw, budget, frees_space=True):
        self._raw = raw
        self.budget = budget
        self.frees_space = frees_space
        self.failed = False

    def write(self, data):
        if self.failed and not self.frees_space:
            raise OSError(errno.ENOSPC, "No space left on device")
        if self.failed or self.budget is None:
            return self._raw.write(data)
        if self.budget == 0:
            self.failed = True
            raise OSError(errno.ENOSPC, "No space left on device")
        written = self._raw.write(bytes(data[: self.budget]))
        self.budget -= written
        return written

    def fileno(self):
        return self._raw.fileno()

    def close(self):
        self._raw.close()


def failing_open(monkeypatch, budget, segment=0):
    """Make the ``segment``-th segment file the WAL opens (the first by
    default) a :class:`ShortThenFull` file."""
    from repro.serve import wal as wal_mod

    opened = []

    def fake_open(path, mode="r", buffering=-1):
        raw = open(path, mode, buffering=buffering)
        if mode != "wb":
            return raw  # recovery reading or repairing the log
        opened.append(
            ShortThenFull(raw, budget if len(opened) == segment else None)
        )
        return opened[-1]

    monkeypatch.setattr(wal_mod, "open", fake_open, raising=False)
    return opened


class TestPartialHandOff:
    def test_short_write_then_enospc_keeps_whole_frames(
        self, tmp_path, monkeypatch
    ):
        """A hand-off of several frames fails part-way: the segment is
        cut back to the last whole frame that landed, the frames that did
        not land stay queued, and the failing append logged nothing."""
        payloads = [b"%02d" % index * 20 for index in range(6)]
        frame = len(encode_frame(payloads[0]))
        # Four appends queue; the fourth's sync hands them off and the
        # disk takes one frame and a half.
        failing_open(monkeypatch, _HEADER + frame + frame // 2)
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=4)
        for payload in payloads[:3]:
            writer.append(payload)
        with pytest.raises(OSError) as excinfo:
            writer.append(payloads[3])
        assert excinfo.value.errno == errno.ENOSPC
        assert writer.next_index == 3
        (_, path), = list_segments(directory)
        assert os.path.getsize(path) == _HEADER + frame
        # The retry logs the event once, behind the two frames that
        # were still queued.
        writer.append(payloads[3])
        assert writer.take_counts()[1] == 1
        for payload in payloads[4:]:
            writer.append(payload)
        writer.close()
        recovery = recover_wal(directory)
        assert [p for _, p in recovery.events] == payloads
        assert recovery.truncated_frames == 0

    def test_failure_on_the_frame_boundary_keeps_every_landed_frame(
        self, tmp_path, monkeypatch
    ):
        payloads = [b"abc", b"defg", b"hi"]
        landed = len(segment_blob(payloads[:2]))
        failing_open(monkeypatch, _HEADER + landed)
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=3)
        writer.append(payloads[0])
        writer.append(payloads[1])
        with pytest.raises(OSError):
            writer.append(payloads[2])
        (_, path), = list_segments(directory)
        assert os.path.getsize(path) == _HEADER + landed
        # Both frames landed whole: the flush syncs them and writes
        # nothing more.
        assert writer.flush()
        assert os.path.getsize(path) == _HEADER + landed
        writer.append(payloads[2])
        writer.close()
        assert [p for _, p in recover_wal(directory).events] == payloads

    def test_a_failed_segment_header_is_rewritten_by_the_retry(
        self, tmp_path, monkeypatch
    ):
        """The disk fills inside the header of the segment a rotation
        opens: the append logged nothing, and its retry reopens the same
        segment file rather than leaving a torn header mid-log."""
        failing_open(monkeypatch, _HEADER - 7, segment=1)
        directory = str(tmp_path / "wal")
        payloads = [b"%03d" % index * 10 for index in range(6)]
        writer = WalWriter(
            directory, sync_every=2,
            segment_bytes=_HEADER + len(segment_blob(payloads[:3])),
        )
        for payload in payloads[:3]:
            writer.append(payload)
        with pytest.raises(OSError):
            writer.append(payloads[3])
        assert writer.next_index == 3
        assert len(list_segments(directory)) == 2
        for payload in payloads[3:]:
            writer.append(payload)
        writer.close()
        assert [sequence for sequence, _ in list_segments(directory)] == [0, 1]
        recovery = recover_wal(directory)
        assert [p for _, p in recovery.events] == payloads
        assert recovery.truncated_frames == 0


    def test_a_refused_rollover_keeps_the_closed_segment(
        self, tmp_path, monkeypatch
    ):
        """The disk refuses the header of the segment a checkpoint rolls
        into: the checkpoint stands, the segment just closed stays as
        the log's position record, and the next append opens the new
        segment itself."""
        opened = failing_open(monkeypatch, _HEADER - 7, segment=1)
        directory = str(tmp_path / "wal")
        writer = WalWriter(directory, sync_every=1)
        for payload in PAYLOADS[:3]:
            writer.append(payload)
        assert writer.truncate_covered(3) == 0
        assert opened[1].failed
        assert recover_wal(directory, repair=False).next_index == 3
        writer.append(PAYLOADS[3])
        assert writer.truncate_covered(4) == 2
        (sequence, _), = list_segments(directory)
        assert sequence == 2
        writer.append(PAYLOADS[4])
        writer.close()
        recovery = recover_wal(directory)
        assert recovery.events == [(4, PAYLOADS[4])]
        assert recovery.truncated_frames == 0
