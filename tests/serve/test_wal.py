"""Unit and property tests for the segmented write-ahead log.

The torn-tail property here is the acceptance gate from the issue:
truncate a frame stream at *any* byte offset and decoding returns
exactly the complete frames before the cut — never a partial frame,
never a lost complete one.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFault, WalCorruptError, WalSealedError
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
        rotations = 0
        for index in range(20):
            receipt = writer.append(b"p" * 40)
            rotations += int(receipt.rotated)
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
        while not writer.append(b"p" * 40).rotated or appended < 6:
            appended += 1
        appended += 1
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
