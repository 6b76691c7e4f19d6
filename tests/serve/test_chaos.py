"""Chaos tests: kill the daemon mid-delta, resume, prove equivalence.

Reuses the :mod:`repro.faults` injection machinery: a planned
``serve.crash`` fault fires just before a delta batch mutates the
table, so the on-disk checkpoint always predates the interrupted
batch — exactly the state a real crash leaves behind.  Recovering —
from the checkpoint plus either the replayed stream or the WAL tail —
must land on clusters identical to an uninterrupted run.
"""

import os
import subprocess
import sys

import pytest

from repro.engine.state import read_checkpoint
from repro.errors import InjectedFault, WalSyncError
from repro.faults import (
    SITE_SERVE_CRASH,
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_WAL_TORN,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.serve import wal
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.wal import (
    FRAME_EVENT,
    WalWriter,
    encode_frame,
    list_segments,
    recover_wal,
)

from .test_daemon import CLIENT_A, fresh_table, log, mixed_stream
from .test_wal import failing_open

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: Feed 100 requests under ``wal_sync_every=64``, checkpoint, die
#: without unwinding: frames 64..99 (and whatever the segment's
#: BufferedWriter holds) were never handed to the kernel by the batched
#: sync alone.
KILL_AFTER_CHECKPOINT = """
import os, sys
from repro.serve.daemon import ServeConfig, ServeDaemon
from tests.serve.test_daemon import CLIENT_A, fresh_table, log

daemon = ServeDaemon(
    fresh_table(),
    ServeConfig(
        checkpoint_path=sys.argv[1], wal_dir=sys.argv[2], wal_sync_every=64
    ),
)
daemon.attach_wal()
for index in range(100):
    daemon.feed(log(CLIENT_A, f"/{index}"))
daemon.checkpoint_now()
os._exit(9)
"""


def crash_plan(at):
    return FaultPlan.build(FaultSpec(site=SITE_SERVE_CRASH, at=at))


def wal_config(tmp_path, **overrides):
    settings = dict(
        batch_size=2,
        checkpoint_path=str(tmp_path / "wal.ckpt"),
        checkpoint_every=3,
        wal_dir=str(tmp_path / "wal"),
        wal_sync_every=1,
        wal_segment_bytes=512,
    )
    settings.update(overrides)
    return ServeConfig(**settings)


class TestCrashResume:
    @pytest.mark.parametrize("crash_at", [0, 1, 2])
    def test_resume_after_crash_matches_uninterrupted_run(
        self, tmp_path, crash_at
    ):
        stream = mixed_stream()
        path = str(tmp_path / "crash.ckpt")

        reference = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
        for event in stream:
            reference.feed(event)
        reference.finish()
        expected = reference.snapshot(name="run")

        crashing = ServeDaemon(
            fresh_table(),
            ServeConfig(
                batch_size=2, checkpoint_path=path, checkpoint_every=3
            ),
            injector=FaultInjector(crash_plan(crash_at)),
        )
        with pytest.raises(InjectedFault):
            for event in stream:
                crashing.feed(event)
            crashing.finish()
        survived = crashing.events_consumed
        assert survived < len(stream)

        resumed = ServeDaemon(
            fresh_table(),
            ServeConfig(
                batch_size=2, checkpoint_path=path, checkpoint_every=3
            ),
        )
        assert resumed.recover() == 0
        assert 0 < resumed.events_consumed <= survived
        for event in stream:
            resumed.feed(event)
        resumed.finish()
        assert resumed.snapshot(name="run") == expected

    def test_crash_loses_no_checkpointed_work(self, tmp_path):
        """The checkpoint the crash leaves behind is itself verified:
        loading it yields the store as of its stream position."""
        stream = mixed_stream()
        path = str(tmp_path / "verify.ckpt")
        crashing = ServeDaemon(
            fresh_table(),
            ServeConfig(
                batch_size=2, checkpoint_path=path, checkpoint_every=4
            ),
            injector=FaultInjector(crash_plan(2)),
        )
        with pytest.raises(InjectedFault):
            for event in stream:
                crashing.feed(event)

        clean = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
        resumed = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        assert resumed.recover() == 0
        skip = resumed.events_consumed
        assert 0 < skip < crashing.events_consumed
        for event in stream[:skip]:
            clean.feed(event)
            resumed.feed(event)
        clean.finish()
        # finish() on the resumed daemon at the exact boundary is legal
        # (the covered events are all skipped) and must agree with the
        # clean run.
        resumed.finish()
        assert resumed.snapshot(name="boundary") == clean.snapshot(
            name="boundary"
        )


class TestWalRecovery:
    """Kill-and-recover from checkpoint + WAL tail alone — no upstream
    replay.  Only the events the crashed daemon never accepted are fed
    to the recovered one; everything it *did* accept must come back
    from the checkpoint and the WAL."""

    @pytest.mark.parametrize(
        "site,at",
        [
            (SITE_SERVE_CRASH, 0),
            (SITE_SERVE_CRASH, 2),
            (SITE_SERVE_WAL_TORN, 2),
            (SITE_SERVE_WAL_TORN, 11),
        ],
        ids=[
            "serve_crash_first_flush",
            "serve_crash_mid_stream",
            "serve_wal_torn_early",
            "serve_wal_torn_late",
        ],
    )
    def test_kill_and_recover_matches_uninterrupted_run(
        self, tmp_path, site, at
    ):
        stream = mixed_stream()

        reference = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
        for event in stream:
            reference.feed(event)
        reference.finish()
        expected = reference.snapshot(name="run")

        plan = FaultPlan.build(FaultSpec(site=site, at=at))
        crashing = ServeDaemon(
            fresh_table(), wal_config(tmp_path), injector=FaultInjector(plan)
        )
        crashing.attach_wal()
        with pytest.raises(InjectedFault):
            for event in stream:
                crashing.feed(event)
            crashing.finish()
        survived = crashing.events_consumed
        assert survived < len(stream)
        crashing.abort()

        recovered = ServeDaemon(fresh_table(), wal_config(tmp_path))
        refed = recovered.recover()
        # Every event the crashed daemon accepted is back, none was
        # checkpointed-and-lost, and at least the in-flight one had to
        # come from the WAL tail.
        assert recovered.events_consumed == survived
        assert refed >= 1
        assert recovered.metrics.wal_recovered_events == refed
        if site == SITE_SERVE_WAL_TORN:
            assert recovered.metrics.wal_truncated_frames == 1

        for event in stream[survived:]:
            recovered.feed(event)
        recovered.finish()
        assert recovered.snapshot(name="run") == expected

    def test_recover_after_graceful_finish_refeeds_nothing(self, tmp_path):
        stream = mixed_stream()
        daemon = ServeDaemon(fresh_table(), wal_config(tmp_path))
        daemon.attach_wal()
        for event in stream:
            daemon.feed(event)
        daemon.finish()
        expected = daemon.snapshot(name="run")
        assert recover_wal(wal_config(tmp_path).wal_dir, repair=False).sealed

        recovered = ServeDaemon(fresh_table(), wal_config(tmp_path))
        assert recovered.recover() == 0
        assert recovered.events_consumed == len(stream)
        assert recovered.snapshot(name="run") == expected
        # The recovered daemon keeps serving: extend the stream, finish,
        # and a third recovery still agrees with a clean end-to-end run.
        extension = mixed_stream()
        for event in extension:
            recovered.feed(event)
        recovered.finish()

        clean = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
        for event in stream + extension:
            clean.feed(event)
        clean.finish()
        third = ServeDaemon(fresh_table(), wal_config(tmp_path))
        third.recover()
        third.finish()
        assert third.snapshot(name="full") == clean.snapshot(name="full")

    def test_crash_before_any_checkpoint_recovers_from_wal_alone(
        self, tmp_path
    ):
        """No checkpoint file ever written: recovery legally starts from
        scratch because the WAL still holds every accepted event."""
        stream = mixed_stream()
        config = wal_config(tmp_path, checkpoint_every=0)
        plan = FaultPlan.build(FaultSpec(site=SITE_SERVE_WAL_TORN, at=5))
        crashing = ServeDaemon(
            fresh_table(), config, injector=FaultInjector(plan)
        )
        crashing.attach_wal()
        with pytest.raises(InjectedFault):
            for event in stream:
                crashing.feed(event)
        survived = crashing.events_consumed
        crashing.abort()

        recovered = ServeDaemon(fresh_table(), wal_config(tmp_path))
        assert recovered.recover() == survived
        for event in stream[survived:]:
            recovered.feed(event)
        recovered.finish()

        reference = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
        for event in stream:
            reference.feed(event)
        reference.finish()
        assert recovered.snapshot(name="run") == reference.snapshot(
            name="run"
        )

    def test_enospc_recovers_once_via_checkpoint_and_truncation(
        self, tmp_path
    ):
        stream = mixed_stream()
        plan = FaultPlan.build(FaultSpec(site=SITE_SERVE_WAL_ENOSPC, at=8))
        daemon = ServeDaemon(
            fresh_table(), wal_config(tmp_path), injector=FaultInjector(plan)
        )
        daemon.attach_wal()
        for event in stream:
            daemon.feed(event)
        daemon.finish()
        assert daemon.metrics.wal_enospc_recoveries == 1
        assert daemon.events_consumed == len(stream)

        reference = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
        for event in stream:
            reference.feed(event)
        reference.finish()
        assert daemon.snapshot(name="run") == reference.snapshot(name="run")

    def test_persistent_enospc_propagates(self, tmp_path):
        plan = FaultPlan.build(
            FaultSpec(site=SITE_SERVE_WAL_ENOSPC, at=3, count=-1)
        )
        daemon = ServeDaemon(
            fresh_table(), wal_config(tmp_path), injector=FaultInjector(plan)
        )
        daemon.attach_wal()
        with pytest.raises(OSError) as excinfo:
            for event in mixed_stream():
                daemon.feed(event)
        assert excinfo.value.errno == 28
        assert daemon.metrics.wal_enospc_recoveries == 0


class TestKillAfterCheckpoint:
    def test_checkpoint_never_gets_ahead_of_the_wal(self, tmp_path):
        """SIGKILL right after ``checkpoint_now``: the WAL must already
        hold every event the checkpoint counts, or ``recover`` finds a
        checkpoint past the end of the log and the daemon cannot
        restart."""
        checkpoint, wal_dir = str(tmp_path / "kill.ckpt"), str(tmp_path / "wal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        )
        killed = subprocess.run(
            [sys.executable, "-c", KILL_AFTER_CHECKPOINT, checkpoint, wal_dir],
            env=env, cwd=REPO_ROOT, timeout=60,
        )
        assert killed.returncode == 9

        assert recover_wal(wal_dir, repair=False).next_index == 100
        recovered = ServeDaemon(
            fresh_table(),
            ServeConfig(
                checkpoint_path=checkpoint, wal_dir=wal_dir, wal_sync_every=64
            ),
        )
        assert recovered.recover() == 0
        assert recovered.events_consumed == 100
        recovered.feed(log(CLIENT_A, "/after"))
        recovered.finish()
        assert recovered.snapshot(name="run").total_requests == 101


#: Feed 150 requests under ``wal_sync_every=64`` while each WAL
#: segment's disk fills part-way through a hand-off after 2000 bytes,
#: then die without unwinding.  Each rescue's checkpoint rolls the log
#: into a fresh segment with a fresh budget, so the rescues repeat.
KILL_AFTER_ENOSPC = """
import os, sys
import repro.serve.wal as wal
from repro.serve.daemon import ServeConfig, ServeDaemon
from tests.serve.test_daemon import CLIENT_A, fresh_table, log
from tests.serve.test_wal import ShortThenFull

def short_open(path, mode="r", buffering=-1):
    raw = open(path, mode, buffering=buffering)
    return ShortThenFull(raw, 2000) if mode == "wb" else raw

wal.open = short_open
daemon = ServeDaemon(
    fresh_table(),
    ServeConfig(
        checkpoint_path=sys.argv[1], wal_dir=sys.argv[2], wal_sync_every=64
    ),
)
daemon.attach_wal()
for index in range(150):
    daemon.feed(log(CLIENT_A, f"/{index}"))
assert daemon.metrics.wal_enospc_recoveries >= 2
os._exit(9)
"""


def _reference(events):
    reference = ServeDaemon(fresh_table(), ServeConfig(batch_size=2))
    for event in events:
        reference.feed(event)
    reference.finish()
    return reference.snapshot(name="run")


def _logged(events):
    return [event.to_json().encode("utf-8") for event in events]


class TestFullDiskUnderQueuedWal:
    """A full disk under the queued WAL: every event is logged exactly
    once, the log holds whole frames only, and recovery from it equals
    an uninterrupted run."""

    def test_serve_wal_enospc_in_batched_fsync_logs_each_event_once(
        self, tmp_path, monkeypatch
    ):
        """Regression: the fsync of the 4th append failing with ENOSPC
        used to send the already-written frame through the
        checkpoint-truncate-retry, which wrote it a second time (5
        frames for 4 events, 5 requests folded on recovery).  A failed
        fsync is not retried: the append raises WalSyncError."""
        events = [log(CLIENT_A, f"/{index}") for index in range(4)]
        config = wal_config(
            tmp_path, checkpoint_every=0, wal_sync_every=4,
            wal_segment_bytes=1 << 20,
        )
        real_fsync, calls = os.fsync, []

        def fsync_failing_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(28, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_failing_once)
        daemon = ServeDaemon(fresh_table(), config)
        daemon.attach_wal()
        with pytest.raises(WalSyncError):
            for event in events:
                daemon.feed(event)
        daemon.abort()
        monkeypatch.undo()

        recovery = recover_wal(config.wal_dir, repair=False)
        assert [p for _, p in recovery.events] == _logged(events)
        recovered = ServeDaemon(fresh_table(), config)
        assert recovered.recover() == 4
        recovered.finish()
        assert recovered.snapshot(name="run").total_requests == 4
        assert recovered.snapshot(name="run") == _reference(events)

    def test_serve_wal_enospc_mid_hand_off_leaves_whole_frames(
        self, tmp_path, monkeypatch
    ):
        """The disk fills part-way through a multi-frame hand-off: the
        segment is cut back to the last whole frame before the daemon's
        checkpoint-truncate-retry, so nothing is logged twice or half,
        and a crash after the rescue recovers to the uninterrupted
        report.  The rescue's checkpoint retires the frames it covers:
        the log keeps every frame after it."""
        events = mixed_stream() * 3
        config = wal_config(
            tmp_path, checkpoint_every=0, wal_sync_every=16,
            wal_segment_bytes=1 << 20,
        )
        opened = failing_open(monkeypatch, 17 + 500)
        daemon = ServeDaemon(fresh_table(), config)
        daemon.attach_wal()
        for event in events:
            daemon.feed(event)
        assert opened[0].failed
        assert daemon.metrics.wal_enospc_recoveries == 1
        assert os.path.exists(config.checkpoint_path)
        daemon.abort()

        covered = read_checkpoint(config.checkpoint_path)[1]["stream_events"]
        assert 0 < covered < len(events)
        recovery = recover_wal(config.wal_dir, repair=False)
        assert recovery.events[0][0] == covered
        assert [p for _, p in recovery.events] == _logged(events)[covered:]
        assert recovery.truncated_frames == 0
        recovered = ServeDaemon(fresh_table(), config)
        assert recovered.recover() == len(events) - covered
        recovered.finish()
        assert recovered.snapshot(name="run") == _reference(events)

    def test_serve_wal_enospc_in_a_segment_header_recovers_cleanly(
        self, tmp_path, monkeypatch
    ):
        """The disk fills inside the header of the segment a rotation
        opens, and the checkpoint-truncate-retry frees space: the retry
        rewrites that segment file rather than leaving a torn header
        mid-log, so the log reads back clean, each event once, to the
        uninterrupted report."""
        events = mixed_stream() * 3
        config = wal_config(
            tmp_path, checkpoint_every=0, wal_sync_every=16,
            wal_segment_bytes=1024,
        )
        opened = failing_open(monkeypatch, 10, segment=1)
        daemon = ServeDaemon(fresh_table(), config)
        daemon.attach_wal()
        for event in events:
            daemon.feed(event)
        assert opened[1].failed
        assert daemon.metrics.wal_enospc_recoveries == 1
        daemon.abort()

        recovery = recover_wal(config.wal_dir, repair=False)
        assert recovery.truncated_frames == 0
        assert recovery.next_index == len(events)
        first = recovery.events[0][0]
        assert [p for _, p in recovery.events] == _logged(events)[first:]
        recovered = ServeDaemon(fresh_table(), config)
        recovered.recover()
        recovered.finish()
        assert recovered.snapshot(name="run") == _reference(events)

    def test_kill_after_serve_wal_enospc_rescue_loses_at_most_one_buffer(
        self, tmp_path
    ):
        """SIGKILL after rescued ENOSPCs: the log holds a clean stretch
        of the stream from the newest checkpoint on, each event once,
        and the frames lost with the process fit in one st_blksize
        buffer."""
        checkpoint, wal_dir = str(tmp_path / "kill.ckpt"), str(tmp_path / "wal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        )
        killed = subprocess.run(
            [sys.executable, "-c", KILL_AFTER_ENOSPC, checkpoint, wal_dir],
            env=env, cwd=REPO_ROOT, timeout=60,
        )
        assert killed.returncode == 9

        events = [log(CLIENT_A, f"/{index}") for index in range(150)]
        covered = read_checkpoint(checkpoint)[1]["stream_events"]
        recovery = recover_wal(wal_dir, repair=False)
        assert recovery.truncated_frames == 0
        kept = recovery.next_index
        assert [i for i, _ in recovery.events] == list(range(covered, kept))
        assert [p for _, p in recovery.events] == _logged(
            events[covered:kept]
        )
        lost = sum(len(encode_frame(p)) for p in _logged(events[kept:]))
        (_, newest), = list_segments(wal_dir)[-1:]
        assert lost <= os.stat(newest).st_blksize

        recovered = ServeDaemon(
            fresh_table(),
            ServeConfig(
                checkpoint_path=checkpoint, wal_dir=wal_dir, wal_sync_every=64
            ),
        )
        recovered.recover()
        assert recovered.events_consumed == kept
        recovered.finish()
        assert recovered.snapshot(name="run") == _reference(events[:kept])


#: Serve ``mixed_stream() * 4`` with a checkpoint every 40 events and
#: 512-byte segments, and die inside the first checkpoint's WAL
#: truncation at the kill point named by ``sys.argv[3]``.
KILL_IN_CHECKPOINT = """
import os, sys
import repro.serve.wal as wal
from repro.serve.daemon import ServeDaemon
from tests.serve.test_chaos import wal_config_at
from tests.serve.test_daemon import fresh_table, mixed_stream

checkpoint, wal_dir, point = sys.argv[1:4]

def die(*args):
    os._exit(9)

if point == "after-checkpoint-write":
    wal.WalWriter.truncate_covered = die
elif point == "after-new-segment":
    real_sync = wal.WalWriter._sync_directory

    def sync_then_die(writer):
        real_sync(writer)
        die()

    wal.WalWriter._sync_directory = sync_then_die
else:
    real_unlink, unlinked = os.unlink, []

    def unlink_once_then_fail(path):
        unlinked.append(path)
        if len(unlinked) > 1:
            raise PermissionError(13, "Permission denied", path)
        real_unlink(path)

    os.unlink = unlink_once_then_fail
daemon = ServeDaemon(fresh_table(), wal_config_at(checkpoint, wal_dir))
daemon.attach_wal()
try:
    for event in mixed_stream() * 4:
        daemon.feed(event)
except PermissionError:
    die()
os._exit(1)
"""


def wal_config_at(checkpoint, wal_dir):
    return ServeConfig(
        batch_size=2, checkpoint_path=checkpoint, checkpoint_every=40,
        wal_dir=wal_dir, wal_sync_every=8, wal_segment_bytes=512,
    )


class TestCheckpointRetiresTheWal:
    """Each checkpoint rolls the log to a new segment and deletes the
    ones it covers: recovery decodes only the frames past it, and a
    kill anywhere in that sequence still recovers."""

    @pytest.mark.parametrize(
        "point", ["after-checkpoint-write", "after-new-segment",
                  "unlink-fails"],
    )
    def test_a_kill_inside_the_truncation_recovers_to_the_report(
        self, tmp_path, point
    ):
        checkpoint, wal_dir = str(tmp_path / "kill.ckpt"), str(tmp_path / "wal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        )
        killed = subprocess.run(
            [sys.executable, "-c", KILL_IN_CHECKPOINT, checkpoint, wal_dir,
             point],
            env=env, cwd=REPO_ROOT, timeout=60,
        )
        assert killed.returncode == 9

        events = mixed_stream() * 4
        recovery = recover_wal(wal_dir, repair=False)
        assert recovery.next_index == 40
        assert recovery.truncated_frames == 0
        first = recovery.events[0][0] if recovery.events else 40
        assert [p for _, p in recovery.events] == _logged(events)[first:40]
        sequences = [sequence for sequence, _ in list_segments(wal_dir)]
        if point == "after-checkpoint-write":
            assert first == 0
        else:
            # The new segment, empty, starts at the checkpoint.
            assert recovery.segments[-1][1:3] == (40, 40)
            assert (sequences[0] > 0) == (point == "unlink-fails")
        recovered = ServeDaemon(
            fresh_table(), wal_config_at(checkpoint, wal_dir)
        )
        assert recovered.recover() == 0
        assert recovered.events_consumed == 40
        for event in events[40:]:
            recovered.feed(event)
        recovered.finish()
        assert recovered.snapshot(name="run") == _reference(events)

    def test_recovery_decodes_only_the_frames_past_the_checkpoint(
        self, tmp_path, monkeypatch
    ):
        events = mixed_stream() * 4
        config = wal_config(
            tmp_path, checkpoint_every=20, wal_sync_every=4,
            wal_segment_bytes=1 << 20,
        )
        daemon = ServeDaemon(fresh_table(), config)
        daemon.attach_wal()
        for event in events[:50]:
            daemon.feed(event)
        daemon.abort()

        real_decode, decoded = wal.decode_frames, []

        def counting_decode(blob, start=0):
            frames, consumed, clean = real_decode(blob, start)
            decoded.extend(frames)
            return frames, consumed, clean

        monkeypatch.setattr(wal, "decode_frames", counting_decode)
        recovered = ServeDaemon(fresh_table(), config)
        assert recovered.recover() == 10
        assert decoded == [(FRAME_EVENT, p) for p in _logged(events[40:50])]
        for event in events[50:]:
            recovered.feed(event)
        recovered.finish()
        assert recovered.snapshot(name="run") == _reference(events)

    def test_a_log_that_keeps_frames_before_the_checkpoint_recovers(
        self, tmp_path, monkeypatch
    ):
        """The layout of a log written before checkpoints rolled it
        over: one segment holding every frame since event 0.  It
        recovers to the same report, and the resumed run's next
        checkpoint retires it."""
        events = mixed_stream() * 4
        config = wal_config(
            tmp_path, checkpoint_every=20, wal_sync_every=4,
            wal_segment_bytes=1 << 20,
        )
        with monkeypatch.context() as patched:
            # Deletes closed segments only, and none ever closes.
            patched.setattr(
                WalWriter, "truncate_covered", lambda writer, upto: 0
            )
            daemon = ServeDaemon(fresh_table(), config)
            daemon.attach_wal()
            for event in events[:50]:
                daemon.feed(event)
            daemon.abort()
        (_, old), = list_segments(config.wal_dir)
        assert recover_wal(config.wal_dir, repair=False).events[0][0] == 0

        recovered = ServeDaemon(fresh_table(), config)
        assert recovered.recover() == 10
        for event in events[50:]:
            recovered.feed(event)
        recovered.finish()
        assert recovered.snapshot(name="run") == _reference(events)
        assert not os.path.exists(old)
        assert len(list_segments(config.wal_dir)) == 1
        recovery = recover_wal(config.wal_dir)
        assert recovery.sealed and recovery.events == []
        assert recovery.next_index == len(events)


#: ``repro-engine serve --wal`` on a disk that fills after 2000 bytes of
#: the first segment and stays full.
SERVE_ON_A_FULL_DISK = """
import sys
import repro.serve.wal as wal
from repro.serve.cli import serve_main
from tests.serve.test_wal import ShortThenFull

def full_open(path, mode="r", buffering=-1):
    raw = open(path, mode, buffering=buffering)
    if mode != "wb":
        return raw
    return ShortThenFull(raw, 2000, frees_space=False)

wal.open = full_open
sys.exit(serve_main(sys.argv[1:]))
"""


def test_serve_wal_enospc_that_persists_exits_5_with_whole_frames(tmp_path):
    """The disk stays full through the checkpoint-truncate-retry: the
    CLI reports it and exits 5 (the abort's own hand-off of the queued
    frames fails too and must not replace that with a traceback), and
    the log holds whole frames, each event at most once."""
    dump = tmp_path / "routes.dump"
    dump.write_text("10.0.0.0/8\thop1\t7018\n12.0.0.0/8\thop2\t64500\n")
    events = [log(CLIENT_A, f"/{index}") for index in range(200)]
    stream = tmp_path / "stream.ndjson"
    stream.write_text("".join(event.to_json() + "\n" for event in events))
    wal_dir = str(tmp_path / "wal")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    )
    with open(stream) as stdin:
        served = subprocess.run(
            [sys.executable, "-c", SERVE_ON_A_FULL_DISK, "--stdin",
             "--table", str(dump), "--checkpoint", str(tmp_path / "c.ckpt"),
             "--wal", wal_dir, "--wal-sync-every", "64"],
            stdin=stdin, capture_output=True, text=True, env=env,
            cwd=REPO_ROOT, timeout=60,
        )
    assert served.returncode == 5, served.stderr
    assert "fatal: write-ahead log out of disk space" in served.stderr
    assert "Traceback" not in served.stderr
    recovery = recover_wal(wal_dir, repair=False)
    assert recovery.truncated_frames == 0
    kept = recovery.next_index
    assert 0 < kept < len(events)
    assert [p for _, p in recovery.events] == _logged(events[:kept])


#: ``repro-engine serve --wal`` dying of an error it does not handle
#: while parsing its 151st line.
SERVE_THEN_AN_UNEXPECTED_ERROR = """
import sys
import repro.serve.cli as cli
from repro.serve.cli import serve_main

real_parse, lines = cli.parse_event, []

def parse_then_fail(line):
    lines.append(line)
    if len(lines) > 150:
        raise RuntimeError("unexpected")
    return real_parse(line)

cli.parse_event = parse_then_fail
sys.exit(serve_main(sys.argv[1:]))
"""


def test_an_unexpected_error_hands_the_queued_wal_frames_to_the_kernel(
    tmp_path,
):
    """An exception the CLI does not handle still runs the abort path
    before the traceback: every event fed before it is in the log, not
    only those a full buffer or a due sync had handed off."""
    dump = tmp_path / "routes.dump"
    dump.write_text("10.0.0.0/8\thop1\t7018\n12.0.0.0/8\thop2\t64500\n")
    events = [log(CLIENT_A, f"/{index}") for index in range(200)]
    stream = tmp_path / "stream.ndjson"
    stream.write_text("".join(event.to_json() + "\n" for event in events))
    wal_dir = str(tmp_path / "wal")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    )
    with open(stream) as stdin:
        served = subprocess.run(
            [sys.executable, "-c", SERVE_THEN_AN_UNEXPECTED_ERROR, "--stdin",
             "--table", str(dump), "--wal", wal_dir,
             "--wal-sync-every", "1000"],
            stdin=stdin, capture_output=True, text=True, env=env,
            cwd=REPO_ROOT, timeout=60,
        )
    assert served.returncode == 1
    assert "RuntimeError: unexpected" in served.stderr
    recovery = recover_wal(wal_dir, repair=False)
    assert recovery.truncated_frames == 0
    assert [p for _, p in recovery.events] == _logged(events[:150])
