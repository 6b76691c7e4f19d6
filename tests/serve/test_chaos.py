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

from repro.errors import InjectedFault
from repro.faults import (
    SITE_SERVE_CRASH,
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_WAL_TORN,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.wal import recover_wal

from .test_daemon import CLIENT_A, fresh_table, log, mixed_stream

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
