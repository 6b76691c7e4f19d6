"""Unit tests for the serve event loop (batching, patching, resume)."""

import contextlib
import copy
import errno
import io
import os

import pytest

from repro.bgp.synth import RouteDelta
from repro.cli import print_cluster_report
from repro.engine.fastpath import MemoizedLookup
from repro.engine.metrics import METRICS
from repro.engine.packed import PackedLpm
from repro.engine.state import (
    CheckpointError,
    CheckpointTableMismatchError,
    ClusterStore,
    write_checkpoint,
)
from repro.errors import ServeProtocolError
from repro.net.prefix import Prefix
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.protocol import LineSplitter, LogEvent, parse_event
from repro.serve.wal import recover_wal
from tests.serve.test_protocol import HOSTILE_LOG_LINES

P8 = Prefix.from_cidr("10.0.0.0/8")
P16 = Prefix.from_cidr("10.1.0.0/16")
Q8 = Prefix.from_cidr("12.0.0.0/8")

#: Clients inside the tiny table (10.1/16 covers A and B; 10.2.0.5
#: falls through to 10/8; 12.0.0.9 lands in 12/8; 99/8 is unrouted).
CLIENT_A = (10 << 24) | (1 << 16) | 5
CLIENT_B = (10 << 24) | (1 << 16) | 6
CLIENT_P = (10 << 24) | (2 << 16) | 5
CLIENT_Q = (12 << 24) | 9
CLIENT_X = (99 << 24) | 1


def fresh_table():
    return PackedLpm.from_items(
        sorted(
            {P8: "ten", P16: "ten-one", Q8: "twelve"}.items(),
            key=lambda kv: kv[0].sort_key(),
        )
    )


def log(client, url="/", size=100):
    return LogEvent(client=client, url=url, size=size)


def announce(prefix, origin_asn=64500):
    return RouteDelta(
        op=RouteDelta.OP_ANNOUNCE,
        prefix=prefix,
        origin_asn=origin_asn,
        source="AADS",
        reason="test",
    )


def withdraw(prefix):
    return RouteDelta(
        op=RouteDelta.OP_WITHDRAW, prefix=prefix, source="AADS", reason="test"
    )


def run(events, **config):
    daemon = ServeDaemon(fresh_table(), ServeConfig(**config))
    for event in events:
        daemon.feed(event)
    daemon.finish()
    return daemon


def clusters_by_prefix(daemon):
    snapshot = daemon.snapshot(name="test")
    return {cluster.identifier: cluster for cluster in snapshot.clusters}


class TestClustering:
    def test_log_events_accumulate_into_clusters(self):
        daemon = run([log(CLIENT_A, "/a"), log(CLIENT_B, "/b"), log(CLIENT_Q)])
        clusters = clusters_by_prefix(daemon)
        assert sorted(clusters[P16].clients) == [CLIENT_A, CLIENT_B]
        assert clusters[P16].requests == 2
        assert clusters[Q8].clients == [CLIENT_Q]

    def test_unrouted_client_is_unclustered(self):
        daemon = run([log(CLIENT_X)])
        assert daemon.snapshot().unclustered_clients == [CLIENT_X]

    def test_withdraw_moves_clients_to_covering_prefix(self):
        daemon = run([log(CLIENT_A), log(CLIENT_A), withdraw(P16)])
        clusters = clusters_by_prefix(daemon)
        assert P16 not in clusters  # emptied and swept
        assert clusters[P8].clients == [CLIENT_A]
        assert clusters[P8].requests == 2
        assert daemon.metrics.clients_reclustered == 1
        assert daemon.metrics.routes_withdrawn == 1

    def test_announce_moves_clients_to_more_specific(self):
        new = Prefix.from_cidr("10.2.0.0/16")
        daemon = run([log(CLIENT_P), announce(new)])
        clusters = clusters_by_prefix(daemon)
        assert clusters[new].clients == [CLIENT_P]
        assert P8 not in clusters
        assert daemon.metrics.routes_announced == 1

    def test_event_order_is_serialization_order(self):
        """A delta applies between the requests around it: requests
        after the withdraw resolve straight to the parent while the
        earlier client is migrated there."""
        daemon = run(
            [log(CLIENT_A), withdraw(P16), log(CLIENT_B)], batch_size=1000
        )
        clusters = clusters_by_prefix(daemon)
        assert sorted(clusters[P8].clients) == [CLIENT_A, CLIENT_B]
        assert clusters[P8].requests == 2

    def test_withdraw_all_routes_unclusters(self):
        daemon = run(
            [log(CLIENT_A), withdraw(P16), withdraw(P8), withdraw(Q8)]
        )
        snapshot = daemon.snapshot()
        assert snapshot.clusters == []
        assert snapshot.unclustered_clients == [CLIENT_A]

    def test_patch_metrics_accumulate(self):
        daemon = run(
            [log(CLIENT_A), withdraw(P16), log(CLIENT_B), announce(P16)]
        )
        assert daemon.metrics.patches_applied == 2
        assert daemon.metrics.routes_announced == 1
        assert daemon.metrics.routes_withdrawn == 1
        assert daemon.metrics.patch_rebuild_fallbacks == 0
        assert daemon.metrics.patch_seconds >= 0.0


class TestLiveStats:
    """Memo (and sanitize) counters move per flush, not only at finish."""

    @staticmethod
    def memo_daemon():
        return ServeDaemon(
            MemoizedLookup(fresh_table(), maxsize=8), ServeConfig(batch_size=16)
        )

    @staticmethod
    def requests():
        clients = (CLIENT_A, CLIENT_B, CLIENT_P, CLIENT_Q, CLIENT_X)
        return [log(clients[i % len(clients)], f"/{i % 7}") for i in range(40)]

    def events(self):
        requests = self.requests()
        return requests[:20] + [withdraw(P16)] + requests[20:]

    def test_memo_hits_show_before_finish(self):
        daemon = self.memo_daemon()
        for event in self.requests():
            daemon.feed(event)
        daemon._flush_all()
        assert daemon.metrics.lookups == 40
        assert daemon.metrics.memo_hits > 0
        assert daemon.metrics.memo_hits + daemon.metrics.memo_misses == 40

    def test_final_snapshot_matches_a_drain_at_finish_only(self, monkeypatch):
        def counts(daemon):
            return {
                spec.name: getattr(daemon.metrics, spec.name)
                for spec in METRICS
                if spec.metadata["kind"] == "count"
            }

        live = self.memo_daemon()
        for event in self.events():
            live.feed(event)
        live.finish()
        # The same run with the per-flush drains switched off: finish()
        # alone moves the counters, as it once did.
        monkeypatch.setattr(ServeDaemon, "_flush_logs", _undrained(ServeDaemon._flush_logs))
        monkeypatch.setattr(ServeDaemon, "_flush_deltas", _undrained(ServeDaemon._flush_deltas))
        once = self.memo_daemon()
        for event in self.events():
            once.feed(event)
        once._flush_all()
        assert once.metrics.memo_hits == 0
        once.finish()
        assert counts(live) == counts(once)
        assert live.metrics.memo_hits > 0


def _undrained(flush):
    def wrapper(self):
        drain, self._drain_stats = self._drain_stats, lambda: None
        try:
            flush(self)
        finally:
            self._drain_stats = drain
    return wrapper


def mixed_stream():
    """A deterministic 16-event stream mixing requests and deltas."""
    new = Prefix.from_cidr("10.2.0.0/16")
    return [
        log(CLIENT_A, "/1"),
        log(CLIENT_B, "/2"),
        log(CLIENT_P, "/3"),
        withdraw(P16),
        log(CLIENT_A, "/4"),
        log(CLIENT_Q, "/5"),
        announce(new),
        log(CLIENT_P, "/6"),
        log(CLIENT_X, "/7"),
        announce(P16),
        log(CLIENT_B, "/8"),
        log(CLIENT_A, "/9"),
        withdraw(new),
        log(CLIENT_P, "/10"),
        log(CLIENT_Q, "/11"),
        log(CLIENT_B, "/12"),
    ]


def report(daemon):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print_cluster_report(daemon.snapshot(name="run"), 0, None)
    return buffer.getvalue()


def restored(path, **config):
    """A fresh daemon on a fresh table, back in through the one door."""
    daemon = ServeDaemon(
        fresh_table(), ServeConfig(checkpoint_path=path, **config)
    )
    assert daemon.recover() == 0  # no WAL: nothing is ever re-fed
    return daemon


class TestResume:
    """Restore without a WAL: state from the checkpoint, then the
    upstream replayed from its start with the covered events skipped."""

    def test_resume_replays_to_identical_clusters(self, tmp_path):
        stream = mixed_stream()
        path = str(tmp_path / "serve.ckpt")

        first = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        for event in stream[:11]:
            first.feed(event)
        first.checkpoint_now()
        for event in stream[11:]:
            first.feed(event)
        first.finish()
        reference = first.snapshot(name="run")

        # The final checkpoint covers the whole stream: every replayed
        # event is skipped and the restored state is already the end.
        resumed = restored(path, batch_size=2)
        assert resumed.events_consumed == len(stream)
        assert resumed.snapshot(name="run") == reference
        for event in stream:
            resumed.feed(event)
        resumed.finish()
        assert resumed.events_consumed == len(stream)
        assert resumed.snapshot(name="run") == reference

    def test_resume_from_midstream_checkpoint(self, tmp_path):
        stream = mixed_stream()
        path = str(tmp_path / "mid.ckpt")

        reference = run(list(stream), batch_size=2)

        first = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        for event in stream[:9]:
            first.feed(event)
        first.checkpoint_now()
        # The process "dies" here: nothing after the checkpoint lands.

        resumed = restored(path, batch_size=2)
        assert resumed.events_consumed == 9
        assert resumed.deltas_received == first.deltas_received
        assert resumed.table.digest() == first.table.digest()
        assert (resumed.table.epoch, resumed.table.deltas_applied) == (
            first.table.epoch, first.table.deltas_applied
        )
        for event in stream[:9]:
            resumed.feed(event)
        assert resumed.events_consumed == 9  # all nine were skipped
        for event in stream[9:]:
            resumed.feed(event)
        resumed.finish()
        assert resumed.events_consumed == len(stream)
        assert resumed.snapshot(name="run") == reference.snapshot(name="run")
        assert report(resumed) == report(reference)

    def test_resume_with_different_batching_matches_uninterrupted_run(
        self, tmp_path
    ):
        """The routing state comes back from the checkpoint's route
        diff, so neither ``batch_size`` nor ``checkpoint_every`` has to
        match the interrupted run's.  The periodic checkpoint after
        event 3 splits the two-delta run into two patches; a resume
        that re-applied the replayed deltas under other flags would
        coalesce them into one and land on another routing generation."""
        new = Prefix.from_cidr("10.2.0.0/16")
        stream = [
            log(CLIENT_A, "/1"), log(CLIENT_P, "/2"), withdraw(P16),
            announce(new), log(CLIENT_A, "/3"), log(CLIENT_P, "/4"),
            log(CLIENT_B, "/5"), announce(P16), log(CLIENT_B, "/6"),
            log(CLIENT_Q, "/7"),
        ]
        path = str(tmp_path / "flags.ckpt")
        reference = run(list(stream), batch_size=64)

        first = ServeDaemon(
            fresh_table(),
            ServeConfig(batch_size=2, checkpoint_path=path, checkpoint_every=3),
        )
        for event in stream[:7]:
            first.feed(event)

        resumed = restored(path, batch_size=5, checkpoint_every=4)
        assert resumed.events_consumed == 6
        assert int(resumed.table.epoch) == 2
        for event in stream:
            resumed.feed(event)
        resumed.finish()
        assert resumed.snapshot(name="run") == reference.snapshot(name="run")
        assert report(resumed) == report(reference)

    def test_resume_with_diverged_stream_raises(self, tmp_path):
        stream = mixed_stream()
        path = str(tmp_path / "diverge.ckpt")
        first = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        for event in stream[:9]:
            first.feed(event)
        first.checkpoint_now()

        resumed = restored(path, batch_size=2)
        # Replay a different prefix history: at the boundary the
        # skipped route events do not net the checkpoint's route diff.
        diverged = [withdraw(Q8)] + stream[1:]
        with pytest.raises(CheckpointTableMismatchError):
            for event in diverged:
                resumed.feed(event)

    def test_resume_diverging_in_prefix_set_only_raises(self, tmp_path):
        """Same number of route events at the same stream positions,
        but one differs — in its prefix, only in its origin, or by
        withdrawing a prefix that was never routed (a no-op on the
        table): the net diff of the skipped events is not the
        checkpoint's."""
        stream = mixed_stream()
        path = str(tmp_path / "digest.ckpt")
        first = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        for event in stream[:9]:
            first.feed(event)
        first.checkpoint_now()

        for position, intruder in [
            (6, announce(Prefix.from_cidr("10.3.0.0/16"))),
            (6, announce(Prefix.from_cidr("10.2.0.0/16"), origin_asn=64999)),
            (0, withdraw(Prefix.from_cidr("10.9.0.0/16"))),
        ]:
            resumed = restored(path, batch_size=2)
            diverged = list(stream)
            diverged[position] = intruder
            with pytest.raises(
                CheckpointTableMismatchError, match="different routing table"
            ):
                for event in diverged:
                    resumed.feed(event)
            assert resumed.events_consumed == 9

    def test_stream_ending_mid_replay_raises(self, tmp_path):
        stream = mixed_stream()
        path = str(tmp_path / "short.ckpt")
        first = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        for event in stream:
            first.feed(event)
        first.finish()

        resumed = restored(path, batch_size=2)
        for event in stream[:5]:
            resumed.feed(event)
        with pytest.raises(CheckpointTableMismatchError, match="11 events short"):
            resumed.finish()

    def test_restore_refuses_a_batch_engine_checkpoint(self, tmp_path):
        path = str(tmp_path / "batch.ckpt")
        write_checkpoint(path, [ClusterStore()], meta={"log": "access.log"})
        daemon = ServeDaemon(fresh_table(), ServeConfig(checkpoint_path=path))
        with pytest.raises(CheckpointError, match="not a serve checkpoint"):
            daemon.recover()


class TestCheckpointCountdown:
    def test_direct_checkpoint_resets_periodic_countdown(self, tmp_path):
        """A checkpoint_now() call restarts the --checkpoint-every
        countdown: the next periodic checkpoint lands a full interval
        later, not on the stale schedule."""
        path = str(tmp_path / "count.ckpt")
        daemon = ServeDaemon(
            fresh_table(),
            ServeConfig(
                batch_size=2, checkpoint_path=path, checkpoint_every=4
            ),
        )
        for event in [log(CLIENT_A), log(CLIENT_B), log(CLIENT_A)]:
            daemon.feed(event)
        daemon.checkpoint_now()
        written = daemon.metrics.checkpoints_written
        # One more event reaches the old schedule's 4th slot — with the
        # countdown reset it must NOT checkpoint early...
        daemon.feed(log(CLIENT_B))
        assert daemon.metrics.checkpoints_written == written
        # ...but a full interval after the manual checkpoint, it must.
        for event in [log(CLIENT_A), log(CLIENT_B), log(CLIENT_A)]:
            daemon.feed(event)
        assert daemon.metrics.checkpoints_written == written + 1


class _FailingWal:
    """A WAL writer whose every append fails the way a dying disk does."""

    sealed = False

    def append(self, payload):
        raise OSError(errno.EIO, "Input/output error")


def observable_state(daemon):
    """Everything a feed() could move, as comparable plain values."""
    return {
        "events_consumed": daemon.events_consumed,
        "deltas_received": daemon.deltas_received,
        "metrics": daemon.metrics.snapshot(),
        "pending_logs": list(daemon._pending_logs),
        "pending_deltas": dict(daemon._pending_deltas),
        "skip": daemon._skip,
        "skipped_routes": dict(daemon._skipped_routes),
        "since_checkpoint": daemon._since_checkpoint,
        "route_diff": dict(daemon._route_diff),
        "store": copy.deepcopy(vars(daemon.store)),
        "table": daemon.table.digest(),
    }


class TestAppendBeforeApply:
    """feed() logs an event before any state moves: recovery replays
    exactly the WAL, so state that ran ahead of a failed append would
    hold an event the log never will."""

    #: Each event follows a prefix that leaves the *other* kind pending,
    #: so an event that got past the append would also flush that batch.
    CASES = {
        "log": (
            [log(CLIENT_A), log(CLIENT_B), announce(P16)],
            log(CLIENT_Q),
        ),
        "delta": (
            [log(CLIENT_A), announce(P16), log(CLIENT_B), log(CLIENT_Q)],
            withdraw(P16),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failed_append_leaves_state_untouched(self, case):
        prefix, event = self.CASES[case]
        daemon = ServeDaemon(fresh_table(), ServeConfig(batch_size=64))
        for earlier in prefix:
            daemon.feed(earlier)
        daemon._wal = _FailingWal()
        before = observable_state(daemon)
        with pytest.raises(OSError):
            daemon.feed(event)
        assert observable_state(daemon) == before
        # The snapshot does see a feed that gets through.
        daemon._wal = None
        daemon.feed(event)
        assert observable_state(daemon) != before


class TestOverload:
    """There is no overload gate: every event goes straight to
    ``feed``.  What is left of the old ingress queue is the names the
    benchmark harness still calls."""

    def test_zero_watermark_feeds_directly(self):
        daemon = ServeDaemon(fresh_table(), ServeConfig(batch_size=4))
        for index in range(50):
            daemon.submit(log(CLIENT_A))
            assert daemon.ingress_depth == 0
        assert daemon.pump() == 0
        assert daemon.events_consumed == 50
        assert daemon.metrics.shed_events == 0

    def test_health_keys(self):
        daemon = ServeDaemon(fresh_table(), ServeConfig(batch_size=8))
        for index in range(3):
            daemon.feed(log(CLIENT_A))
        health = daemon.health()
        assert list(health) == [
            "events", "deltas", "clusters", "unclustered", "wal_appends",
            "checkpoints", "checkpoint_bytes", "route_diff", "epoch",
        ]
        assert health["events"] == 3

    def test_health_reports_route_diff_and_checkpoint_bytes(self, tmp_path):
        path = str(tmp_path / "health.ckpt")
        daemon = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, checkpoint_path=path)
        )
        assert daemon.health()["route_diff"] == 0
        assert daemon.health()["checkpoint_bytes"] == 0
        for event in mixed_stream():
            daemon.feed(event)
        daemon.finish()
        # mixed_stream touches two distinct prefixes, twice each.
        assert daemon.health()["route_diff"] == 2
        assert daemon.health()["checkpoint_bytes"] == os.path.getsize(path)


class TestHostileLines:
    """Hostile log lines in the stream are decode errors: counted and
    skipped, never fed — so they neither kill the daemon (at the next
    flush, or in the WAL append) nor change its clusters."""

    @staticmethod
    def serve(lines, wal_dir):
        """The serve loop's path: split, decode, count or feed."""
        daemon = ServeDaemon(
            fresh_table(), ServeConfig(batch_size=2, wal_dir=wal_dir)
        )
        if wal_dir is not None:
            daemon.attach_wal()
        splitter = LineSplitter()
        splitter.push(("\n".join(lines) + "\n").encode("utf-8"))
        while True:
            line = splitter.next_line()
            if line is None:
                break
            try:
                event = parse_event(line)
            except ServeProtocolError:
                daemon.metrics.record_malformed()
                continue
            daemon.feed(event)
        daemon.finish()
        return daemon

    @pytest.mark.parametrize("wal", [False, True], ids=["no_wal", "wal"])
    def test_counted_and_skipped_with_the_clean_report(self, tmp_path, wal):
        clean = [event.to_json() for event in mixed_stream()]
        dirty = list(clean)
        for offset, line in enumerate(HOSTILE_LOG_LINES):
            dirty.insert(2 * offset + 1, line)
        wal_dir = str(tmp_path / "wal") if wal else None
        reference = self.serve(clean, None)
        daemon = self.serve(dirty, wal_dir)
        assert daemon.metrics.malformed_skipped == len(HOSTILE_LOG_LINES)
        assert reference.metrics.malformed_skipped == 0
        assert daemon.events_consumed == len(clean)
        assert report(daemon) == report(reference)
        if wal:
            assert recover_wal(wal_dir).next_index == len(clean)
