"""Route-diff checkpoints: a WAL-mode checkpoint holds the base table's
digest plus the net route diff, never the table.

The property test drives random mixed streams through ``checkpoint_now``
/ ``abort`` / ``recover`` onto a *fresh base table* and requires the end
state to equal the uninterrupted run's; the unit tests pin the base
precondition, the version bump, and that checkpoint size follows the
churn, not the table.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.table import LookupResult
from repro.engine import state
from repro.engine.fastpath import MemoizedLookup, StrideLpm
from repro.engine.packed import PackedLpm
from repro.engine.state import (
    CheckpointTableMismatchError,
    CheckpointVersionError,
    read_checkpoint,
)
from repro.net.prefix import Prefix
from repro.serve.daemon import PATCH_FALLBACK_FLOOR, ServeConfig, ServeDaemon

from .test_chaos import wal_config
from .test_daemon import announce, log, withdraw

#: Nested /8../24 prefixes; the first half is the base table, the rest
#: only ever arrive as announcements.
POOL = [
    Prefix.from_cidr(text)
    for text in (
        "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16",
        "12.0.0.0/8", "12.4.0.0/14", "20.0.0.0/8", "20.1.0.0/16",
        "10.1.3.0/24", "10.3.0.0/16", "12.4.1.0/24", "12.8.0.0/13",
        "20.1.1.0/24", "20.2.0.0/15", "30.0.0.0/8", "30.1.0.0/16",
    )
]
BASE = POOL[: len(POOL) // 2]
#: One run of consecutive deltas wide enough to take ``_rebuild``.
BURST = [
    Prefix((172 << 24) | (16 << 16) | (index << 8), 24)
    for index in range(PATCH_FALLBACK_FLOOR + 6)
]
CLIENTS = [
    (10 << 24) | (1 << 16) | (2 << 8) | 9, (10 << 24) | (1 << 16) | (3 << 8) | 9,
    (10 << 24) | (2 << 16) | 7, (10 << 24) | (3 << 16) | 7, (10 << 24) | 1,
    (12 << 24) | (4 << 16) | (1 << 8) | 5, (12 << 24) | (9 << 16) | 5,
    (20 << 24) | (1 << 16) | (1 << 8) | 3, (20 << 24) | (3 << 16) | 3,
    (30 << 24) | (1 << 16) | 2, (172 << 24) | (16 << 16) | (5 << 8) | 1,
    (99 << 24) | 1,
]
KINDS = ("packed", "stride", "memo-stride")


def base_table(kind, prefixes=BASE):
    items = [
        (prefix, f"base-{prefix.cidr}")
        for prefix in sorted(prefixes, key=Prefix.sort_key)
    ]
    if kind == "packed":
        return PackedLpm.from_items(items)
    if kind == "stride":
        return StrideLpm.from_items(items)
    return MemoizedLookup(StrideLpm.from_items(items), maxsize=8)


def durable_config(directory, **overrides):
    """The chaos suite's WAL config, minus periodic checkpoints (the
    tests place their own) and per-event fsyncs."""
    settings_ = dict(checkpoint_every=0, wal_sync_every=64)
    settings_.update(overrides)
    return wal_config(Path(directory), **settings_)


def end_state(daemon):
    """(everything but the generation, the generation)."""
    table = daemon.table
    table.verify_patched()
    return (
        daemon.snapshot(name="run"),
        list(table.items()),
        table.digest(),
        daemon.events_consumed,
        daemon.deltas_received,
        daemon.health()["route_diff"],
    ), (int(table.epoch), int(table.deltas_applied))


def plain_leaves(node):
    """Every non-container object reachable from ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from plain_leaves(key)
            yield from plain_leaves(value)
    elif isinstance(node, (list, tuple, set, frozenset)):
        for item in node:
            yield from plain_leaves(item)
    else:
        yield node


# Announce covers new / existing (a fresh origin_asn is a value update) /
# base prefixes, withdraw covers present / absent ones, and the same
# index drawn twice is withdraw-then-reannounce (or the reverse).
step_strategy = st.one_of(
    st.tuples(st.just("log"), st.integers(0, len(CLIENTS) - 1)),
    st.tuples(
        st.just("announce"),
        st.integers(0, len(POOL) - 1),
        st.integers(64500, 64503),
    ),
    st.tuples(st.just("withdraw"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("withdraw-burst"), st.integers(0, len(BURST) - 1)),
)


def expand(steps, burst_at=None):
    """Steps -> one event list per step, the oversized burst riding in
    front of step ``burst_at`` (if any) — kept inside one step so no
    checkpoint or crash can split it below the crossover."""
    burst = [announce(prefix, 64999) for prefix in BURST]
    chunks = []
    for index, step in enumerate(steps):
        if step[0] == "log":
            event = log(CLIENTS[step[1]], url=f"/{index}")
        elif step[0] == "announce":
            event = announce(POOL[step[1]], origin_asn=step[2])
        elif step[0] == "withdraw":
            event = withdraw(POOL[step[1]])
        else:
            event = withdraw(BURST[step[1]])
        chunks.append(burst + [event] if index == burst_at else [event])
    return chunks


@pytest.mark.parametrize("kind", KINDS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    steps=st.lists(step_strategy, min_size=4, max_size=40),
    burst_seed=st.integers(min_value=0),
    crash_seeds=st.lists(st.integers(min_value=0), min_size=2, max_size=3),
    crash_mid_run=st.booleans(),
    checkpoint_seeds=st.lists(st.integers(min_value=0), max_size=4),
)
def test_checkpoint_abort_recover_equals_uninterrupted(
    kind, steps, burst_seed, crash_seeds, crash_mid_run, checkpoint_seeds
):
    # Ends on a request so there are always two places (the start and
    # the end) where a crash finds no delta run half-buffered.
    steps = steps + [("log", 0)]
    chunks = expand(steps, burst_seed % len(steps))
    positions = list(range(len(chunks) + 1))
    checkpoints = {seed % len(positions) for seed in checkpoint_seeds}
    if not crash_mid_run:
        positions = [0] + [
            index + 1 for index, step in enumerate(steps) if step[0] == "log"
        ]
    count = len(positions)
    crashes = {positions[seed % count] for seed in crash_seeds}
    # A second, distinct crash point whatever the seeds collapse to.
    crashes.add(
        positions[
            (crash_seeds[0] + 1 + crash_seeds[1] % (count - 1)) % count
        ]
    )
    reference = run_and_compare(kind, chunks, checkpoints, crashes)
    assert reference.metrics.patch_rebuild_fallbacks >= 1


def run_and_compare(kind, chunks, checkpoints, crashes):
    """Feed ``chunks`` once uninterrupted and once through WAL-mode
    crash/recover at every position in ``crashes``; require the same
    end state, generation included.  Returns the reference daemon."""
    with tempfile.TemporaryDirectory() as directory:
        # The uninterrupted run: same stream, same checkpoint_now()
        # calls (each is a flush point), never aborted, no WAL.
        reference = ServeDaemon(
            base_table(kind),
            ServeConfig(
                batch_size=2,
                checkpoint_path=os.path.join(directory, "reference.ckpt"),
            ),
        )
        for position, chunk in enumerate(chunks + [[]]):
            if position in checkpoints:
                reference.checkpoint_now()
            for event in chunk:
                reference.feed(event)
        reference.finish()
        expected = end_state(reference)

        config = durable_config(directory)
        daemon = ServeDaemon(base_table(kind), config)
        daemon.attach_wal()
        recoveries = 0
        for position, chunk in enumerate(chunks + [[]]):
            if position in checkpoints:
                daemon.checkpoint_now()
            if position in crashes:
                daemon.abort()
                consumed = daemon.events_consumed
                daemon = ServeDaemon(base_table(kind), config)
                daemon.recover()
                assert daemon.events_consumed == consumed
                recoveries += 1
            for event in chunk:
                daemon.feed(event)
        daemon.finish()
        assert recoveries == len(crashes)
        # recover() re-feeds the WAL tail without flushing it, so a
        # crash inside a run of deltas leaves the run's first half
        # buffered exactly as the uninterrupted daemon held it: the
        # generation matches too, at every crash point.
        assert end_state(daemon) == expected
    return reference


@pytest.mark.parametrize("kind", KINDS)
def test_crash_inside_a_delta_run_recovers_the_uninterrupted_clusters(kind):
    """An announce and a withdraw of one prefix over a logged client,
    split by a crash: the uninterrupted daemon coalesces the pair to
    nothing, and so must the recovered one — re-creating the cluster
    would lose its URL set (``reassign_clients`` moves counts and bytes,
    not URLs) and bump the generation twice."""
    steps = [("log", 0)] * 5 + [
        ("log", 7), ("announce", 12, 64500), ("withdraw", 12), ("log", 0),
    ]
    # Crash before step 0 and between the announce and the withdraw.
    run_and_compare(kind, expand(steps), checkpoints=set(), crashes={0, 7})


def test_two_recoveries_stay_relative_to_the_original_base():
    """The deterministic spine of the property: checkpoint, crash,
    recover, more churn, checkpoint, crash, recover — the second
    recovery replays a diff that still starts at the original base."""
    head = [
        log(CLIENTS[0]), withdraw(POOL[1]), log(CLIENTS[1]),
        announce(POOL[9]), log(CLIENTS[3]),
    ]
    middle = [announce(POOL[1], 64501), log(CLIENTS[0]), withdraw(POOL[9])]
    tail = [log(CLIENTS[3]), announce(POOL[14]), log(CLIENTS[9])]
    with tempfile.TemporaryDirectory() as directory:
        config = durable_config(directory)
        daemon = ServeDaemon(base_table("stride"), config)
        daemon.attach_wal()
        for part in (head, middle):
            for event in part:
                daemon.feed(event)
            daemon.checkpoint_now()
            daemon.abort()
            daemon = ServeDaemon(base_table("stride"), config)
            assert daemon.recover() == 0
        _, meta = read_checkpoint(config.checkpoint_path)
        assert {entry[1:3] for entry in meta["route_diff"]} == {
            (POOL[1].network, POOL[1].length),
            (POOL[9].network, POOL[9].length),
        }
        assert meta["base_digest"] == base_table("stride").digest()
        for event in tail:
            daemon.feed(event)
        daemon.finish()

        clean = ServeDaemon(base_table("stride"), ServeConfig(batch_size=2))
        for event in head + middle + tail:
            clean.feed(event)
        clean.finish()
        assert daemon.snapshot(name="run") == clean.snapshot(name="run")
        assert list(daemon.table.items()) == list(clean.table.items())


class TestBasePrecondition:
    def checkpointed(self, directory):
        daemon = ServeDaemon(base_table("packed"), durable_config(directory))
        daemon.attach_wal()
        for event in [log(CLIENTS[0]), withdraw(POOL[1]), log(CLIENTS[1])]:
            daemon.feed(event)
        daemon.checkpoint_now()
        daemon.abort()

    def test_recover_onto_different_routes_is_refused_untouched(
        self, tmp_path
    ):
        self.checkpointed(str(tmp_path))
        other = base_table("packed", BASE[:-1])
        recovered = ServeDaemon(other, durable_config(str(tmp_path)))
        store, digest = recovered.store, other.digest()
        with pytest.raises(
            CheckpointTableMismatchError,
            match="restart with the same --table files",
        ) as caught:
            recovered.recover()
        assert base_table("packed").digest()[:12] in str(caught.value)
        assert digest[:12] in str(caught.value)
        assert recovered.store is store and len(store) == 0
        assert recovered.events_consumed == 0
        assert recovered.table.digest() == digest
        assert int(recovered.table.epoch) == 0

    def test_v4_checkpoint_is_a_clean_version_error(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patched:
            patched.setattr(state, "CHECKPOINT_VERSION", 4)
            self.checkpointed(str(tmp_path))
        recovered = ServeDaemon(
            base_table("packed"), durable_config(str(tmp_path))
        )
        with pytest.raises(CheckpointVersionError, match="version 4"):
            recovered.recover()

    def test_checkpoint_without_wal_cannot_wal_recover(self, tmp_path):
        config = durable_config(str(tmp_path))
        plain = ServeDaemon(
            base_table("packed"),
            ServeConfig(batch_size=2, checkpoint_path=config.checkpoint_path),
        )
        plain.feed(log(CLIENTS[0]))
        plain.checkpoint_now()
        os.makedirs(config.wal_dir)
        with pytest.raises(
            CheckpointTableMismatchError, match="written without --wal"
        ):
            ServeDaemon(base_table("packed"), config).recover()


class TestCheckpointSize:
    @staticmethod
    def slash24s(count):
        return [Prefix((10 << 24) | (index << 8), 24) for index in range(count)]

    def checkpoint_after_churn(self, directory, table_prefixes):
        daemon = ServeDaemon(
            base_table("stride", self.slash24s(table_prefixes)),
            durable_config(directory, batch_size=64),
        )
        daemon.attach_wal()
        for index in range(50):
            prefix = Prefix((10 << 24) | (index * 7 << 8), 24 + index % 2)
            if index % 3:
                daemon.feed(announce(prefix, 64500 + index))
            else:
                daemon.feed(withdraw(prefix))
            daemon.feed(log((10 << 24) | (index << 8) | 1))
        daemon.checkpoint_now()
        daemon.abort()
        assert daemon.metrics.patch_rebuild_fallbacks == 0
        return daemon

    def test_size_does_not_depend_on_the_table(self, tmp_path):
        sizes = []
        for count in (1_000, 20_000):
            directory = str(tmp_path / str(count))
            os.makedirs(directory)
            daemon = self.checkpoint_after_churn(directory, count)
            size = os.path.getsize(daemon.config.checkpoint_path)
            assert daemon.health()["checkpoint_bytes"] == size
            assert daemon.health()["route_diff"] == 50
            sizes.append(size)
        small, large = sizes
        assert abs(large - small) < 0.05 * small, sizes

    def test_meta_is_plain_data(self, tmp_path):
        daemon = self.checkpoint_after_churn(str(tmp_path), 1_000)
        _, meta = read_checkpoint(daemon.config.checkpoint_path)
        assert "table_state" not in meta
        assert len(meta["route_diff"]) == 50
        leaves = list(plain_leaves(meta))
        assert not any(
            isinstance(leaf, (PackedLpm, StrideLpm, LookupResult, Prefix))
            for leaf in leaves
        )
        assert {type(leaf) for leaf in leaves} <= {str, int}
