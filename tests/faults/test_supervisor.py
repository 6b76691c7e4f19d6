"""SupervisedEngine policy: retry, backoff, quarantine, verify.

These are the fast unit tests: an armed worker fault raises a clean
:class:`WorkerCrashError` *before* any state mutates, so every
recovery decision is exercised deterministically on tiny inputs.  The
Nagano-scale acceptance runs live in ``test_chaos.py``.
"""

import json

import pytest

from repro.core.clustering import cluster_log
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine import state as engine_state
from repro.engine.state import CheckpointCorruptError, read_checkpoint
from repro.engine.supervisor import (
    BACKOFF_CAP_SECONDS, SupervisedEngine, SupervisorConfig,
)
from repro.faults import (
    SITE_CHECKPOINT_CORRUPT,
    SITE_WORKER_CRASH,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.net.prefix import Prefix
from repro.weblog.parser import iter_clf_entries, parse_clf_lines

TRIPLES = [
    (0x0A000001, "/a", 100),
    (0x0A000002, "/b", 200),
    (0x0B000001, "/a", 300),
    (0x0B000002, "/c", 400),
    (0x0A000003, "/d", 500),
    (0x0B000003, "/b", 600),
]


@pytest.fixture()
def packed():
    return PackedLpm.from_items([
        (Prefix.from_cidr("10.0.0.0/8"), None),
        (Prefix.from_cidr("11.0.0.0/8"), None),
    ])


def _engine(packed, plan=None, chunk_size=8):
    config = EngineConfig(num_shards=2, chunk_size=chunk_size)
    injector = FaultInjector(plan) if plan is not None else None
    return ShardedClusterEngine(packed, config, injector=injector)


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes)
        for c in cluster_set.clusters
    }


@pytest.fixture()
def baseline(packed):
    engine = _engine(packed)
    engine.ingest_triples(iter(TRIPLES))
    return _signature(engine.snapshot())


def _crash_plan(at=0, count=1):
    return FaultPlan.build(
        FaultSpec(site=SITE_WORKER_CRASH, at=at, count=count)
    )


class TestHappyPath:
    def test_supervision_is_transparent(self, packed, baseline):
        supervised = SupervisedEngine(_engine(packed))
        applied = supervised.ingest_triples(iter(TRIPLES))
        assert applied == len(TRIPLES)
        assert _signature(supervised.snapshot()) == baseline
        snap = supervised.metrics.snapshot()
        assert snap["chunk_retries"] == 0
        assert snap["chunks_quarantined"] == 0


class TestRetry:
    def test_retry_recovers_and_output_is_identical(self, packed, baseline):
        supervised = SupervisedEngine(
            _engine(packed, _crash_plan(count=2)),
            SupervisorConfig(max_retries=2, backoff_base=0),
        )
        applied = supervised.ingest_triples(iter(TRIPLES))
        assert applied == len(TRIPLES)
        assert _signature(supervised.snapshot()) == baseline
        assert supervised.metrics.snapshot()["chunk_retries"] == 2

    def test_backoff_schedule_is_exponential_and_capped(self, packed):
        slept = []
        supervised = SupervisedEngine(
            _engine(packed, _crash_plan(count=5)),
            SupervisorConfig(max_retries=5, backoff_base=0.5),
            sleep=slept.append,
        )
        supervised.ingest_triples(iter(TRIPLES))
        assert BACKOFF_CAP_SECONDS == 5.0  # what --backoff's help promises
        assert slept == [0.5, 1.0, 2.0, 4.0, 5.0]
        # Past 1 024 doublings the power no longer fits a float.
        config = SupervisorConfig(max_retries=5000)
        assert config.backoff_seconds(1100) == BACKOFF_CAP_SECONDS

    def test_zero_base_never_sleeps(self):
        config = SupervisorConfig(backoff_base=0)
        assert [config.backoff_seconds(n) for n in (1, 2, 3)] == [0, 0, 0]

    def test_failure_streak_resets_on_success(self, packed):
        # Crashes at attempts 0 and 2 hit two different chunks: each
        # chunk's retry budget starts afresh, so max_retries=1 carries
        # both and nothing is quarantined.
        plan = FaultPlan.build(
            FaultSpec(site=SITE_WORKER_CRASH, at=0, count=1),
            FaultSpec(site=SITE_WORKER_CRASH, at=2, count=1),
        )
        supervised = SupervisedEngine(
            _engine(packed, plan, chunk_size=2),
            SupervisorConfig(max_retries=1, backoff_base=0),
        )
        applied = supervised.ingest_triples(iter(TRIPLES))
        assert applied == len(TRIPLES)
        snap = supervised.metrics.snapshot()
        assert snap["chunk_retries"] == 2
        assert snap["chunks_quarantined"] == 0


class TestQuarantine:
    def _supervised(self, packed, tmp_path, **overrides):
        options = dict(
            max_retries=1, backoff_base=0,
            quarantine_path=str(tmp_path / "dead-letter.jsonl"),
        )
        options.update(overrides)
        return SupervisedEngine(
            _engine(packed, _crash_plan(count=-1)),
            SupervisorConfig(**options),
        )

    def test_exhausted_chunk_goes_to_dead_letter(self, packed, tmp_path):
        supervised = self._supervised(packed, tmp_path)
        applied = supervised.ingest_triples(iter(TRIPLES))
        assert applied == 0
        snap = supervised.metrics.snapshot()
        assert snap["chunks_quarantined"] == 1
        assert snap["entries_quarantined"] == len(TRIPLES)
        # Nothing leaked into the cluster state.
        assert supervised.entries_ingested == 0
        records = [
            json.loads(line)
            for line in open(tmp_path / "dead-letter.jsonl")
        ]
        assert len(records) == 1
        assert records[0]["entries"] == len(TRIPLES)
        assert records[0]["triples"] == [list(t) for t in TRIPLES]
        assert "injected" in records[0]["error"]

    def test_quarantine_without_path_only_counts(self, packed, tmp_path):
        supervised = self._supervised(packed, tmp_path, quarantine_path=None)
        assert supervised.ingest_triples(iter(TRIPLES)) == 0
        assert supervised.metrics.snapshot()["chunks_quarantined"] == 1
        assert list(tmp_path.iterdir()) == []

    def test_later_chunks_still_apply(self, packed, tmp_path):
        # Only the first dispatch is poisoned; the rest of the stream
        # lands normally after the quarantine.
        supervised = SupervisedEngine(
            _engine(packed, _crash_plan(at=0, count=2), chunk_size=2),
            SupervisorConfig(max_retries=1, backoff_base=0),
        )
        applied = supervised.ingest_triples(iter(TRIPLES))
        assert applied == len(TRIPLES) - 2
        assert supervised.metrics.snapshot()["chunks_quarantined"] == 1


class TestIngestDoor:
    """``ingest`` takes what ``iter_clf_entries`` yields — request
    triples, whether the fast pattern or the grammar parsed the line —
    in the one-chunk lists the CLI hands over, and lands on
    ``cluster_log`` whatever the recovery policy had to do to that
    chunk."""

    @pytest.fixture(scope="class")
    def lines(self, nagano_log):
        lines = [entry.to_clf() for entry in nagano_log.log.entries[:600]]
        # Every third line strays from the common shape (same client,
        # URL and size), so the grammar parses it, not the pattern.
        return [
            line.replace('"GET ', '"get ') if index % 3 == 0 else line
            for index, line in enumerate(lines)
        ]

    @staticmethod
    def _reference(lines, merged_table):
        return cluster_log(parse_clf_lines("door", lines), merged_table)

    @staticmethod
    def _supervised(merged_table, plan, **policy):
        engine = ShardedClusterEngine(
            PackedLpm.from_merged(merged_table),
            EngineConfig(num_shards=1, chunk_size=1024, name="door"),
            injector=FaultInjector(plan) if plan is not None else None,
        )
        return SupervisedEngine(
            engine, SupervisorConfig(backoff_base=0, **policy)
        )

    @pytest.mark.parametrize(
        "plan, policy, retries",
        [
            (None, {}, 0),
            (_crash_plan(count=2), {"max_retries": 2}, 2),
        ],
        ids=["undisturbed", "retry"],
    )
    def test_mixed_chunk_lands_on_cluster_log(
        self, lines, merged_table, plan, policy, retries
    ):
        batch = list(iter_clf_entries(lines))
        supervised = self._supervised(merged_table, plan, **policy)
        applied = supervised.ingest(batch)
        assert applied == len(batch)
        assert supervised.snapshot() == self._reference(lines, merged_table)
        snap = supervised.metrics.snapshot()
        assert snap["chunk_retries"] == retries
        assert snap["batches"] == 1

    def test_quarantined_chunk_is_the_projection(
        self, lines, merged_table, tmp_path
    ):
        dead_letter = tmp_path / "dead-letter.jsonl"
        supervised = self._supervised(
            merged_table, _crash_plan(count=2),
            max_retries=1,
            quarantine_path=str(dead_letter),
        )
        first, second = lines[:250], lines[250:]
        poisoned = list(iter_clf_entries(first))
        assert supervised.ingest(poisoned) == 0
        assert supervised.ingest(list(iter_clf_entries(second))) == len(second)
        assert supervised.snapshot() == self._reference(second, merged_table)
        (record,) = [json.loads(line) for line in open(dead_letter)]
        assert record["triples"] == [list(triple) for triple in poisoned]


class TestVerifiedCheckpoints:
    def _corrupt_plan(self, count):
        return FaultPlan.build(
            FaultSpec(site=SITE_CHECKPOINT_CORRUPT, count=count), seed=5
        )

    def test_damaged_checkpoint_is_rewritten(self, packed, tmp_path):
        engine = _engine(packed, self._corrupt_plan(count=1))
        supervised = SupervisedEngine(engine)
        supervised.ingest_triples(iter(TRIPLES))
        path = str(tmp_path / "run.ckpt")
        supervised.checkpoint(path, extra_meta={"log": "x"})
        assert supervised.metrics.snapshot()["checkpoint_rewrites"] == 1
        stores, meta = read_checkpoint(
            path, table_digest=engine.table.digest()
        )
        assert meta["log"] == "x"
        assert sum(s.entries_applied for s in stores) == len(TRIPLES)

    def test_unrecoverable_corruption_raises_after_attempts(
        self, packed, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(engine_state, "CHECKPOINT_ATTEMPTS", 2)
        supervised = SupervisedEngine(
            _engine(packed, self._corrupt_plan(count=-1))
        )
        supervised.ingest_triples(iter(TRIPLES))
        with pytest.raises(CheckpointCorruptError):
            supervised.checkpoint(str(tmp_path / "run.ckpt"))
        assert supervised.metrics.snapshot()["checkpoint_rewrites"] == 1


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_base": -0.1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)
