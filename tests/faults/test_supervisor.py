"""What is left of batch supervision: the ``SupervisedEngine`` shim the
benchmark harness still drives, and the read-back verification every
``ShardedClusterEngine.checkpoint`` now performs itself."""

import pytest

from repro.engine import state as engine_state
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.state import CheckpointCorruptError, read_checkpoint
from repro.engine.supervisor import SupervisedEngine, SupervisorConfig
from repro.faults import (
    SITE_CHECKPOINT_CORRUPT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.net.prefix import Prefix

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


def _engine(packed, plan=None):
    config = EngineConfig(num_shards=2, chunk_size=4)
    injector = FaultInjector(plan) if plan is not None else None
    return ShardedClusterEngine(packed, config, injector=injector)


class TestHappyPath:
    def test_supervision_is_transparent(self, packed):
        engine = _engine(packed)
        engine.ingest(iter(TRIPLES))
        with SupervisedEngine(_engine(packed), SupervisorConfig()) as supervised:
            assert supervised.ingest(iter(TRIPLES)) == len(TRIPLES)
            assert supervised.snapshot() == engine.snapshot()
            assert supervised.metrics is supervised.engine.metrics
            assert supervised.metrics.batches == 2


class TestVerifiedCheckpoints:
    def _corrupt_plan(self, count):
        return FaultPlan.build(
            FaultSpec(site=SITE_CHECKPOINT_CORRUPT, count=count), seed=5
        )

    def test_damaged_checkpoint_is_rewritten(self, packed, tmp_path):
        engine = _engine(packed, self._corrupt_plan(count=1))
        engine.ingest(iter(TRIPLES))
        path = str(tmp_path / "run.ckpt")
        engine.checkpoint(path, extra_meta={"log": "x"})
        assert engine.metrics.snapshot()["checkpoint_rewrites"] == 1
        stores, meta = read_checkpoint(path, table_digest=packed.digest())
        assert meta["log"] == "x"
        assert sum(s.entries_applied for s in stores) == len(TRIPLES)

    def test_unrecoverable_corruption_raises_after_attempts(
        self, packed, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(engine_state, "CHECKPOINT_ATTEMPTS", 2)
        engine = _engine(packed, self._corrupt_plan(count=-1))
        engine.ingest(iter(TRIPLES))
        with pytest.raises(CheckpointCorruptError):
            engine.checkpoint(str(tmp_path / "run.ckpt"))
        assert engine.metrics.snapshot()["checkpoint_rewrites"] == 1
