"""Chaos acceptance: disturbed runs produce undisturbed output.

The bar: a two-shard run over the Nagano preset whose mid-run
checkpoint is corrupted must rewrite it, resume from it in a fresh
engine and finish with output identical to single-pass
``cluster_log`` — and the disturbance must be visible in the metrics,
not silently absorbed.

Every plan here is seeded and deterministic: a failing run replays
exactly by re-running the test.
"""

import pytest

from repro.core.clustering import cluster_log
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.state import (
    CheckpointCorruptError, read_checkpoint, request_triples,
)
from repro.faults import (
    SITE_CHECKPOINT_CORRUPT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)

CHUNK = 4096
SEED = 1998  # Nagano, naturally


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes, c.source_kind, c.source_name)
        for c in cluster_set.clusters
    }


@pytest.fixture(scope="module")
def packed(merged_table):
    return PackedLpm.from_merged(merged_table)


@pytest.fixture(scope="module")
def baseline(nagano_log, merged_table):
    return _signature(cluster_log(nagano_log.log, merged_table))


def _corrupt_plan(count=1):
    return FaultPlan.build(
        FaultSpec(site=SITE_CHECKPOINT_CORRUPT, at=0, count=count), seed=SEED
    )


def _engine(packed, plan=None):
    config = EngineConfig(num_shards=2, chunk_size=CHUNK)
    injector = FaultInjector(plan) if plan is not None else None
    return ShardedClusterEngine(packed, config, injector=injector)


class TestDisturbedEquivalence:
    def test_damaged_checkpoint_resumes_to_cluster_log(
        self, nagano_log, packed, baseline, tmp_path
    ):
        """The acceptance run: the mid-run checkpoint is damaged once,
        rewritten, and a fresh engine resumes from it."""
        entries = request_triples(nagano_log.log.entries)
        half = len(entries) // 2
        ckpt = str(tmp_path / "mid.ckpt")
        with _engine(packed, _corrupt_plan()) as first:
            first.ingest(entries[:half])
            first.checkpoint(ckpt)  # damaged once, rewritten, verified
        # The disturbance really happened and was really recovered:
        assert first.injector.fired[SITE_CHECKPOINT_CORRUPT] == 1
        assert first.metrics.checkpoint_rewrites == 1
        stores, meta = read_checkpoint(ckpt, table_digest=packed.digest())
        assert len(stores) == meta["num_shards"] == 1
        assert stores[0].entries_applied == half

        with ShardedClusterEngine.resume(ckpt, packed) as resumed:
            assert resumed.config.chunk_size == CHUNK
            assert resumed.entries_ingested == half
            resumed.ingest(entries[half:])
            result = resumed.snapshot(nagano_log.log.name)
        assert _signature(result) == baseline


class TestChaosDeterminism:
    def test_same_plan_same_fault_sequence(self, nagano_log, packed, tmp_path):
        """Two runs of one plan damage the same byte of the same file."""
        entries = request_triples(nagano_log.log.entries[:CHUNK * 4])

        def run(name, plan):
            path = tmp_path / name
            engine = _engine(packed, plan)
            engine.ingest(entries)
            if plan is None:
                engine.checkpoint(str(path))
            else:
                # Every write is damaged: the last damaged copy stays.
                with pytest.raises(CheckpointCorruptError):
                    engine.checkpoint(str(path))
            return path.read_bytes()

        clean = run("clean.ckpt", None)
        first = run("first.ckpt", _corrupt_plan(count=-1))
        second = run("second.ckpt", _corrupt_plan(count=-1))
        assert first == second
        assert len(first) == len(clean)
        assert sum(a != b for a, b in zip(first, clean)) == 1
