"""Chaos acceptance: disturbed runs produce undisturbed output.

The bar: a supervised two-shard run over the Nagano preset with at
least two injected chunk failures and one corrupted checkpoint must
finish with output identical to single-pass ``cluster_log`` — and the
disturbance must be visible in the metrics, not silently absorbed.

Every plan here is seeded and deterministic: a failing run replays
exactly by re-running the test.
"""

import pytest

from repro.core.clustering import cluster_log
from repro.engine import (
    EngineConfig,
    PackedLpm,
    ShardedClusterEngine,
    SupervisedEngine,
    SupervisorConfig,
    request_triples,
)
from repro.engine.state import read_checkpoint
from repro.faults import (
    SITE_CHECKPOINT_CORRUPT,
    SITE_WORKER_CRASH,
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


def _supervised(packed, plan, shards=2, **policy):
    config = EngineConfig(num_shards=shards, chunk_size=CHUNK)
    engine = ShardedClusterEngine(packed, config, injector=FaultInjector(plan))
    options = dict(max_retries=3, backoff_base=0)
    options.update(policy)
    return SupervisedEngine(engine, SupervisorConfig(**options))


class TestDisturbedEquivalence:
    def test_crashes_and_corrupt_checkpoint_do_not_change_output(
        self, nagano_log, packed, baseline, tmp_path
    ):
        """The acceptance run: 2 chunk failures + 1 corrupted checkpoint."""
        plan = FaultPlan.build(
            FaultSpec(site=SITE_WORKER_CRASH, at=0, count=1),
            FaultSpec(site=SITE_WORKER_CRASH, at=2, count=1),
            FaultSpec(site=SITE_CHECKPOINT_CORRUPT, at=0, count=1),
            seed=SEED,
        )
        entries = request_triples(nagano_log.log.entries)
        half = len(entries) // 2
        ckpt = str(tmp_path / "mid.ckpt")
        with _supervised(packed, plan) as supervised:
            supervised.ingest(entries[:half])
            supervised.checkpoint(ckpt)  # damaged once, rewritten, verified
            supervised.ingest(entries[half:])
            result = supervised.snapshot(nagano_log.log.name)
            snap = supervised.metrics.snapshot()

        assert _signature(result) == baseline
        # The disturbance really happened and was really recovered:
        assert supervised.engine.injector.fired[SITE_WORKER_CRASH] == 2
        assert supervised.engine.injector.fired[SITE_CHECKPOINT_CORRUPT] == 1
        assert snap["chunk_retries"] == 2
        assert snap["checkpoint_rewrites"] == 1
        assert snap["chunks_quarantined"] == 0
        # The mid-run checkpoint on disk is the verified rewrite.
        stores, _ = read_checkpoint(ckpt, table_digest=packed.digest())
        assert sum(s.entries_applied for s in stores) == half


class TestChaosDeterminism:
    def test_same_plan_same_fault_sequence(self, nagano_log, packed):
        """Two runs of one plan disturb the same dispatches."""
        def run():
            plan = FaultPlan.build(
                FaultSpec(site=SITE_WORKER_CRASH, at=1, count=2), seed=SEED
            )
            supervised = _supervised(packed, plan)
            with supervised:
                supervised.ingest(request_triples(nagano_log.log.entries[:CHUNK * 4]))
            return (
                dict(supervised.engine.injector.fired),
                supervised.metrics.snapshot()["chunk_retries"],
            )

        assert run() == run()

