"""Sharded engine: partitioning, equivalence with cluster_log, resume."""

import pytest

from repro.core.clustering import cluster_log
from repro.engine import (
    EngineConfig,
    EngineMetrics,
    PackedLpm,
    ShardedClusterEngine,
    shard_of,
)
from repro.net.prefix import Prefix


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes, c.source_kind, c.source_name)
        for c in cluster_set.clusters
    }


def _run_engine(log, merged_table, **config):
    packed = PackedLpm.from_merged(merged_table)
    with ShardedClusterEngine(
        packed, EngineConfig(name=log.name, **config)
    ) as engine:
        engine.ingest(log.entries)
        return engine.snapshot()


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for address in (0, 1, 2**32 - 1, 0x0A010203, 0xC0A80101):
            for shards in (1, 2, 3, 8):
                shard = shard_of(address, shards)
                assert 0 <= shard < shards
                assert shard == shard_of(address, shards)

    def test_spreads_sequential_same_subnet_addresses(self):
        base = Prefix.from_cidr("10.1.2.0/24").network
        shards = [shard_of(base + i, 4) for i in range(256)]
        counts = [shards.count(s) for s in range(4)]
        # A plain modulo would put everything in lockstep; the
        # multiplicative hash keeps every shard populated.
        assert min(counts) > 0
        assert max(counts) < 0.5 * len(shards)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EngineConfig(num_shards=0)
        with pytest.raises(ValueError):
            EngineConfig(chunk_size=0)


class TestEquivalence:
    """Acceptance: engine output == cluster_log on the Nagano preset."""

    @pytest.fixture(scope="class")
    def baseline(self, nagano_log, merged_table):
        return cluster_log(nagano_log.log, merged_table)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_inline_matches_cluster_log(
        self, nagano_log, merged_table, baseline, shards
    ):
        result = _run_engine(
            nagano_log.log, merged_table,
            num_shards=shards, chunk_size=4096, use_processes=False,
        )
        assert _signature(result) == _signature(baseline)
        assert sorted(result.unclustered_clients) == sorted(
            baseline.unclustered_clients
        )
        assert result.log_name == nagano_log.log.name

    def test_process_pool_matches_cluster_log(
        self, nagano_log, merged_table, baseline
    ):
        result = _run_engine(
            nagano_log.log, merged_table, num_shards=2, chunk_size=8192,
        )
        assert _signature(result) == _signature(baseline)

    def test_chunk_size_does_not_change_results(self, nagano_log, merged_table):
        small = _run_engine(
            nagano_log.log, merged_table,
            num_shards=2, chunk_size=257, use_processes=False,
        )
        large = _run_engine(
            nagano_log.log, merged_table,
            num_shards=2, chunk_size=50_000, use_processes=False,
        )
        assert _signature(small) == _signature(large)


class TestEngineBehaviour:
    def test_incremental_feeds_accumulate(self, nagano_log, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        entries = nagano_log.log.entries
        config = EngineConfig(num_shards=2, chunk_size=1024,
                              use_processes=False)
        with ShardedClusterEngine(packed, config) as engine:
            engine.ingest(entries[: len(entries) // 2])
            partial = engine.snapshot()
            engine.ingest(entries[len(entries) // 2:])
            full = engine.snapshot()
        assert engine.entries_ingested == len(entries)
        assert partial.total_requests < full.total_requests
        baseline = cluster_log(nagano_log.log, merged_table)
        assert _signature(full) == _signature(baseline)

    def test_metrics_observe_ingestion(self, nagano_log, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        metrics = EngineMetrics(2)
        config = EngineConfig(num_shards=2, chunk_size=1000,
                              use_processes=False)
        with ShardedClusterEngine(packed, config, metrics) as engine:
            engine.ingest(nagano_log.log.entries)
        assert metrics.entries == len(nagano_log.log.entries)
        assert metrics.lookups == metrics.entries
        assert metrics.batches == -(-metrics.entries // 1000)
        assert sum(metrics.shard_entries) == metrics.entries
        assert metrics.entries_per_second > 0

    def test_resume_with_different_shard_count(self, tmp_path):
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), None)])
        triples = [
            (Prefix.from_cidr(f"10.0.0.{i}/32").network, f"/u{i}", i)
            for i in range(40)
        ]
        config = EngineConfig(num_shards=4, chunk_size=8, use_processes=False)
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest_triples(triples[:20])
            path = str(tmp_path / "resume.ckpt")
            engine.checkpoint(path)
        resumed = ShardedClusterEngine.resume(
            path, table,
            EngineConfig(num_shards=2, chunk_size=8, use_processes=False),
        )
        with resumed:
            resumed.ingest_triples(triples[20:])
            snap = resumed.snapshot()
        with ShardedClusterEngine(table, config) as uninterrupted:
            uninterrupted.ingest_triples(triples)
            expected = uninterrupted.snapshot()
        assert _signature(snap) == _signature(expected)
