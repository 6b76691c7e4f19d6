"""The engine: one store, equivalence with cluster_log, resume."""

import collections
import contextlib
import io

import pytest

from repro.cli import print_cluster_report
from repro.core.clustering import cluster_log
from repro.engine.fastpath import shard_of
from repro.engine.metrics import EngineMetrics
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.state import (
    ClusterStore, read_checkpoint, request_triples, write_checkpoint,
)
from repro.net.prefix import Prefix
from repro.weblog.parser import iter_clf_entries, parse_clf_lines


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes, c.source_kind, c.source_name)
        for c in cluster_set.clusters
    }


def _report(clusters):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print_cluster_report(clusters, 0, None)
    return buffer.getvalue()


def _multi_store_checkpoint(path, table, triples, num_stores, chunk_size):
    """Checkpoint ``triples`` as a ``num_shards=num_stores`` engine of an
    older build did: one store per :func:`shard_of` partition, in shard
    order, under meta naming that shard count."""
    stores = [ClusterStore() for _ in range(num_stores)]
    for shard, store in enumerate(stores):
        store.apply_batch(
            [t for t in triples if shard_of(t[0], num_stores) == shard], table
        )
    meta = {
        "num_shards": num_stores, "chunk_size": chunk_size,
        "name": "engine", "entries_ingested": len(triples),
    }
    write_checkpoint(path, stores, table_digest=table.digest(), meta=meta)


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


@pytest.mark.parametrize("chunk_size", [1, 7, 8192])
@pytest.mark.parametrize("shards", [1, 2, 3])
class TestEquivalence:
    """Acceptance: engine output == cluster_log on the Nagano preset at
    every shard count and chunk size — through a mid-run route change
    and a checkpoint resumed under another shard count."""

    @pytest.fixture(scope="class")
    def baseline(self, nagano_log, merged_table):
        return cluster_log(nagano_log.log, merged_table)

    @pytest.fixture(scope="class")
    def table(self, merged_table):
        """Shared by every run that never patches its table."""
        return PackedLpm.from_merged(merged_table)

    def test_matches_cluster_log(
        self, nagano_log, table, baseline, shards, chunk_size
    ):
        config = EngineConfig(
            num_shards=shards, chunk_size=chunk_size, name=nagano_log.log.name
        )
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest(request_triples(nagano_log.log.entries))
            result = engine.snapshot()
        assert result == baseline
        assert _signature(result) == _signature(baseline)
        assert sorted(result.unclustered_clients) == sorted(
            baseline.unclustered_clients
        )
        assert result.log_name == nagano_log.log.name

    def test_mid_run_withdrawal_reaches_later_chunks(
        self, nagano_log, merged_table, table, baseline, shards, chunk_size
    ):
        """A withdrawal between two feeds moves the second half: it
        clusters exactly as against a table compiled fresh from the
        patched routes."""
        entries = request_triples(nagano_log.log.entries)
        half = len(entries) // 2
        config = EngineConfig(
            num_shards=shards, chunk_size=chunk_size, name=nagano_log.log.name
        )
        # Withdraw the prefix owning the most second-half requests, so
        # a run still resolving against the old table cannot agree.
        owners = collections.Counter(
            handle
            for handle in table.lookup_many(client for client, _, _ in entries[half:])
            if handle >= 0
        )
        victim = table.prefix(owners.most_common(1)[0][0])

        patched_table = PackedLpm.from_merged(merged_table)
        with ShardedClusterEngine(patched_table, config) as engine:
            engine.ingest(entries[:half])
            patched_table.apply_delta([], [victim])
            engine.ingest(entries[half:])
            patched = engine.snapshot()
        fresh = PackedLpm.from_items(list(patched_table.items()))
        with ShardedClusterEngine(table, config) as reference:
            reference.ingest(entries[:half])
            reference.table = fresh
            reference.ingest(entries[half:])
            expected = reference.snapshot()
        assert patched == expected
        assert patched != baseline

    def test_two_shard_checkpoint_resumes_byte_identical(
        self, nagano_log, table, baseline, tmp_path, shards, chunk_size
    ):
        """A two-store checkpoint, as older 2-shard runs wrote it,
        resumes at this shard count into one store and prints the
        uninterrupted run's report byte for byte."""
        entries = request_triples(nagano_log.log.entries)
        half = len(entries) // 2
        path = str(tmp_path / "two-shards.ckpt")
        _multi_store_checkpoint(path, table, entries[:half], 2, chunk_size)
        resumed = ShardedClusterEngine.resume(
            path, table, EngineConfig(num_shards=shards, chunk_size=chunk_size)
        )
        with resumed:
            assert resumed.entries_ingested == half
            resumed.ingest(entries[half:])
            assert _report(resumed.snapshot()) == _report(baseline)


class TestEngineBehaviour:
    def test_incremental_feeds_accumulate(self, nagano_log, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        entries = request_triples(nagano_log.log.entries)
        config = EngineConfig(num_shards=2, chunk_size=1024)
        with ShardedClusterEngine(packed, config) as engine:
            engine.ingest(entries[: len(entries) // 2])
            partial = engine.snapshot()
            engine.ingest(entries[len(entries) // 2:])
            full = engine.snapshot()
        assert engine.entries_ingested == len(entries)
        assert partial.total_requests < full.total_requests
        baseline = cluster_log(nagano_log.log, merged_table)
        assert _signature(full) == _signature(baseline)

    def test_one_store_snapshot_is_a_copy(self, nagano_log, merged_table):
        """The snapshot is taken from the store directly: a later feed
        must not reach it, and ``num_shards`` does not change it."""
        packed = PackedLpm.from_merged(merged_table)
        entries = request_triples(nagano_log.log.entries)
        half = len(entries) // 2
        engines = [
            ShardedClusterEngine(
                packed, EngineConfig(num_shards=shards, chunk_size=1024)
            )
            for shards in (1, 2)
        ]
        for engine in engines:
            engine.ingest(entries[:half])
        one, two = (engine.snapshot() for engine in engines)
        frozen = _report(one)
        assert one == two
        assert _signature(one) == _signature(two)
        engines[0].ingest(entries[half:])
        assert _report(one) == frozen
        assert engines[0].snapshot().total_requests > one.total_requests

    def test_mixed_tier_chunk_lands_on_cluster_log(
        self, nagano_log, merged_table
    ):
        """``ingest`` takes what ``iter_clf_entries`` yields — request
        triples, whether the fast pattern or the grammar parsed the
        line — in the one-chunk lists the CLI hands over."""
        lines = [
            # Every third line strays from the common shape (same
            # client, URL and size), so the grammar parses it.
            entry.to_clf().replace('"GET ', '"get ') if index % 3 == 0
            else entry.to_clf()
            for index, entry in enumerate(nagano_log.log.entries[:600])
        ]
        batch = list(iter_clf_entries(lines))
        engine = ShardedClusterEngine(
            PackedLpm.from_merged(merged_table),
            EngineConfig(num_shards=1, chunk_size=1024, name="door"),
        )
        assert engine.ingest(batch) == len(batch)
        assert engine.snapshot() == cluster_log(
            parse_clf_lines("door", lines), merged_table
        )
        assert engine.metrics.batches == 1

    def test_metrics_observe_ingestion(self, nagano_log, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        metrics = EngineMetrics(2)
        config = EngineConfig(num_shards=2, chunk_size=1000)
        with ShardedClusterEngine(packed, config, metrics) as engine:
            engine.ingest(request_triples(nagano_log.log.entries))
        assert metrics.entries == len(nagano_log.log.entries)
        assert metrics.lookups == metrics.entries
        assert metrics.batches == -(-metrics.entries // 1000)
        assert metrics.num_shards == 2
        assert metrics.shard_skew == 1.0
        assert metrics.entries_per_second > 0

    def test_resume_with_different_shard_count(self, tmp_path):
        """``num_shards`` is read by nothing: a checkpoint written at 4
        holds one store and resumes at 2 to the uninterrupted result."""
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), None)])
        triples = [
            (Prefix.from_cidr(f"10.0.0.{i}/32").network, f"/u{i}", i)
            for i in range(40)
        ]
        config = EngineConfig(num_shards=4, chunk_size=8)
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest_triples(triples[:20])
            path = str(tmp_path / "resume.ckpt")
            engine.checkpoint(path)
        stores, meta = read_checkpoint(path)
        assert len(stores) == meta["num_shards"] == 1
        resumed = ShardedClusterEngine.resume(
            path, table, EngineConfig(num_shards=2, chunk_size=8),
        )
        with resumed:
            resumed.ingest_triples(triples[20:])
            snap = resumed.snapshot()
        with ShardedClusterEngine(table, config) as uninterrupted:
            uninterrupted.ingest_triples(triples)
            expected = uninterrupted.snapshot()
        assert _signature(snap) == _signature(expected)

    def test_shard_count_changes_no_byte(self, nagano_log, merged_table,
                                         tmp_path):
        """``num_shards`` 1, 2 and 4 write byte-identical checkpoints
        and take identical snapshots."""
        table = PackedLpm.from_merged(merged_table)
        entries = request_triples(nagano_log.log.entries)
        checkpoints, snapshots = set(), []
        for shards in (1, 2, 4):
            path = tmp_path / f"{shards}.ckpt"
            config = EngineConfig(num_shards=shards, chunk_size=1000)
            with ShardedClusterEngine(table, config) as engine:
                engine.ingest(entries)
                engine.checkpoint(str(path))
                snapshots.append(engine.snapshot())
            checkpoints.add(path.read_bytes())
        assert len(checkpoints) == 1
        assert snapshots[0] == snapshots[1] == snapshots[2]
        assert len({_report(snapshot) for snapshot in snapshots}) == 1

    def test_three_store_checkpoint_resumes_into_one_store(
        self, nagano_log, merged_table, tmp_path
    ):
        """A checkpoint holding three stores, as older ``num_shards=3``
        runs wrote it, merges into the one store on resume: the report
        is the uninterrupted run's byte for byte, and the next
        checkpoint holds one store."""
        table = PackedLpm.from_merged(merged_table)
        entries = request_triples(nagano_log.log.entries)
        third = len(entries) // 3
        path = str(tmp_path / "three-stores.ckpt")
        _multi_store_checkpoint(path, table, entries[:third], 3, 512)
        assert len(read_checkpoint(path)[0]) == 3
        with ShardedClusterEngine.resume(path, table) as resumed:
            assert resumed.entries_ingested == third
            resumed.ingest(entries[third:])
            resumed.checkpoint(path)
            report = _report(resumed.snapshot(nagano_log.log.name))
        stores, meta = read_checkpoint(path)
        assert len(stores) == meta["num_shards"] == 1
        assert stores[0].entries_applied == len(entries)
        expected = cluster_log(nagano_log.log, merged_table)
        assert report == _report(expected)
