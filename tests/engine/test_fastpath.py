"""Fast path: StrideLpm equivalence, MemoizedLookup bounds/counters,
PackedBatch transport, and end-to-end engine identity with and without
the memo."""

import time

import pytest

from repro.core.clustering import cluster_log
from repro.engine.fastpath import (
    MemoizedLookup,
    PackedBatch,
    StrideLpm,
    build_lpm_table,
)
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine, shard_of
from repro.engine.state import ClusterStore, request_triples
from repro.net.prefix import Prefix
from repro.util.rng import spawn


def _items(cidrs):
    return [(Prefix.from_cidr(cidr), cidr) for cidr in cidrs]


#: Prefix set engineered to hit every stride-slot shape: shorter than
#: /16 (one entry covering many slots), exactly /16, longer prefixes
#: punching into a /16 block (indirect slots), nested prefixes whose
#: intervals resume across a slot boundary, and the address-space
#: extremes.
EDGE_CIDRS = [
    "0.0.0.0/0",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.1.255.0/24",        # run against the top of its /16 block
    "10.2.0.0/15",          # spans two slots exactly
    "172.16.0.0/12",
    "172.16.5.128/25",
    "255.255.0.0/16",
    "255.255.255.255/32",
    "0.0.0.0/32",
]


class TestStrideEquivalence:
    def test_edge_prefixes_agree_with_packed(self):
        packed = PackedLpm.from_items(_items(EDGE_CIDRS))
        stride = StrideLpm.from_items(_items(EDGE_CIDRS))
        probes = [0, 1, (10 << 24) | (1 << 16) | 513, (10 << 24) + 5,
                  (172 << 24) | (16 << 16) | (5 << 8) | 200,
                  2**32 - 1, 2**32 - 2, (10 << 24) | (2 << 16),
                  (10 << 24) | (1 << 16) | 0xFF00, (11 << 24)]
        assert stride.lookup_many(probes) == packed.lookup_many(probes)
        for address in probes:
            assert stride.match_index(address) == packed.match_index(address)
            assert stride.longest_match(address) == packed.longest_match(address)
            assert stride.lookup(address) == packed.lookup(address)

    def test_random_tables_agree_with_packed(self):
        rng = spawn(3000, "stride-vs-packed")
        items = [
            (Prefix(rng.getrandbits(32), rng.randint(2, 32)), i)
            for i in range(1200)
        ]
        packed = PackedLpm.from_items(items)
        stride = StrideLpm.from_items(items)
        probes = [rng.getrandbits(32) for _ in range(20_000)]
        assert stride.lookup_many(probes) == packed.lookup_many(probes)

    def test_empty_table(self):
        stride = StrideLpm.from_items([])
        assert len(stride) == 0
        assert not stride
        assert stride.lookup_many([0, 12345, 2**32 - 1]) == [-1, -1, -1]
        assert stride.longest_match(0) is None
        assert stride.num_direct_slots == 1 << 16

    def test_same_entry_indices_and_digest_as_packed(self, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        stride = StrideLpm.from_merged(merged_table)
        assert stride.digest() == packed.digest()
        assert list(stride.items()) == list(packed.items())
        assert len(stride) == len(packed)
        probe = next(merged_table.prefixes()).network
        index = stride.match_index(probe)
        assert stride.prefix(index) == packed.prefix(index)
        assert stride.value(index) == packed.value(index)

    def test_direct_slots_cover_most_of_the_table(self, merged_table):
        stride = StrideLpm.from_merged(merged_table)
        # The fast path's premise: the vast majority of /16 blocks
        # resolve with one array index, no search.
        assert stride.num_direct_slots > (1 << 16) * 0.5


class TestMemoizedLookup:
    def test_results_identical_to_wrapped_table(self):
        table = StrideLpm.from_items(_items(EDGE_CIDRS))
        memo = MemoizedLookup(table, maxsize=64)
        rng = spawn(3000, "memo-results")
        probes = [rng.getrandbits(32) for _ in range(2000)]
        # Twice: cold pass then warm pass must both be right.
        assert memo.lookup_many(probes) == table.lookup_many(probes)
        assert memo.lookup_many(probes) == table.lookup_many(probes)
        address = probes[0]
        assert memo.match_index(address) == table.match_index(address)
        assert memo.longest_match(address) == table.longest_match(address)
        assert memo.lookup(address) == table.lookup(address)

    def test_hits_misses_and_duplicate_misses_in_one_batch(self):
        memo = MemoizedLookup(
            PackedLpm.from_items(_items(["10.0.0.0/8"])), maxsize=64
        )
        a, b = (10 << 24) + 1, (10 << 24) + 2
        assert memo.lookup_many([a, a, b]) == [0, 0, 0]
        # Both occurrences of a precede its memo fill, so the cold
        # batch is all misses; the memo still stores a exactly once.
        assert memo.hits == 0
        assert memo.misses == 3
        assert memo.lookup_many([a, b]) == [0, 0]
        assert memo.hits == 2
        assert memo.memo_size == 2

    def test_misses_memoized_too(self):
        memo = MemoizedLookup(
            PackedLpm.from_items(_items(["10.0.0.0/8"])), maxsize=64
        )
        miss = 11 << 24
        assert memo.lookup_many([miss]) == [-1]
        assert memo.lookup_many([miss]) == [-1]
        assert memo.hits == 1 and memo.misses == 1

    def test_memo_clears_at_bound(self):
        memo = MemoizedLookup(
            PackedLpm.from_items(_items(["0.0.0.0/0"])), maxsize=3
        )
        memo.lookup_many([1, 2, 3])
        assert memo.memo_size == 3 and memo.evictions == 0
        memo.lookup_many([4])  # full: all three go, then 4 is stored
        assert memo.memo_size == 1 and memo.evictions == 3
        memo.lookup_many([1])  # 1 was evicted: a miss again
        assert memo.misses == 5
        assert memo.match_index(5) == 0  # the scalar path clears too
        assert memo.match_index(6) == 0
        assert memo.memo_size == 1 and memo.evictions == 6

    def test_eviction_stays_cheap_past_the_bound(self):
        """200 000 distinct addresses through a 65 536-entry memo.  A
        per-miss FIFO pop re-scans the deleted slots at the front of the
        dict: 8.4 s for this loop, against 0.12 s clearing when full
        (2-core VM)."""
        table = PackedLpm.from_items(_items(["0.0.0.0/0", "10.0.0.0/8"]))
        memo = MemoizedLookup(table, maxsize=1 << 16)
        addresses = list(range(0, 200_000 * 1031, 1031))
        began = time.perf_counter()
        handles = [
            handle
            for start in range(0, len(addresses), 4096)
            for handle in memo.lookup_many(addresses[start:start + 4096])
        ]
        elapsed = time.perf_counter() - began
        assert handles == table.lookup_many(addresses)
        assert memo.evictions == 3 * (1 << 16)
        assert elapsed < 2.0, f"{elapsed:.2f}s for 200 000 distinct addresses"

    def test_take_memo_stats_drains(self):
        memo = MemoizedLookup(
            PackedLpm.from_items(_items(["0.0.0.0/0"])), maxsize=2
        )
        memo.lookup_many([1, 1, 2, 3])  # 3 finds {1, 2} full
        assert memo.take_memo_stats() == (0, 4, 2)
        assert memo.take_memo_stats() == (0, 0, 0)
        memo.lookup_many([2, 3])
        assert memo.take_memo_stats() == (1, 1, 0)

    def test_clear_memo(self):
        memo = MemoizedLookup(
            PackedLpm.from_items(_items(["0.0.0.0/0"])), maxsize=64
        )
        memo.lookup_many([1, 2])
        memo.clear_memo()
        assert memo.memo_size == 0
        memo.lookup_many([1])
        assert memo.misses == 3

    def test_rejects_nonpositive_bound(self):
        table = PackedLpm.from_items([])
        with pytest.raises(ValueError):
            MemoizedLookup(table, maxsize=0)

    def test_delegates_table_surface(self):
        table = StrideLpm.from_items(_items(EDGE_CIDRS))
        memo = MemoizedLookup(table, maxsize=64)
        assert len(memo) == len(table)
        assert bool(memo)
        assert list(memo.items()) == list(table.items())
        assert memo.prefix(0) == table.prefix(0)
        assert memo.value(0) == table.value(0)


class TestPackedBatch:
    def test_append_interns_urls(self):
        batch = PackedBatch()
        batch.append(1, "/a", 10)
        batch.append(2, "/b", 20)
        batch.append(3, "/a", 30)
        assert len(batch) == 3
        assert list(batch.urls) == ["/a", "/b"]
        assert list(batch.url_ids) == [0, 1, 0]
        assert list(batch.iter_triples()) == [
            (1, "/a", 10), (2, "/b", 20), (3, "/a", 30),
        ]

    def test_from_triples_roundtrip(self):
        triples = [(5, "/x", 0), (6, "/y", 7), (5, "/x", 9)]
        batch = PackedBatch.from_triples(triples)
        assert list(batch.iter_triples()) == triples

    def test_partition_follows_shard_of(self):
        rng = spawn(3000, "packed-batch-partition")
        triples = [
            (rng.getrandbits(32), f"/u{i % 13}", i) for i in range(500)
        ]
        batches = PackedBatch.partition(triples, 4)
        recovered = []
        for shard, batch in enumerate(batches):
            for client, url, size in batch.iter_triples():
                assert shard_of(client, 4) == shard
                recovered.append((client, url, size))
        assert sorted(recovered) == sorted(triples)

    def test_apply_packed_matches_apply_batch(self, merged_table, nagano_log):
        table = StrideLpm.from_merged(merged_table)
        triples = request_triples(nagano_log.log.entries[:4000])
        via_triples = ClusterStore()
        via_triples.apply_batch(triples, table)
        via_packed = ClusterStore()
        via_packed.apply_packed(PackedBatch.from_triples(triples), table)
        name = nagano_log.log.name
        assert _signature(via_packed.snapshot(name)) == _signature(
            via_triples.snapshot(name)
        )
        assert via_packed.entries_applied == via_triples.entries_applied


class TestBuildLpmTable:
    def test_kinds(self, merged_table):
        stride = build_lpm_table("stride", merged_table)
        assert isinstance(stride, StrideLpm)
        assert stride.digest() == PackedLpm.from_merged(merged_table).digest()
        with pytest.raises(ValueError, match="only 'stride'"):
            build_lpm_table("packed", merged_table)

    def test_memo_wrapping(self, merged_table):
        table = build_lpm_table("stride", merged_table, memo_size=32)
        assert isinstance(table, MemoizedLookup)
        assert isinstance(table.table, StrideLpm)
        assert table.maxsize == 32
        bare = build_lpm_table("stride", merged_table)
        assert not isinstance(bare, MemoizedLookup)

    def test_unknown_kind(self, merged_table):
        with pytest.raises(ValueError):
            build_lpm_table("radix", merged_table)


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes, c.source_kind, c.source_name)
        for c in cluster_set.clusters
    }


class TestEngineIdentityAcrossKinds:
    """Acceptance: the stride table with and without the memo — and the
    packed layout it indexes, behind a memo — produce clusters
    identical to cluster_log."""

    @pytest.fixture(scope="class")
    def baseline(self, nagano_log, merged_table):
        return cluster_log(nagano_log.log, merged_table)

    @pytest.mark.parametrize("kind,memo", [
        ("stride", 0), ("stride", 1024), ("packed", 1024),
    ])
    def test_inline_engine_matches(self, nagano_log, merged_table, baseline,
                                   kind, memo):
        if kind == "packed":
            table = MemoizedLookup(PackedLpm.from_merged(merged_table), memo)
        else:
            table = build_lpm_table(kind, merged_table, memo)
        config = EngineConfig(num_shards=2, chunk_size=4096)
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest(request_triples(nagano_log.log.entries))
            result = engine.snapshot()
        assert _signature(result) == _signature(baseline)

    def test_tiny_memo_still_exact(self, nagano_log, merged_table, baseline):
        # A pathologically small memo thrashes (evictions every batch)
        # but can never change results.
        table = build_lpm_table("stride", merged_table, 2)
        config = EngineConfig(num_shards=1, chunk_size=2048)
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest(request_triples(nagano_log.log.entries))
            result = engine.snapshot()
            assert engine.metrics.memo_evictions > 0
        assert _signature(result) == _signature(baseline)

    def test_checkpoint_moves_between_lpm_kinds(self, tmp_path, nagano_log,
                                                merged_table, baseline):
        """A run checkpointed on the packed layout (what ``--lpm
        packed`` used to compile) resumes on the stride table + memo:
        digest() is layout-independent."""
        entries = request_triples(nagano_log.log.entries)
        half = len(entries) // 2
        packed = PackedLpm.from_merged(merged_table)
        config = EngineConfig(num_shards=2, chunk_size=4096)
        path = str(tmp_path / "swap.ckpt")
        with ShardedClusterEngine(packed, config) as engine:
            engine.ingest(entries[:half])
            engine.checkpoint(path)
        stride_memo = build_lpm_table("stride", merged_table, 1024)
        with ShardedClusterEngine.resume(path, stride_memo, config) as engine:
            engine.ingest(entries[half:])
            result = engine.snapshot()
        assert _signature(result) == _signature(baseline)
