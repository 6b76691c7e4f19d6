"""Supervision overhead: what the recovery policy costs when nothing fails.

The supervisor's happy path adds one try/except and one chunking layer
per applied chunk.  This benchmark pins that the
price is a few percent, not a tax: a supervised inline ingest of the
Nagano preset must stay within 1.5× of the raw engine (best-of-N on
both sides), and the output must be identical.
"""

import time

import pytest

from repro.engine import (
    EngineConfig,
    PackedLpm,
    ShardedClusterEngine,
    SupervisedEngine,
    SupervisorConfig,
    request_triples,
)

CHUNK = 8192
OVERHEAD_CEILING = 1.5


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes)
        for c in cluster_set.clusters
    }


@pytest.fixture(scope="module")
def packed(merged_table):
    return PackedLpm.from_merged(merged_table)


def _best_of(repetitions, func):
    best = float("inf")
    result = None
    for _ in range(repetitions):
        began = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - began)
    return best, result


def _config(shards=2):
    return EngineConfig(num_shards=shards, chunk_size=CHUNK)


class TestSupervisionOverhead:
    def test_happy_path_overhead_is_bounded(self, nagano, packed):
        entries = nagano.log.entries

        def raw():
            with ShardedClusterEngine(packed, _config()) as engine:
                engine.ingest(request_triples(entries))
                return engine.snapshot()

        def supervised():
            engine = ShardedClusterEngine(packed, _config())
            with SupervisedEngine(engine, SupervisorConfig()) as sup:
                sup.ingest(request_triples(entries))
                return sup.snapshot()

        raw_seconds, raw_result = _best_of(3, raw)
        sup_seconds, sup_result = _best_of(3, supervised)

        assert _signature(sup_result) == _signature(raw_result)
        ratio = sup_seconds / raw_seconds
        assert ratio < OVERHEAD_CEILING, (
            f"supervised ingest ({sup_seconds:.3f}s) is {ratio:.2f}x the "
            f"raw engine ({raw_seconds:.3f}s); the happy path should be "
            "nearly free"
        )
        print(
            f"\n{len(entries):,} entries: raw "
            f"{len(entries) / raw_seconds:,.0f}/s, supervised "
            f"{len(entries) / sup_seconds:,.0f}/s ({ratio:.2f}x)"
        )

    def test_bench_supervised_ingest(self, benchmark, nagano, packed):
        entries = nagano.log.entries

        def run():
            engine = ShardedClusterEngine(packed, _config())
            with SupervisedEngine(engine, SupervisorConfig()) as sup:
                sup.ingest(request_triples(entries))
                return sup.snapshot()

        snapshot = benchmark(run)
        benchmark.extra_info["entries_per_sec"] = (
            len(entries) / benchmark.stats.stats.mean
        )
        assert len(snapshot) > 0
