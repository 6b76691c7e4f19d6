"""Benchmark: Figure 11 — server hit/byte-hit ratio vs cache size."""

import pytest

from repro.cache.simulator import CachingSimulator
from repro.core.clustering import METHOD_SIMPLE, cluster_log


@pytest.fixture(scope="module")
def simulators(nagano, merged_table):
    aware = cluster_log(nagano.log, merged_table)
    simple = cluster_log(nagano.log, method=METHOD_SIMPLE)
    return (
        CachingSimulator(nagano.log, nagano.catalog, aware, min_url_accesses=10),
        CachingSimulator(nagano.log, nagano.catalog, simple, min_url_accesses=10),
    )


def test_fig11_cache_sweep_network_aware(benchmark, simulators):
    sim_aware, _ = simulators

    def sweep():
        return [sim_aware.run(cache_bytes=size)
                for size in (100_000, 1_000_000, 10_000_000)]

    results = benchmark(sweep)
    ratios = [r.server_hit_ratio for r in results]
    # Hit ratio rises with cache size.
    assert ratios[0] <= ratios[-1] + 0.01
    assert 0.1 < ratios[-1] <= 1.0


def test_fig11_simple_underestimates_at_large_cache(benchmark, simulators):
    sim_aware, sim_simple = simulators

    def compare():
        return (
            sim_aware.run(cache_bytes=10_000_000),
            sim_simple.run(cache_bytes=10_000_000),
        )

    r_aware, r_simple = benchmark(compare)
    # Figure 11's headline: simple under-estimates both ratios.
    assert r_aware.server_hit_ratio >= r_simple.server_hit_ratio
    assert r_aware.server_byte_hit_ratio >= r_simple.server_byte_hit_ratio
