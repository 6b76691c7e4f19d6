#!/usr/bin/env python3
"""Trace-driven web-caching study (§4.1.5, Figures 11–12).

Places one proxy (LRU + 1-hour TTL + Piggyback Cache Validation) in
front of every client cluster and sweeps the per-proxy cache size,
comparing the network-aware clustering against the fixed-/24 simple
approach — reproducing the paper's finding that the simple approach
*under-estimates* the benefit of proxy caching.

Run:  python examples/caching_study.py
"""

from repro.cache.simulator import CachingSimulator
from repro.core.clustering import METHOD_SIMPLE, cluster_log
from repro.core.spiders import classify_clients
from repro.pipeline import quick_pipeline
from repro.util.tables import render_table

CACHE_SIZES = (100_000, 1_000_000, 10_000_000, 100_000_000)


def main() -> None:
    result = quick_pipeline(seed=55, preset="nagano", scale=0.3)
    log = result.synthetic_log.log
    catalog = result.synthetic_log.catalog

    # §4.1.1: spiders/proxies would pollute the simulation — drop them.
    detections = classify_clients(log, result.cluster_set)
    cleaned = log.without_clients(
        detections.spider_clients() + detections.proxy_clients()
    )

    aware = cluster_log(cleaned, result.table)
    simple = cluster_log(cleaned, method=METHOD_SIMPLE)
    sim_aware = CachingSimulator(cleaned, catalog, aware, min_url_accesses=10)
    sim_simple = CachingSimulator(cleaned, catalog, simple, min_url_accesses=10)

    rows = []
    for size in CACHE_SIZES:
        r_aware = sim_aware.run(cache_bytes=size)
        r_simple = sim_simple.run(cache_bytes=size)
        rows.append([
            f"{size / 1e6:g} MB",
            f"{r_aware.server_hit_ratio:.3f}",
            f"{r_simple.server_hit_ratio:.3f}",
            f"{r_aware.server_byte_hit_ratio:.3f}",
            f"{r_simple.server_byte_hit_ratio:.3f}",
        ])
    print(render_table(
        ["proxy cache", "hit (aware)", "hit (simple)",
         "byte hit (aware)", "byte hit (simple)"],
        rows,
        title="server-observed performance vs per-proxy cache size",
    ))

    # Figure 12: per-proxy view with infinite caches.
    r_inf = sim_aware.run(cache_bytes=None)
    top = r_inf.top_proxies(10)
    print()
    print(render_table(
        ["cluster", "clients", "requests", "hit ratio", "byte hit"],
        [
            [p.cluster_prefix.cidr, p.num_clients,
             f"{p.stats.requests:,}", f"{p.hit_ratio:.3f}",
             f"{p.byte_hit_ratio:.3f}"]
            for p in top
        ],
        title="top-10 proxies, infinite cache (network-aware)",
    ))


if __name__ == "__main__":
    main()
