"""Unit/integration tests for the trace-driven caching simulation."""

import pytest

from repro.cache.simulator import CachingSimulator, filter_rare_urls
from repro.core.clustering import METHOD_SIMPLE, cluster_log
from repro.net.ipv4 import parse_ipv4
from repro.weblog.entry import LogEntry
from repro.weblog.parser import WebLog


class TestFilterRareUrls:
    def test_drops_below_threshold(self):
        entries = [LogEntry(1, float(i), "/popular") for i in range(10)]
        entries.append(LogEntry(1, 99.0, "/rare"))
        log = WebLog("t", entries)
        filtered = filter_rare_urls(log, min_accesses=10)
        assert all(e.url == "/popular" for e in filtered.entries)
        assert len(filtered) == 10

    def test_zero_threshold_keeps_all(self):
        log = WebLog("t", [LogEntry(1, 0.0, "/x")])
        assert len(filter_rare_urls(log, 1)) == 1


class TestSimulationAccounting:
    @pytest.fixture()
    def setup(self, nagano_log, merged_table):
        clusters = cluster_log(nagano_log.log, merged_table)
        simulator = CachingSimulator(
            nagano_log.log, nagano_log.catalog, clusters, min_url_accesses=5
        )
        return simulator

    def test_requests_conserved(self, setup):
        result = setup.run(cache_bytes=1_000_000)
        proxied = sum(p.stats.requests for p in result.proxies)
        assert proxied + result.unproxied_requests == result.total_requests

    def test_hits_bounded_by_requests(self, setup):
        result = setup.run(cache_bytes=1_000_000)
        assert 0 <= result.proxy_hits <= result.total_requests
        assert 0.0 <= result.server_hit_ratio <= 1.0
        assert 0.0 <= result.server_byte_hit_ratio <= 1.0

    def test_server_sees_what_proxies_miss(self, setup):
        result = setup.run(cache_bytes=1_000_000)
        # Every request the proxies did not absorb reached the origin
        # (refetches after invalidation can add more server requests,
        # never fewer).
        assert result.server_requests >= (
            result.total_requests - result.proxy_hits
        ) * 0.5

    def test_hit_ratio_monotone_in_cache_size(self, setup):
        sweep = [setup.run(cache_bytes=size)
                 for size in (50_000, 500_000, 5_000_000)]
        ratios = [r.server_hit_ratio for r in sweep]
        assert ratios[0] <= ratios[1] + 0.02
        assert ratios[1] <= ratios[2] + 0.02

    def test_infinite_cache_upper_bounds_finite(self, setup):
        finite = setup.run(cache_bytes=200_000)
        infinite = setup.run(cache_bytes=None)
        assert infinite.server_hit_ratio >= finite.server_hit_ratio - 0.02

    def test_top_proxies_ordering(self, setup):
        result = setup.run(cache_bytes=None)
        top = result.top_proxies(10)
        requests = [p.stats.requests for p in top]
        assert requests == sorted(requests, reverse=True)
        assert len(top) <= 10


class TestMethodComparison:
    def test_network_aware_not_worse_than_simple(
        self, nagano_log, merged_table
    ):
        """Figure 11's direction: the simple approach under-estimates
        attainable hit ratios at large cache sizes."""
        aware = cluster_log(nagano_log.log, merged_table)
        simple = cluster_log(nagano_log.log, method=METHOD_SIMPLE)
        sim_aware = CachingSimulator(
            nagano_log.log, nagano_log.catalog, aware, min_url_accesses=5
        )
        sim_simple = CachingSimulator(
            nagano_log.log, nagano_log.catalog, simple, min_url_accesses=5
        )
        big = 50_000_000
        r_aware = sim_aware.run(cache_bytes=big)
        r_simple = sim_simple.run(cache_bytes=big)
        assert r_aware.server_hit_ratio >= r_simple.server_hit_ratio


class TestSmallDeterministicWorld:
    def _tiny(self):
        """Two clients in one cluster sharing one URL: the second
        access must be a hit only when they share a proxy."""
        from repro.bgp.table import MergedPrefixTable, RoutingTable
        from repro.net.prefix import Prefix
        from repro.weblog.catalog import UrlCatalog

        catalog = UrlCatalog(5, seed=1, start_time=0.0,
                             duration_seconds=86400.0,
                             immutable_fraction=1.0)
        url = catalog.url(0)
        entries = [
            LogEntry(parse_ipv4("10.0.0.1"), 10.0, url,
                     size=catalog.size_of(url)),
            LogEntry(parse_ipv4("10.0.0.2"), 20.0, url,
                     size=catalog.size_of(url)),
        ]
        log = WebLog("tiny", entries)
        table = RoutingTable("T")
        table.add_prefix(Prefix.from_cidr("10.0.0.0/24"))
        merged = MergedPrefixTable()
        merged.add_table(table)
        return log, catalog, merged

    def test_shared_proxy_gives_cross_client_hit(self):
        log, catalog, merged = self._tiny()
        clusters = cluster_log(log, merged)
        result = CachingSimulator(log, catalog, clusters).run(cache_bytes=None)
        assert result.proxy_hits == 1
        assert result.server_requests == 1

    def test_split_clusters_lose_sharing(self):
        from repro.bgp.table import MergedPrefixTable, RoutingTable
        from repro.net.prefix import Prefix

        log, catalog, _ = self._tiny()
        # Host routes: each client in its own cluster -> no sharing.
        table = RoutingTable("T")
        table.add_prefix(Prefix.from_cidr("10.0.0.1/32"))
        table.add_prefix(Prefix.from_cidr("10.0.0.2/32"))
        merged = MergedPrefixTable()
        merged.add_table(table)
        clusters = cluster_log(log, merged)
        result = CachingSimulator(log, catalog, clusters).run(cache_bytes=None)
        assert result.proxy_hits == 0
        assert result.server_requests == 2
