"""Unit tests for the TTL + Piggyback Cache Validation proxy."""

import pytest

from repro.cache.lru import CacheItem
from repro.cache.policy import ProxyCache
from repro.cache.server import OriginServer
from repro.cache.simulator import CachingSimulator
from repro.core.clustering import cluster_log
from repro.util.rng import spawn
from repro.weblog.catalog import UrlCatalog

START = 0.0
DAY = 86400.0
TTL = 3600.0


@pytest.fixture()
def server():
    return OriginServer(UrlCatalog(80, seed=4, start_time=START,
                                   duration_seconds=DAY))


def mutable_url(server):
    for url in server.catalog.urls():
        if server.catalog.modified_between(url, START, START + DAY / 4):
            return url
    pytest.skip("no early-mutating URL in catalog")


def immutable_url(server):
    for url in server.catalog.urls():
        if not server.catalog.modified_between(url, START, START + DAY):
            return url
    raise AssertionError("no immutable URL")


class TestRequestPath:
    def test_cold_miss_then_hit(self, server):
        proxy = ProxyCache(server, ttl_seconds=TTL)
        url = immutable_url(server)
        assert not proxy.request(url, 10.0)     # cold miss
        assert proxy.request(url, 20.0)          # fresh hit
        assert proxy.stats.requests == 2
        assert proxy.stats.hits == 1
        assert proxy.stats.misses == 1
        assert server.requests_served == 1

    def test_expired_unmodified_revalidates_as_hit(self, server):
        proxy = ProxyCache(server, ttl_seconds=TTL)
        url = immutable_url(server)
        proxy.request(url, 0.0)
        # Past TTL: GET If-Modified-Since returns 304; counted a hit
        # with no body bytes from the origin.
        assert proxy.request(url, TTL + 10.0)
        assert proxy.stats.validation_hits == 1
        assert server.bytes_served == server.catalog.size_of(url)  # only cold fetch

    def test_expired_modified_is_miss(self, server):
        proxy = ProxyCache(server, ttl_seconds=1.0)
        url = mutable_url(server)
        # Find a window across a modification.
        times = [t for t in range(0, int(DAY), 600)]
        proxy.request(url, 0.0)
        saw_miss = False
        for t in times[1:]:
            hit = proxy.request(url, float(t))
            if not hit:
                saw_miss = True
                break
        assert saw_miss

    def test_byte_hit_accounting(self, server):
        proxy = ProxyCache(server, ttl_seconds=TTL)
        url = immutable_url(server)
        size = server.catalog.size_of(url)
        proxy.request(url, 0.0)
        proxy.request(url, 1.0)
        assert proxy.stats.bytes_requested == 2 * size
        assert proxy.stats.bytes_hit == size
        assert proxy.stats.hit_ratio == 0.5
        assert proxy.stats.byte_hit_ratio == 0.5

    def test_rejects_nonpositive_ttl(self, server):
        with pytest.raises(ValueError):
            ProxyCache(server, ttl_seconds=0.0)

    def test_capacity_limits_cache(self, server):
        urls = list(server.catalog.urls())[:20]
        total = sum(server.catalog.size_of(u) for u in urls)
        proxy = ProxyCache(server, capacity_bytes=total // 4, ttl_seconds=TTL)
        for url in urls:
            proxy.request(url, 1.0)
        assert proxy.cache.used_bytes <= total // 4


class TestPiggyback:
    def test_piggyback_renews_expired_unmodified(self, server):
        proxy = ProxyCache(server, ttl_seconds=TTL)
        stable = immutable_url(server)
        other = [u for u in server.catalog.urls() if u != stable][0]
        proxy.request(stable, 0.0)
        # Later miss on another URL piggybacks validation of `stable`.
        proxy.request(other, TTL + 100.0)
        assert proxy.stats.piggyback_validations >= 1
        assert proxy.stats.piggyback_renewals >= 1
        # `stable` is fresh again: the next access is a plain hit, not
        # an If-Modified-Since round trip.
        validations_before = server.validations_served
        assert proxy.request(stable, TTL + 200.0)
        assert server.validations_served == validations_before

    def test_piggyback_invalidates_modified(self, server):
        proxy = ProxyCache(server, ttl_seconds=1.0)
        url = mutable_url(server)
        other = immutable_url(server)
        proxy.request(url, 0.0)
        # March forward until a piggyback occurs after a modification.
        invalidated = False
        for t in range(600, int(DAY), 600):
            proxy.request(other, float(t))
            if url not in proxy.cache:
                invalidated = True
                break
        assert invalidated

    def test_piggyback_limit_respected(self, server):
        proxy = ProxyCache(server, ttl_seconds=1.0, piggyback_limit=3)
        urls = list(server.catalog.urls())[:30]
        for url in urls:
            proxy.request(url, 0.0)
        before = proxy.stats.piggyback_validations
        proxy.request(urls[0], 5000.0)
        assert proxy.stats.piggyback_validations - before <= 3


def _scan_always(monkeypatch):
    """Switch the exact skip off: every piggyback walks its window."""
    monkeypatch.setattr(ProxyCache, "_may_hold_expired", lambda self, now: True)


def _replay(server, operations, **config):
    """Drive one proxy through ``operations``; return everything a
    skipped scan could have changed."""
    proxy = ProxyCache(server, **config)
    hits = []
    for kind, url, when, ttl in operations:
        if kind == "request":
            hits.append(proxy.request(url, when))
        else:  # a sibling's copy with an arbitrary (even past) horizon
            proxy.adopt(CacheItem(url=url, size=server.catalog.size_of(url),
                                  fetched_at=when - ttl, expires_at=when + ttl))
    cached = [
        (url, item.size, item.fetched_at, item.expires_at)
        for url, item in proxy.cache.items()
    ]
    served = (server.requests_served, server.bytes_served,
              server.validations_served)
    return hits, proxy.stats, cached, served


class TestScanSkip:
    """The piggyback scan is skipped only where it would find nothing:
    every counter equals a run that always scans."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_match_an_always_scanning_proxy(self, monkeypatch, seed):
        rng = spawn(seed, "pcv-skip")
        catalog = UrlCatalog(120, seed=seed, start_time=START,
                             duration_seconds=DAY)
        urls = list(catalog.urls())
        total = sum(catalog.size_of(url) for url in urls)
        config = dict(
            capacity_bytes=rng.choice([None, total // 10, total // 3]),
            ttl_seconds=rng.choice([60.0, 900.0, TTL]),
            piggyback_limit=rng.choice([0, 1, 3, 10]),
        )
        operations = []
        now = 0.0
        for _ in range(3000):
            now += rng.expovariate(1 / 40.0)
            kind = "adopt" if rng.random() < 0.05 else "request"
            url = urls[min(int(rng.paretovariate(1.1)) - 1, len(urls) - 1)]
            operations.append((kind, url, now, rng.uniform(0.0, 2 * TTL)))

        skipping = _replay(OriginServer(catalog), operations, **config)
        _scan_always(monkeypatch)
        scanning = _replay(OriginServer(catalog), operations, **config)
        assert skipping == scanning
        assert skipping[1].piggyback_validations > 0 or config["piggyback_limit"] == 0

    @pytest.mark.parametrize("cache_bytes", [100_000, 3_000_000, None])
    def test_simulator_matches_an_always_scanning_run(
        self, monkeypatch, nagano_log, merged_table, cache_bytes
    ):
        clusters = cluster_log(nagano_log.log, merged_table)
        simulator = CachingSimulator(
            nagano_log.log, nagano_log.catalog, clusters, min_url_accesses=5
        )

        def counters():
            result = simulator.run(cache_bytes=cache_bytes)
            return (
                [(p.cluster_prefix, p.stats) for p in result.proxies],
                result.server_requests, result.server_bytes,
            )

        skipping = counters()
        _scan_always(monkeypatch)
        assert skipping == counters()
        assert any(stats.piggyback_validations for _, stats in skipping[0])

    def test_an_item_expiring_exactly_now_is_validated(self, server):
        """``fresh_at`` is ``now < expires_at``: at ``now == expires_at``
        the item is stale, so the skip must not fire."""
        proxy = ProxyCache(server, ttl_seconds=100.0)
        stable, other = immutable_url(server), mutable_url(server)
        proxy.request(stable, 0.0)
        proxy.request(other, 100.0)  # a miss exactly at stable's expiry
        assert proxy.stats.piggyback_validations == 1
        assert proxy.stats.piggyback_renewals == 1
