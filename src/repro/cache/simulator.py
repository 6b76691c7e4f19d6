"""Trace-driven web-caching simulation (§4.1.5, Figures 11–12).

Places one proxy cache in front of every client cluster and replays a
server log chronologically: each request goes to its cluster's proxy
(clients not in any cluster go straight to the origin).  Two
evaluations mirror the paper's:

* **server performance** (Figure 11): sweep the per-proxy cache size
  and report the *total* hit ratio and byte hit ratio observed at the
  server — the fraction of requests/bytes the proxy layer absorbed;
* **proxy performance** (Figure 12): fix capacity to infinite and
  report per-cluster hit/byte-hit ratios for the busiest clusters.

Requests to resources accessed fewer than ``min_url_accesses`` times
can be filtered first (the paper's footnote 9 ignores resources with
fewer than 10 accesses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.policy import DEFAULT_TTL_SECONDS, ProxyCache, ProxyStats
from repro.cache.server import OriginServer
from repro.core.clustering import ClusterSet
from repro.net.prefix import Prefix
from repro.weblog.catalog import UrlCatalog
from repro.weblog.parser import WebLog

__all__ = [
    "SimulationResult",
    "ProxyResult",
    "CachingSimulator",
    "filter_rare_urls",
]


def filter_rare_urls(log: WebLog, min_accesses: int = 10) -> WebLog:
    """Drop requests to URLs accessed fewer than ``min_accesses`` times
    (footnote 9's preprocessing)."""
    counts: Dict[str, int] = {}
    for entry in log.entries:
        counts[entry.url] = counts.get(entry.url, 0) + 1
    kept = [e for e in log.entries if counts[e.url] >= min_accesses]
    return WebLog(log.name, kept)


@dataclass
class ProxyResult:
    """Per-cluster outcome of one simulation run."""

    cluster_prefix: Prefix
    num_clients: int
    stats: ProxyStats

    @property
    def hit_ratio(self) -> float:
        return self.stats.hit_ratio

    @property
    def byte_hit_ratio(self) -> float:
        return self.stats.byte_hit_ratio


@dataclass
class SimulationResult:
    """Outcome of one full trace replay."""

    log_name: str
    method: str
    cache_bytes: Optional[int]
    ttl_seconds: float
    total_requests: int = 0
    total_bytes: int = 0
    proxy_hits: int = 0
    proxy_bytes_hit: int = 0
    unproxied_requests: int = 0    # clients outside every cluster
    server_requests: int = 0
    server_bytes: int = 0
    proxies: List[ProxyResult] = field(default_factory=list)

    @property
    def server_hit_ratio(self) -> float:
        """Total hit ratio observed at the server: the fraction of all
        client requests absorbed by the proxy layer (Figure 11(a))."""
        if self.total_requests == 0:
            return 0.0
        return self.proxy_hits / self.total_requests

    @property
    def server_byte_hit_ratio(self) -> float:
        """Byte analogue (Figure 11(b))."""
        if self.total_bytes == 0:
            return 0.0
        return self.proxy_bytes_hit / self.total_bytes

    def top_proxies(self, count: int = 100) -> List[ProxyResult]:
        """Busiest proxies in reverse order of requests (Figure 12's
        'top 100 client clusters')."""
        ordered = sorted(self.proxies, key=lambda p: -p.stats.requests)
        return ordered[:count]


class CachingSimulator:
    """Replays a log against per-cluster proxies."""

    def __init__(
        self,
        log: WebLog,
        catalog: UrlCatalog,
        cluster_set: ClusterSet,
        min_url_accesses: int = 0,
    ) -> None:
        self.log = (
            filter_rare_urls(log, min_url_accesses) if min_url_accesses else log
        )
        self.catalog = catalog
        self.cluster_set = cluster_set
        # Precompute client -> cluster index once; reused across sweeps.
        self._cluster_of: Dict[int, Prefix] = {}
        self._cluster_clients: Dict[Prefix, int] = {}
        for cluster in cluster_set.clusters:
            self._cluster_clients[cluster.identifier] = cluster.num_clients
            for client in cluster.clients:
                self._cluster_of[client] = cluster.identifier

    def run(
        self,
        cache_bytes: Optional[int] = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        piggyback_limit: int = 10,
    ) -> SimulationResult:
        """Replay the whole log once with the given proxy configuration."""
        server = OriginServer(self.catalog)
        proxies: Dict[Prefix, ProxyCache] = {}
        result = SimulationResult(
            log_name=self.log.name,
            method=self.cluster_set.method,
            cache_bytes=cache_bytes,
            ttl_seconds=ttl_seconds,
        )
        # Each clustered client's proxy, found once per client.
        proxy_of: Dict[int, ProxyCache] = {}
        for entry in self.log.entries:
            result.total_requests += 1
            size = self.catalog.size_of(entry.url)
            result.total_bytes += size
            proxy = proxy_of.get(entry.client)
            if proxy is None:
                prefix = self._cluster_of.get(entry.client)
                if prefix is None:
                    # Unclusterable client: no proxy in front of it.
                    server.get(entry.url, entry.timestamp)
                    result.unproxied_requests += 1
                    continue
                proxy = proxies.get(prefix)
                if proxy is None:
                    proxy = proxies[prefix] = ProxyCache(
                        server,
                        capacity_bytes=cache_bytes,
                        ttl_seconds=ttl_seconds,
                        piggyback_limit=piggyback_limit,
                    )
                proxy_of[entry.client] = proxy
            if proxy.request(entry.url, entry.timestamp):
                result.proxy_hits += 1
                result.proxy_bytes_hit += size

        result.server_requests = server.requests_served
        result.server_bytes = server.bytes_served
        result.proxies = [
            ProxyResult(
                cluster_prefix=prefix,
                num_clients=self._cluster_clients.get(prefix, 0),
                stats=proxy.stats,
            )
            for prefix, proxy in proxies.items()
        ]
        return result
