"""Multi-server caching simulation (§4.1.5, closing remark).

"While we only address simulation of Web caching system with one server
and multiple proxies, we can also simulate multiple servers and
multiple proxies by merging more server logs collected at the same
time."

:func:`merge_logs` interleaves several server logs chronologically,
namespacing URLs per origin; :class:`MultiServerSimulator` replays the
merged trace with one proxy per client cluster, where each proxy caches
resources from *all* origins in one LRU (as a real shared proxy does)
and per-origin counters report which server benefits how much.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.cache.policy import DEFAULT_TTL_SECONDS, ProxyCache
from repro.cache.server import OriginServer
from repro.core.clustering import ClusterSet
from repro.net.prefix import Prefix
from repro.weblog.catalog import UrlCatalog
from repro.weblog.entry import LogEntry
from repro.weblog.parser import WebLog

__all__ = ["OriginSpec", "MultiServerResult", "MultiServerSimulator", "merge_logs"]


@dataclass(frozen=True)
class OriginSpec:
    """One origin server: its name, log, and resource catalog."""

    name: str
    log: WebLog
    catalog: UrlCatalog


def merge_logs(origins: Sequence[OriginSpec]) -> WebLog:
    """Chronologically interleave several origin logs into one trace.

    URLs are namespaced ``//<origin>/<url>`` so identically-named
    resources on different servers stay distinct, exactly as a shared
    proxy keys its cache by full URL.
    """
    streams = []
    for origin in origins:
        stream = [
            LogEntry(
                client=e.client,
                timestamp=e.timestamp,
                url=f"//{origin.name}{e.url}",
                size=e.size,
                status=e.status,
                method=e.method,
                user_agent=e.user_agent,
                referer=e.referer,
            )
            for e in origin.log.entries
        ]
        streams.append(stream)
    merged = list(heapq.merge(*streams, key=lambda e: e.timestamp))
    return WebLog("+".join(o.name for o in origins), merged)


@dataclass
class PerOriginCounters:
    """What one origin observed during the replay."""

    requests: int = 0
    proxy_hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.proxy_hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_hit / self.bytes_requested


@dataclass
class MultiServerResult:
    """Outcome of one multi-origin replay."""

    total_requests: int = 0
    proxy_hits: int = 0
    per_origin: Dict[str, PerOriginCounters] = field(default_factory=dict)
    num_proxies: int = 0
    unproxied_requests: int = 0

    @property
    def overall_hit_ratio(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.proxy_hits / self.total_requests


class _FederatedCatalog:
    """Catalog view over several origins, keyed by namespaced URL.

    Quacks like :class:`UrlCatalog` for the parts :class:`ProxyCache`
    touches (``size_of`` / ``modified_between`` / ``last_modified``).
    """

    def __init__(self, origins: Sequence[OriginSpec]) -> None:
        self._catalogs = {origin.name: origin.catalog for origin in origins}
        self.start_time = min(o.catalog.start_time for o in origins)

    def _split(self, url: str) -> Tuple[Optional[UrlCatalog], str]:
        if url.startswith("//"):
            origin, _, path = url[2:].partition("/")
            return self._catalogs.get(origin), "/" + path
        return None, url

    def size_of(self, url: str) -> int:
        catalog, path = self._split(url)
        return catalog.size_of(path) if catalog else 2048

    def modified_between(self, url: str, t0: float, t1: float) -> bool:
        catalog, path = self._split(url)
        return catalog.modified_between(path, t0, t1) if catalog else False

    def last_modified(self, url: str, at: float) -> float:
        catalog, path = self._split(url)
        return catalog.last_modified(path, at) if catalog else self.start_time


class MultiServerSimulator:
    """One proxy per cluster, many origins behind them."""

    def __init__(
        self,
        origins: Sequence[OriginSpec],
        cluster_set: ClusterSet,
    ) -> None:
        if not origins:
            raise ValueError("need at least one origin")
        self.origins = tuple(origins)
        self.merged_log = merge_logs(origins)
        self._federated = _FederatedCatalog(origins)
        self._cluster_of: Dict[int, Prefix] = {}
        for cluster in cluster_set.clusters:
            for client in cluster.clients:
                self._cluster_of[client] = cluster.identifier

    def run(
        self,
        cache_bytes: Optional[int] = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
    ) -> MultiServerResult:
        """Replay the merged trace once."""
        server = OriginServer(self._federated)  # type: ignore[arg-type]
        proxies: Dict[Prefix, ProxyCache] = {}
        result = MultiServerResult(
            per_origin={origin.name: PerOriginCounters()
                        for origin in self.origins}
        )
        # Each clustered client's proxy, found once per client.
        proxy_of: Dict[int, ProxyCache] = {}
        for entry in self.merged_log.entries:
            origin_name = entry.url[2:].partition("/")[0]
            counters = result.per_origin.get(origin_name)
            size = self._federated.size_of(entry.url)
            result.total_requests += 1
            if counters is not None:
                counters.requests += 1
                counters.bytes_requested += size
            proxy = proxy_of.get(entry.client)
            if proxy is None:
                prefix = self._cluster_of.get(entry.client)
                if prefix is None:
                    server.get(entry.url, entry.timestamp)
                    result.unproxied_requests += 1
                    continue
                proxy = proxies.get(prefix)
                if proxy is None:
                    proxy = proxies[prefix] = ProxyCache(
                        server, capacity_bytes=cache_bytes,
                        ttl_seconds=ttl_seconds,
                    )
                proxy_of[entry.client] = proxy
            if proxy.request(entry.url, entry.timestamp):
                result.proxy_hits += 1
                if counters is not None:
                    counters.proxy_hits += 1
                    counters.bytes_hit += size
        result.num_proxies = len(proxies)
        return result
