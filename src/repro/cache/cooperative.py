"""Co-operative proxy clusters (§4.1.4).

"The proxies assigned to clients in the same client cluster form a
proxy cluster and would co-operate with each other."  This simulator
realises that co-operation ICP-style: proxies are grouped into *sites*
(e.g. the AS+geography groups of :mod:`repro.core.placement`), and a
miss at one proxy first asks its site siblings before going to the
origin.  A sibling hit transfers the object locally — cheap — and the
requesting proxy caches its own copy.

The comparison that matters: the same trace replayed with co-operation
on vs off, same per-proxy capacity.  Co-operation converts some origin
misses into sibling hits, raising the site-level hit ratio exactly
where clusters within a site share interests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.lru import CacheItem
from repro.cache.policy import DEFAULT_TTL_SECONDS, ProxyCache
from repro.cache.server import OriginServer
from repro.core.clustering import ClusterSet
from repro.net.prefix import Prefix
from repro.weblog.catalog import UrlCatalog
from repro.weblog.parser import WebLog

__all__ = ["CooperativeResult", "CooperativeSimulator"]


@dataclass
class CooperativeResult:
    """Outcome of one co-operative replay."""

    total_requests: int = 0
    local_hits: int = 0          # served by the client's own proxy
    sibling_hits: int = 0        # served by a site sibling (ICP hit)
    misses: int = 0              # went to the origin
    unproxied_requests: int = 0
    num_sites: int = 0
    num_proxies: int = 0

    @property
    def hit_ratio(self) -> float:
        """Site-level hit ratio: local + sibling hits."""
        if self.total_requests == 0:
            return 0.0
        return (self.local_hits + self.sibling_hits) / self.total_requests

    def describe(self) -> str:
        return (
            f"{self.num_proxies} proxies in {self.num_sites} sites: "
            f"hit {self.hit_ratio:.3f} "
            f"(local {self.local_hits:,} + sibling {self.sibling_hits:,}) "
            f"over {self.total_requests:,} requests"
        )


class CooperativeSimulator:
    """Per-cluster proxies grouped into co-operating sites."""

    def __init__(
        self,
        log: WebLog,
        catalog: UrlCatalog,
        cluster_set: ClusterSet,
        site_of_cluster: Optional[Dict[Prefix, int]] = None,
    ) -> None:
        """``site_of_cluster`` maps each cluster identifier to a site id
        (e.g. from :func:`repro.core.placement.plan_placement`); by
        default every cluster is its own site (no co-operation)."""
        self.log = log
        self.catalog = catalog
        self._cluster_of: Dict[int, Prefix] = {}
        for cluster in cluster_set.clusters:
            for client in cluster.clients:
                self._cluster_of[client] = cluster.identifier
        if site_of_cluster is None:
            site_of_cluster = {
                cluster.identifier: index
                for index, cluster in enumerate(cluster_set.clusters)
            }
        self._site_of = site_of_cluster

    @classmethod
    def from_placement(
        cls,
        log: WebLog,
        catalog: UrlCatalog,
        cluster_set: ClusterSet,
        plan,
    ) -> "CooperativeSimulator":
        """Build with sites taken from a placement plan."""
        mapping = {
            cluster.identifier: site.site_id
            for site in plan.sites
            for cluster in site.members
        }
        return cls(log, catalog, cluster_set, mapping)

    def run(
        self,
        cache_bytes: Optional[int] = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        cooperate: bool = True,
    ) -> CooperativeResult:
        """Replay the trace once.

        ``cooperate=False`` runs the identical configuration without
        sibling lookups — the ablation baseline.
        """
        server = OriginServer(self.catalog)
        proxies: Dict[Prefix, ProxyCache] = {}
        site_members: Dict[int, List[ProxyCache]] = {}
        result = CooperativeResult()

        # Each clustered client's proxy and its site's members, found
        # once per client.
        proxy_of: Dict[int, Tuple[ProxyCache, List[ProxyCache]]] = {}
        for entry in self.log.entries:
            result.total_requests += 1
            found = proxy_of.get(entry.client)
            if found is None:
                prefix = self._cluster_of.get(entry.client)
                if prefix is None:
                    server.get(entry.url, entry.timestamp)
                    result.unproxied_requests += 1
                    result.misses += 1
                    continue
                site = self._site_of.get(prefix, -1)
                proxy = proxies.get(prefix)
                if proxy is None:
                    proxy = proxies[prefix] = ProxyCache(
                        server, capacity_bytes=cache_bytes,
                        ttl_seconds=ttl_seconds,
                    )
                    site_members.setdefault(site, []).append(proxy)
                found = proxy_of[entry.client] = (proxy, site_members[site])
            proxy, members = found

            # Local fresh copy?
            item = proxy.cache.get(entry.url)
            if item is not None and item.fresh_at(entry.timestamp):
                proxy.request(entry.url, entry.timestamp)
                result.local_hits += 1
                continue

            # Sibling lookup (ICP): a fresh copy anywhere in the site.
            if cooperate:
                donor_item = self._sibling_copy(
                    members, proxy, entry.url, entry.timestamp
                )
                if donor_item is not None:
                    # Transfer locally; the requester caches its own copy
                    # with the donor's freshness horizon.
                    proxy.adopt(
                        CacheItem(
                            url=entry.url,
                            size=donor_item.size,
                            fetched_at=donor_item.fetched_at,
                            expires_at=donor_item.expires_at,
                        )
                    )
                    result.sibling_hits += 1
                    continue

            # Origin path (validation or full fetch) via the normal proxy.
            if proxy.request(entry.url, entry.timestamp):
                result.local_hits += 1
            else:
                result.misses += 1

        result.num_proxies = len(proxies)
        result.num_sites = len(site_members)
        return result

    @staticmethod
    def _sibling_copy(
        members: Sequence[ProxyCache],
        requester: ProxyCache,
        url: str,
        now: float,
    ) -> Optional[CacheItem]:
        for sibling in members:
            if sibling is requester:
                continue
            item = sibling.cache.peek(url)
            if item is not None and item.fresh_at(now):
                return item
        return None
