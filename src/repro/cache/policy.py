"""Proxy cache with TTL expiry and Piggyback Cache Validation (§4.1.5).

The paper's proxies implement the PCV scheme of Krishnamurthy & Wills
(USITS '97) with a fixed TTL:

* a cached resource is considered fresh for ``ttl`` seconds after it
  was fetched or last validated;
* when the proxy contacts the server anyway (a miss), it *piggybacks*
  validation checks for up to ``piggyback_limit`` expired-but-cached
  resources on that request; unmodified ones get their TTL renewed for
  free, modified ones are invalidated;
* a request for a resource that expired and was never re-validated
  triggers a ``GET If-Modified-Since``: a 304 renews the copy (counted
  as a *validation hit* — the body never crossed the network), a 200
  refetches it.

:class:`ProxyCache` exposes one entry point per client request and
accumulates the hit/byte counters Figures 11–12 are drawn from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Tuple

from repro.cache.lru import CacheItem, LruCache
from repro.cache.server import OriginServer

__all__ = ["ProxyStats", "ProxyCache", "DEFAULT_TTL_SECONDS"]

#: The paper's default staleness period: one hour.
DEFAULT_TTL_SECONDS = 3600.0


@dataclass
class ProxyStats:
    """Per-proxy counters."""

    requests: int = 0
    hits: int = 0                # served from cache without body transfer
    validation_hits: int = 0     # of which: via a 304 revalidation
    misses: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    piggyback_validations: int = 0
    piggyback_renewals: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_hit / self.bytes_requested


class ProxyCache:
    """One proxy: LRU store + TTL/PCV consistency against one origin."""

    def __init__(
        self,
        server: OriginServer,
        capacity_bytes: Optional[int] = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        piggyback_limit: int = 10,
    ) -> None:
        if ttl_seconds <= 0:
            raise ValueError(f"ttl must be positive: {ttl_seconds!r}")
        self.server = server
        self.cache = LruCache(capacity_bytes)
        self.ttl_seconds = ttl_seconds
        self.piggyback_limit = piggyback_limit
        self.stats = ProxyStats()
        # Min-heap of (expires_at, url), one entry pushed per expiry
        # ever set; an entry whose url is gone or has moved on to
        # another expiry is stale and dropped when it reaches the top.
        # The top valid entry is the earliest expiry in the cache.
        self._expiries: List[Tuple[float, str]] = []
        self._compact_above = 64

    # -- request path -----------------------------------------------------

    def request(self, url: str, now: float) -> bool:
        """Serve one client request; returns True on a cache hit
        (no response body fetched from the origin)."""
        size = self.server.catalog.size_of(url)
        stats = self.stats
        stats.requests += 1
        stats.bytes_requested += size

        item = self.cache.get(url)
        if item is not None and now < item.expires_at:  # item.fresh_at(now)
            stats.hits += 1
            stats.bytes_hit += item.size
            return True

        if item is not None:
            # Expired and not piggyback-renewed: conditional GET.
            result = self.server.get_if_modified_since(url, item.fetched_at, now)
            if result.status == 304:
                item.fetched_at = now
                self._expire(item, now + self.ttl_seconds)
                self.stats.hits += 1
                self.stats.validation_hits += 1
                self.stats.bytes_hit += item.size
                self._piggyback(now)
                return True
            self._store(url, result.size, now)
            self.stats.misses += 1
            self._piggyback(now)
            return False

        # Cold miss: full fetch, with piggybacked validations.
        result = self.server.get(url, now)
        self._store(url, result.size, now)
        self.stats.misses += 1
        self._piggyback(now)
        return False

    def adopt(self, item: CacheItem) -> None:
        """Cache a copy obtained elsewhere (a sibling proxy), keeping
        its own freshness horizon."""
        if self.cache.put(item):
            self._index(item)

    # -- internals ------------------------------------------------------------

    def _store(self, url: str, size: int, now: float) -> None:
        item = CacheItem(
            url=url,
            size=size,
            fetched_at=now,
            expires_at=now + self.ttl_seconds,
        )
        if self.cache.put(item):
            self._index(item)

    def _expire(self, item: CacheItem, expires_at: float) -> None:
        item.expires_at = expires_at
        self._index(item)

    def _index(self, item: CacheItem) -> None:
        expiries = self._expiries
        heapq.heappush(expiries, (item.expires_at, item.url))
        if len(expiries) > self._compact_above:
            # Rebuild from the live items, so the index stays within
            # twice the cache (amortised O(1) per push).
            expiries[:] = [
                (cached.expires_at, url) for url, cached in self.cache.items()
            ]
            heapq.heapify(expiries)
            self._compact_above = 2 * len(expiries) + 64

    def _may_hold_expired(self, now: float) -> bool:
        """False when every cached item is provably fresh at ``now``:
        the earliest live expiry is still ahead (``fresh_at`` is
        ``now < expires_at``)."""
        expiries, peek = self._expiries, self.cache.peek
        while expiries:
            expires_at, url = expiries[0]
            item = peek(url)
            if item is not None and item.expires_at == expires_at:
                return not now < expires_at
            heapq.heappop(expiries)
        return False

    def _piggyback(self, now: float) -> None:
        """Ride validation checks for expired cached resources on the
        server contact that just happened (the heart of PCV)."""
        limit = self.piggyback_limit
        if limit <= 0 or not self._may_hold_expired(now):
            return  # the scan below would find nothing
        # Scan from the LRU end, where stale entries concentrate, with a
        # fixed budget so per-request piggybacking stays O(1) even for
        # very large caches (the real PCV proxy batches similarly): the
        # first ``limit`` expired items among the first ``budget``.
        expired = []
        for item in islice(self.cache.values(), max(limit * 5, 25)):
            if not now < item.expires_at:  # not item.fresh_at(now)
                expired.append(item)
                if len(expired) >= limit:
                    break
        for item in expired:
            self.stats.piggyback_validations += 1
            if self.server.catalog.modified_between(item.url, item.fetched_at, now):
                self.cache.remove(item.url)
            else:
                item.fetched_at = now
                self._expire(item, now + self.ttl_seconds)
                self.stats.piggyback_renewals += 1
