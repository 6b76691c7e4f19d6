"""Byte-capacity LRU cache (§4.1.5's replacement policy).

Stores variable-size resources and evicts least-recently-used entries
until the new resource fits.  ``capacity=None`` models the infinite
cache used for the per-proxy evaluation of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["CacheItem", "LruCache"]


@dataclass
class CacheItem:
    """One cached resource.

    ``fetched_at`` stamps when the copy was obtained from (or validated
    with) the origin; the TTL policy compares against it.
    """

    __slots__ = ("url", "size", "fetched_at", "expires_at")

    url: str
    size: int
    fetched_at: float
    expires_at: float

    def fresh_at(self, now: float) -> bool:
        return now < self.expires_at


class LruCache:
    """LRU over byte capacity.

    Resources bigger than the whole capacity are never admitted (they
    would otherwise flush the cache for one object).
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive or None: {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        # A plain dict keeps insertion order, so re-inserting on use
        # keeps it in recency order, and scanning its head (the PCV
        # piggyback scan) is a walk over one array rather than a
        # linked list.
        self._items: Dict[str, CacheItem] = {}
        self._used = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, url: str) -> bool:
        return url in self._items

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, url: str) -> Optional[CacheItem]:
        """Return the cached item and mark it most recently used."""
        item = self._items.pop(url, None)
        if item is not None:
            self._items[url] = item
        return item

    def peek(self, url: str) -> Optional[CacheItem]:
        """Return the item without touching recency (for scans)."""
        return self._items.get(url)

    def put(self, item: CacheItem) -> bool:
        """Insert/replace ``item``; returns False when it cannot fit."""
        if self.capacity_bytes is not None and item.size > self.capacity_bytes:
            self.remove(item.url)
            return False
        old = self._items.pop(item.url, None)
        if old is not None:
            self._used -= old.size
        while (
            self.capacity_bytes is not None
            and self._used + item.size > self.capacity_bytes
            and self._items
        ):
            evicted = self._items.pop(next(iter(self._items)))
            self._used -= evicted.size
            self.evictions += 1
        self._items[item.url] = item
        self._used += item.size
        return True

    def remove(self, url: str) -> bool:
        """Drop ``url``; True when it was cached."""
        item = self._items.pop(url, None)
        if item is None:
            return False
        self._used -= item.size
        return True

    def items(self) -> Iterator[Tuple[str, CacheItem]]:
        """Iterate (url, item) from least to most recently used."""
        return iter(self._items.items())

    def values(self) -> Iterator[CacheItem]:
        """Iterate the items from least to most recently used."""
        return iter(self._items.values())
