"""Unit tests for the byte-capacity LRU cache."""

import pytest

from repro.cache.lru import CacheItem, LruCache


def item(url: str, size: int, fetched: float = 0.0, ttl: float = 100.0):
    return CacheItem(url=url, size=size, fetched_at=fetched,
                     expires_at=fetched + ttl)


class TestBasicOps:
    def test_put_get(self):
        cache = LruCache(1000)
        assert cache.put(item("/a", 100))
        got = cache.get("/a")
        assert got is not None and got.size == 100
        assert "/a" in cache
        assert cache.used_bytes == 100
        assert len(cache) == 1

    def test_get_missing(self):
        cache = LruCache(1000)
        assert cache.get("/nope") is None

    def test_replace_updates_bytes(self):
        cache = LruCache(1000)
        cache.put(item("/a", 100))
        cache.put(item("/a", 300))
        assert cache.used_bytes == 300
        assert len(cache) == 1

    def test_remove(self):
        cache = LruCache(1000)
        cache.put(item("/a", 100))
        assert cache.remove("/a")
        assert not cache.remove("/a")
        assert cache.used_bytes == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)
        with pytest.raises(ValueError):
            LruCache(-5)


class TestEviction:
    def test_lru_order(self):
        cache = LruCache(300)
        cache.put(item("/a", 100))
        cache.put(item("/b", 100))
        cache.put(item("/c", 100))
        cache.get("/a")          # /a becomes most recently used
        cache.put(item("/d", 100))  # evicts /b (least recently used)
        assert "/a" in cache and "/c" in cache and "/d" in cache
        assert "/b" not in cache
        assert cache.evictions == 1

    def test_peek_does_not_touch_recency(self):
        cache = LruCache(200)
        cache.put(item("/a", 100))
        cache.put(item("/b", 100))
        cache.peek("/a")
        cache.put(item("/c", 100))  # /a still LRU -> evicted
        assert "/a" not in cache and "/b" in cache

    def test_multi_eviction_for_large_item(self):
        cache = LruCache(300)
        for url in ("/a", "/b", "/c"):
            cache.put(item(url, 100))
        cache.put(item("/big", 250))
        assert "/big" in cache
        assert cache.used_bytes <= 300

    def test_item_bigger_than_capacity_rejected(self):
        cache = LruCache(100)
        assert not cache.put(item("/huge", 500))
        assert "/huge" not in cache

    def test_oversize_replacement_removes_old_copy(self):
        cache = LruCache(100)
        cache.put(item("/a", 50))
        assert not cache.put(item("/a", 500))
        assert "/a" not in cache
        assert cache.used_bytes == 0

    def test_infinite_capacity_never_evicts(self):
        cache = LruCache(None)
        for index in range(1000):
            cache.put(item(f"/{index}", 10_000))
        assert len(cache) == 1000
        assert cache.evictions == 0


class TestExpiry:
    def test_fresh_at(self):
        it = item("/a", 10, fetched=0.0, ttl=100.0)
        assert it.fresh_at(50.0)
        assert not it.fresh_at(100.0)

    def test_items_iterates_lru_first(self):
        cache = LruCache(None)
        cache.put(item("/a", 10))
        cache.put(item("/b", 10))
        cache.get("/a")
        assert [url for url, _ in cache.items()] == ["/b", "/a"]
