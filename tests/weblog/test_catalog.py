"""Unit tests for the URL catalog (sizes + modification process)."""

import pytest

from repro.weblog.catalog import UrlCatalog


START = 1000000.0
DAY = 86400.0


@pytest.fixture()
def catalog():
    return UrlCatalog(num_urls=200, seed=5, start_time=START,
                      duration_seconds=DAY)


class TestBasics:
    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError):
            UrlCatalog(0, 1, START, DAY)

    def test_urls_unique_and_indexed(self, catalog):
        urls = catalog.urls()
        assert len(urls) == 200
        assert len(set(urls)) == 200
        for index, url in enumerate(urls):
            assert catalog.url(index) == url

    def test_unknown_url_handling(self, catalog):
        assert catalog.size_of("/nope.html") > 0
        assert not catalog.modified_between("/nope.html", START, START + DAY)

    def test_sizes_positive_and_heavy_tailed(self, catalog):
        sizes = [catalog.size_of(url) for url in catalog.urls()]
        assert all(size >= 64 for size in sizes)
        mean = sum(sizes) / len(sizes)
        median = sorted(sizes)[len(sizes) // 2]
        assert mean > median  # log-normal skew

    def test_total_bytes(self, catalog):
        assert catalog.total_bytes() == sum(
            catalog.size_of(url) for url in catalog.urls()
        )

    def test_deterministic(self):
        a = UrlCatalog(50, 9, START, DAY)
        b = UrlCatalog(50, 9, START, DAY)
        assert [a.size_of(u) for u in a.urls()] == [
            b.size_of(u) for u in b.urls()
        ]


class TestModificationHistory:
    def test_some_urls_immutable_some_not(self, catalog):
        mutable = immutable = 0
        for url in catalog.urls():
            if catalog.modified_between(url, START, START + DAY):
                mutable += 1
            else:
                immutable += 1
        assert mutable > 0 and immutable > 0

    def test_interval_semantics(self, catalog):
        """modified_between(t0, t1) is True iff a change falls in
        (t0, t1]; splitting an interval at any point preserves the OR."""
        for url in catalog.urls()[:50]:
            mid = START + DAY / 2
            whole = catalog.modified_between(url, START, START + DAY)
            first = catalog.modified_between(url, START, mid)
            second = catalog.modified_between(url, mid, START + DAY)
            assert whole == (first or second)

    def test_empty_interval_never_modified(self, catalog):
        for url in catalog.urls()[:20]:
            assert not catalog.modified_between(url, START + 100, START + 100)

    def test_last_modified_monotone(self, catalog):
        for url in catalog.urls()[:50]:
            early = catalog.last_modified(url, START + DAY / 4)
            late = catalog.last_modified(url, START + DAY)
            assert early <= late
            assert late <= START + DAY

    def test_last_modified_consistent_with_modified_between(self, catalog):
        """modified_between(t0, t1) holds exactly when the most recent
        change seen at t1 happened after t0."""
        for url in catalog.urls()[:50]:
            t1 = START + DAY / 3
            t2 = START + 2 * DAY / 3
            changed = catalog.modified_between(url, t1, t2)
            assert changed == (catalog.last_modified(url, t2) > t1)
