"""Unit tests for the origin-server model."""

from repro.cache.server import OriginServer
from repro.weblog.catalog import UrlCatalog

START = 0.0
DAY = 86400.0


def make_server() -> OriginServer:
    return OriginServer(UrlCatalog(50, seed=3, start_time=START,
                                   duration_seconds=DAY))


class TestGet:
    def test_counts_requests_and_bytes(self):
        server = make_server()
        url = server.catalog.url(0)
        result = server.get(url, 100.0)
        assert result.status == 200
        assert result.size == server.catalog.size_of(url)
        assert server.requests_served == 1
        assert server.bytes_served == result.size


class TestConditionalGet:
    def _mutable_url(self, server):
        for url in server.catalog.urls():
            if server.catalog.modified_between(url, START, START + DAY):
                return url
        raise AssertionError("no mutable URL in catalog")

    def _immutable_url(self, server):
        for url in server.catalog.urls():
            if not server.catalog.modified_between(url, START, START + DAY):
                return url
        raise AssertionError("no immutable URL in catalog")

    def test_unmodified_returns_304_no_bytes(self):
        server = make_server()
        url = self._immutable_url(server)
        result = server.get_if_modified_since(url, START, START + DAY)
        assert result.status == 304
        assert result.size == 0
        assert server.bytes_served == 0
        assert server.validations_served == 1

    def test_modified_returns_fresh_200(self):
        server = make_server()
        url = self._mutable_url(server)
        result = server.get_if_modified_since(url, START, START + DAY)
        assert result.status == 200
        assert result.size > 0
        assert server.bytes_served == result.size

    def test_validation_just_after_fetch_is_304(self):
        server = make_server()
        url = self._mutable_url(server)
        t = START + DAY / 2
        assert server.get_if_modified_since(url, t, t).status == 304
