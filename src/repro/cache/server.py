"""Origin-server model for the caching simulation.

Wraps the :class:`~repro.weblog.catalog.UrlCatalog`'s deterministic
modification history behind the two questions a proxy can ask:

* a full ``GET`` — returns the resource size and its last-modified
  time, and counts one server request (plus bytes);
* an ``If-Modified-Since`` validation — answers 304/200 depending on
  whether the resource changed since the proxy's copy, counting the
  (small) validation exchange and the body bytes only on 200.

The server-side counters are what Figure 11 reports (requests/bytes the
proxies could *not* absorb).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.weblog.catalog import UrlCatalog

__all__ = ["OriginServer", "FetchResult"]


class FetchResult(NamedTuple):
    """Outcome of one proxy-to-server exchange."""

    url: str
    status: int          # 200 or 304
    size: int            # body bytes transferred (0 on 304)
    last_modified: float


class OriginServer:
    """The origin: resource store plus load counters."""

    def __init__(self, catalog: UrlCatalog) -> None:
        self.catalog = catalog
        self.requests_served = 0
        self.bytes_served = 0
        self.validations_served = 0

    def get(self, url: str, now: float) -> FetchResult:
        """Serve a full GET for ``url``."""
        size = self.catalog.size_of(url)
        self.requests_served += 1
        self.bytes_served += size
        return FetchResult(
            url=url,
            status=200,
            size=size,
            last_modified=self.catalog.last_modified(url, now),
        )

    def get_if_modified_since(
        self, url: str, cached_at: float, now: float
    ) -> FetchResult:
        """Serve a conditional GET: 304 when unchanged since
        ``cached_at``, else a fresh 200 with the body."""
        self.validations_served += 1
        if self.catalog.modified_between(url, cached_at, now):
            return self.get(url, now)
        return FetchResult(
            url=url,
            status=304,
            size=0,
            last_modified=self.catalog.last_modified(url, now),
        )
