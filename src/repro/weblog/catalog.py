"""URL catalog: the origin server's resource population.

The caching simulation needs, for every URL, a stable response size
(byte hit ratios, cache capacity in bytes) and a modification history
(TTL expiry + piggyback/If-Modified-Since validation).  Real logs give
sizes; modification times are never logged, so the catalog generates a
deterministic per-URL Poisson modification process: roughly half the
resources are immutable and the rest change every few hours, which is
what makes a 1-hour TTL meaningful in Figure 11's simulation.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

from repro.util.rng import spawn

__all__ = ["UrlCatalog"]


class UrlCatalog:
    """Deterministic resource population for one synthetic log."""

    def __init__(
        self,
        num_urls: int,
        seed: int,
        start_time: float,
        duration_seconds: float,
        mean_bytes: float = 8192.0,
        immutable_fraction: float = 0.5,
        mean_change_hours: float = 6.0,
    ) -> None:
        if num_urls <= 0:
            raise ValueError(f"catalog needs at least one URL: {num_urls}")
        self.num_urls = num_urls
        self.start_time = start_time
        self.duration_seconds = duration_seconds
        rng = spawn(seed, "catalog")
        # Log-normal sizes: median well under the mean, a heavy tail of
        # large resources (the usual web object size shape).
        sigma = 1.0
        mu = math.log(mean_bytes) - sigma * sigma / 2.0
        self._sizes: List[int] = [
            max(64, int(rng.lognormvariate(mu, sigma))) for _ in range(num_urls)
        ]
        self._urls: List[str] = [
            f"/docs/page{index:05d}.html" for index in range(num_urls)
        ]
        self._index: Dict[str, int] = {
            url: index for index, url in enumerate(self._urls)
        }
        # Per-URL modification schedule over [start, start + duration].
        self._mod_times: List[Tuple[float, ...]] = []
        for index in range(num_urls):
            if rng.random() < immutable_fraction:
                self._mod_times.append(())
                continue
            interval = rng.expovariate(1.0 / (mean_change_hours * 3600.0))
            times: List[float] = []
            cursor = start_time + rng.random() * max(interval, 1.0)
            while cursor < start_time + duration_seconds:
                times.append(cursor)
                interval = rng.expovariate(1.0 / (mean_change_hours * 3600.0))
                cursor += max(interval, 60.0)
            self._mod_times.append(tuple(times))

    # -- lookups -------------------------------------------------------------

    def url(self, index: int) -> str:
        return self._urls[index]

    def urls(self) -> Sequence[str]:
        return tuple(self._urls)

    def size_of(self, url: str) -> int:
        """Response size in bytes; unknown URLs get a default size."""
        index = self._index.get(url)
        return self._sizes[index] if index is not None else 2048

    def total_bytes(self) -> int:
        """Sum of all resource sizes (bounds useful cache capacity)."""
        return sum(self._sizes)

    # -- modification history ---------------------------------------------

    def modified_between(self, url: str, t0: float, t1: float) -> bool:
        """True when ``url`` changed in the half-open interval (t0, t1].

        This is what an If-Modified-Since validation observes: the
        cached copy fetched at ``t0`` is stale at ``t1`` iff some
        modification happened in between.
        """
        index = self._index.get(url)
        if index is None:
            return False
        times = self._mod_times[index]
        if not times:
            return False
        position = bisect.bisect_right(times, t0)
        return position < len(times) and times[position] <= t1

    def last_modified(self, url: str, at: float) -> float:
        """The most recent modification time of ``url`` at time ``at``
        (the catalog epoch when it never changed)."""
        index = self._index.get(url)
        if index is None:
            return self.start_time
        times = self._mod_times[index]
        position = bisect.bisect_right(times, at)
        return times[position - 1] if position else self.start_time
