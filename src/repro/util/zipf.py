"""Zipf-like discrete distributions.

The paper leans on the observation (§3.2.2, citing Breslau et al.) that
web-request popularity is Zipf-like: both URL popularity and per-cluster
request counts are heavy-tailed.  The workload generator samples from
the distributions built here.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List

__all__ = ["ZipfSampler", "zipf_weights"]


def zipf_weights(n: int, alpha: float = 1.0) -> List[float]:
    """Return unnormalised Zipf weights ``1/rank**alpha`` for n ranks."""
    if n <= 0:
        raise ValueError(f"need at least one rank, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return [1.0 / (rank ** alpha) for rank in range(1, n + 1)]


class ZipfSampler:
    """Sample ranks ``0..n-1`` with probability proportional to 1/(r+1)^alpha.

    Uses a precomputed cumulative table and binary search: O(log n) per
    sample, O(n) memory, no numpy dependency.
    """

    def __init__(self, n: int, alpha: float = 1.0) -> None:
        weights = zipf_weights(n, alpha)
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]
        self.n = n
        self.alpha = alpha

    def sample(self, rng: random.Random) -> int:
        """Draw one rank (0 is the most popular)."""
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)
