"""Cluster distribution metrics (Figures 3–7).

The paper characterises a clustering by three per-cluster series —
number of clients, number of requests, number of unique URLs — plotted
in reverse order of either clients (Figure 4) or requests (Figure 5),
plus cumulative distributions (Figure 3, drawn by
:func:`repro.util.ascii_plot.ascii_cdf`).  This module computes those
series so the experiment harness can print/compare them, and summary
statistics used throughout §3–4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.clustering import ClusterSet

__all__ = [
    "ClusterDistributions",
    "distributions",
    "fraction_below",
    "summary",
    "ClusterSummary",
    "prefix_length_histogram",
]


@dataclass(frozen=True)
class ClusterDistributions:
    """Aligned per-cluster series under one ordering.

    Position ``i`` in every series refers to the same cluster (the
    paper stresses this alignment for Figures 4/5).
    """

    ordering: str                 # "clients" or "requests"
    identifiers: Tuple[str, ...]  # cluster prefixes, for traceability
    clients: Tuple[int, ...]
    requests: Tuple[int, ...]
    unique_urls: Tuple[int, ...]
    total_bytes: Tuple[int, ...]


def distributions(
    cluster_set: ClusterSet, order_by: str = "clients"
) -> ClusterDistributions:
    """Compute the aligned series in reverse order of ``order_by``."""
    if order_by == "clients":
        ordered = cluster_set.sorted_by_clients()
    elif order_by == "requests":
        ordered = cluster_set.sorted_by_requests()
    else:
        raise ValueError(f"order_by must be 'clients' or 'requests': {order_by!r}")
    return ClusterDistributions(
        ordering=order_by,
        identifiers=tuple(c.identifier.cidr for c in ordered),
        clients=tuple(c.num_clients for c in ordered),
        requests=tuple(c.requests for c in ordered),
        unique_urls=tuple(c.unique_urls for c in ordered),
        total_bytes=tuple(c.total_bytes for c in ordered),
    )


def fraction_below(values: Sequence[int], threshold: int) -> float:
    """Fraction of ``values`` strictly below ``threshold`` (the paper's
    '95 % of clusters contain less than 100 clients' style claims)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v < threshold) / len(values)


@dataclass(frozen=True)
class ClusterSummary:
    """Headline numbers for one clustering (the §3.2.2 narrative)."""

    method: str
    num_clusters: int
    num_clients: int
    clustered_fraction: float
    min_clients: int
    max_clients: int
    min_requests: int
    max_requests: int
    min_urls: int
    max_urls: int
    mean_clients: float
    variance_clients: float

    def describe(self) -> str:
        return (
            f"{self.method}: {self.num_clusters:,} clusters over "
            f"{self.num_clients:,} clients "
            f"({100 * self.clustered_fraction:.2f}% clustered); "
            f"cluster size {self.min_clients}–{self.max_clients}, "
            f"requests {self.min_requests}–{self.max_requests}, "
            f"URLs {self.min_urls}–{self.max_urls}"
        )


def summary(cluster_set: ClusterSet) -> ClusterSummary:
    """Compute :class:`ClusterSummary` for one clustering."""
    sizes = [c.num_clients for c in cluster_set.clusters] or [0]
    requests = [c.requests for c in cluster_set.clusters] or [0]
    urls = [c.unique_urls for c in cluster_set.clusters] or [0]
    mean = sum(sizes) / len(sizes)
    variance = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    return ClusterSummary(
        method=cluster_set.method,
        num_clusters=len(cluster_set),
        num_clients=cluster_set.num_clients,
        clustered_fraction=cluster_set.clustered_fraction,
        min_clients=min(sizes),
        max_clients=max(sizes),
        min_requests=min(requests),
        max_requests=max(requests),
        min_urls=min(urls),
        max_urls=max(urls),
        mean_clients=mean,
        variance_clients=variance,
    )


def prefix_length_histogram(cluster_set: ClusterSet) -> Dict[int, int]:
    """Histogram of cluster-identifier prefix lengths (Table 3's
    'prefix length range' and '/24 count' rows)."""
    histogram: Dict[int, int] = {}
    for cluster in cluster_set.clusters:
        length = cluster.identifier.length
        histogram[length] = histogram.get(length, 0) + 1
    return histogram
