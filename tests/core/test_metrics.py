"""Unit tests for cluster distribution metrics."""

import pytest

from repro.core.clustering import Cluster, ClusterSet
from repro.core.metrics import (
    distributions,
    fraction_below,
    prefix_length_histogram,
    summary,
)
from repro.net.prefix import Prefix


def make_set():
    clusters = [
        Cluster(Prefix.from_cidr("10.0.0.0/24"), clients=[1, 2, 3],
                requests=10, unique_urls=5, total_bytes=100),
        Cluster(Prefix.from_cidr("10.0.1.0/24"), clients=[4],
                requests=100, unique_urls=2, total_bytes=1000),
        Cluster(Prefix.from_cidr("10.0.2.0/23"), clients=[5, 6],
                requests=50, unique_urls=8, total_bytes=500),
    ]
    return ClusterSet("t", "network-aware", clusters, unclustered_clients=[7])


class TestDistributions:
    def test_reverse_order_of_clients(self):
        dist = distributions(make_set(), order_by="clients")
        assert list(dist.clients) == [3, 2, 1]
        # Aligned: position i in every series refers to one cluster.
        assert list(dist.requests) == [10, 50, 100]
        assert list(dist.unique_urls) == [5, 8, 2]

    def test_reverse_order_of_requests(self):
        dist = distributions(make_set(), order_by="requests")
        assert list(dist.requests) == [100, 50, 10]
        assert list(dist.clients) == [1, 2, 3]

    def test_identifiers_traceable(self):
        dist = distributions(make_set(), order_by="requests")
        assert dist.identifiers[0] == "10.0.1.0/24"

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            distributions(make_set(), order_by="bytes")


class TestFractionBelow:
    def test_strictly_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5
        assert fraction_below([], 3) == 0.0
        assert fraction_below([5], 100) == 1.0


class TestSummary:
    def test_values(self):
        stats = summary(make_set())
        assert stats.num_clusters == 3
        assert stats.num_clients == 7  # 6 clustered + 1 unclustered
        assert stats.clustered_fraction == pytest.approx(6 / 7)
        assert (stats.min_clients, stats.max_clients) == (1, 3)
        assert (stats.min_requests, stats.max_requests) == (10, 100)
        assert stats.mean_clients == pytest.approx(2.0)
        assert stats.variance_clients == pytest.approx(2 / 3)
        assert "network-aware" in stats.describe()

    def test_empty_set(self):
        empty = ClusterSet("t", "simple", [])
        stats = summary(empty)
        assert stats.num_clusters == 0
        assert stats.clustered_fraction == 1.0


def test_prefix_length_histogram():
    assert prefix_length_histogram(make_set()) == {24: 2, 23: 1}
