"""Unit/integration tests for proxy placement and latency evaluation."""

import pytest

from repro.core.clustering import ClusterSet, cluster_log
from repro.core.placement import evaluate_latency, plan_placement
from repro.core.threshold import threshold_busy_clusters
from repro.simnet.geo import GeoModel


@pytest.fixture(scope="module")
def geo(topology):
    return GeoModel(topology)


@pytest.fixture(scope="module")
def clusters(nagano_log, merged_table):
    return cluster_log(nagano_log.log, merged_table)


class TestPlanPlacement:
    def test_every_cluster_placed_once(self, clusters, topology, geo):
        plan = plan_placement(clusters, topology, geo)
        placed = sum(site.num_clusters for site in plan.sites)
        assert placed + plan.unplaced_clusters == len(clusters)

    def test_sites_are_single_as(self, clusters, topology, geo):
        plan = plan_placement(clusters, topology, geo)
        for site in plan.sites:
            for cluster in site.members:
                autonomous_system = topology.as_for_address(cluster.clients[0])
                assert autonomous_system.asn == site.asn

    def test_fewer_sites_than_clusters(self, clusters, topology, geo):
        plan = plan_placement(clusters, topology, geo)
        assert len(plan) < len(clusters)

    def test_radius_zero_rejected(self, clusters, topology, geo):
        with pytest.raises(ValueError):
            plan_placement(clusters, topology, geo, radius_km=0.0)

    def test_larger_radius_fewer_or_equal_sites(self, clusters, topology, geo):
        tight = plan_placement(clusters, topology, geo, radius_km=50.0)
        loose = plan_placement(clusters, topology, geo, radius_km=5000.0)
        assert len(loose) <= len(tight)

    def test_bogus_clients_unplaced(self, topology, geo, nagano_log,
                                    merged_table):
        from repro.core.clustering import Cluster
        from repro.net.prefix import Prefix

        import random

        bogus = Cluster(
            Prefix.from_cidr("127.1.2.3/32"),
            clients=[topology.unallocated_address(random.Random(1))],
            requests=5,
        )
        lone = ClusterSet("t", "network-aware", [bogus])
        plan = plan_placement(lone, topology, geo)
        assert plan.unplaced_clusters == 1
        assert len(plan) == 0

    def test_demand_ordering(self, clusters, topology, geo):
        plan = plan_placement(clusters, topology, geo)
        ordered = plan.sorted_by_requests()
        requests = [site.requests for site in ordered]
        assert requests == sorted(requests, reverse=True)


class TestLatencyEvaluation:
    def _origin(self, topology):
        # Use a US backbone AS as the origin server's home.
        return next(
            asn for asn, a_s in topology.ases.items()
            if a_s.kind == "backbone"
        )

    def test_placement_reduces_latency(self, clusters, topology, geo):
        """§1's motivation quantified: serving from nearby proxy
        clusters beats the single origin."""
        plan = plan_placement(clusters, topology, geo)
        report = evaluate_latency(plan, topology, geo, self._origin(topology))
        assert report.placed_ms < report.baseline_ms
        assert 0.0 < report.reduction < 1.0

    def test_busy_only_placement_still_reduces(self, clusters, topology, geo):
        busy = threshold_busy_clusters(clusters).busy
        busy_set = ClusterSet(clusters.log_name, clusters.method, busy)
        plan = plan_placement(busy_set, topology, geo)
        report = evaluate_latency(plan, topology, geo, self._origin(topology))
        assert report.reduction > 0.0

    def test_empty_plan(self, topology, geo):
        from repro.core.placement import PlacementPlan

        report = evaluate_latency(
            PlacementPlan(sites=[], unplaced_clusters=0),
            topology, geo, self._origin(topology),
        )
        assert report.weighted_requests == 0
        assert report.reduction == 0.0
