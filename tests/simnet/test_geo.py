"""Unit tests for the geography/latency model."""

import pytest

from repro.simnet.geo import GeoModel, Location, haversine_km


class TestLocation:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            Location(91.0, 0.0)
        with pytest.raises(ValueError):
            Location(0.0, 181.0)

    def test_valid_extremes(self):
        Location(90.0, 180.0)
        Location(-90.0, -180.0)


class TestHaversine:
    def test_zero_distance(self):
        point = Location(40.0, -75.0)
        assert haversine_km(point, point) == 0.0

    def test_symmetric(self):
        a, b = Location(40.0, -75.0), Location(51.5, -0.1)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    def test_known_distance_new_york_to_london(self):
        new_york = Location(40.71, -74.01)
        london = Location(51.51, -0.13)
        assert haversine_km(new_york, london) == pytest.approx(5570, rel=0.02)

    def test_antipodal_bounded_by_half_circumference(self):
        a, b = Location(0.0, 0.0), Location(0.0, 180.0)
        assert haversine_km(a, b) == pytest.approx(20015, rel=0.01)


class TestGeoModel:
    def test_every_as_located(self, topology):
        geo = GeoModel(topology)
        for asn in topology.ases:
            location = geo.location_of_as(asn)
            assert -90 <= location.latitude <= 90

    def test_deterministic(self, topology):
        a, b = GeoModel(topology), GeoModel(topology)
        asn = next(iter(topology.ases))
        assert a.location_of_as(asn) == b.location_of_as(asn)

    def test_as_near_its_country(self, topology):
        from repro.simnet.geo import _COUNTRY_CENTROIDS

        geo = GeoModel(topology)
        for asn, autonomous_system in topology.ases.items():
            centroid = _COUNTRY_CENTROIDS[autonomous_system.country]
            location = geo.location_of_as(asn)
            assert abs(location.latitude - centroid[0]) <= 5.0
            assert abs(location.longitude - centroid[1]) <= 9.0

    def test_address_location_near_its_as(self, topology):
        import random

        geo = GeoModel(topology)
        rng = random.Random(1)
        leaf = rng.choice(topology.leaf_networks)
        host = topology.hosts_in_leaf(leaf, 1, rng)[0]
        address_location = geo.location_of_address(host)
        as_location = geo.location_of_as(leaf.asn)
        # Allocation-level position: regional jitter around the AS.
        assert abs(address_location.latitude - as_location.latitude) <= 7.5
        assert abs(address_location.longitude - as_location.longitude) <= 14.5
        assert geo.location_of_address(topology.unallocated_address(rng)) is None

    def test_same_allocation_same_location(self, topology):
        import random

        geo = GeoModel(topology)
        rng = random.Random(2)
        leaf = max(topology.leaf_networks, key=lambda l: l.capacity)
        host_a, host_b = topology.hosts_in_leaf(leaf, 2, rng)
        assert geo.location_of_address(host_a) == geo.location_of_address(host_b)


class TestLatencyModel:
    def test_same_as_is_cheapest(self, topology):
        geo = GeoModel(topology)
        asns = list(topology.ases)
        here = geo.location_of_as(asns[0])
        local = geo.latency_between(here, here)
        for other in asns[1:6]:
            assert geo.latency_between(here, geo.location_of_as(other)) >= local

    def test_latency_grows_with_distance(self, topology):
        geo = GeoModel(topology)
        asns = sorted(topology.ases)
        anchor = geo.location_of_as(asns[0])
        pairs = sorted(
            (
                (haversine_km(anchor, geo.location_of_as(other)),
                 geo.latency_between(anchor, geo.location_of_as(other)))
                for other in asns[1:]
            ),
        )
        distances = [d for d, _ in pairs]
        latencies = [l for _, l in pairs]
        assert latencies == sorted(latencies)
        assert distances == sorted(distances)

    def test_hops_add_latency(self, topology):
        geo = GeoModel(topology)
        here = geo.location_of_as(next(iter(topology.ases)))
        assert (geo.latency_between(here, here, hops=10)
                > geo.latency_between(here, here, hops=2))

    def test_rejects_negative_hops(self, topology):
        geo = GeoModel(topology)
        here = geo.location_of_as(next(iter(topology.ases)))
        with pytest.raises(ValueError):
            geo.latency_between(here, here, hops=-1)
