"""Geography for the simulated Internet.

§3.1.1 notes that AS number and path information "can also provide
hints on the geographical location of clients", and §4.1.4's preferred
proxy-placement approach groups proxies "according to their AS numbers
and geographical locations".  This module gives every AS a location:

* each country has an approximate centroid;
* each AS gets a deterministic jittered position inside its country;
* great-circle distance and a simple distance-plus-hops latency model
  connect the pieces, so placement quality can be scored in
  milliseconds of client-perceived latency (the paper's §1 motivation
  for moving content closer to clients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.simnet.topology import Topology
from repro.util.rng import derive_seed

__all__ = ["GeoModel", "Location", "haversine_km"]

#: Rough country centroids (latitude, longitude) for the countries the
#: topology generator uses.
_COUNTRY_CENTROIDS: Dict[str, Tuple[float, float]] = {
    "US": (39.8, -98.6),
    "CA": (56.1, -106.3),
    "UK": (54.0, -2.0),
    "DE": (51.2, 10.4),
    "FR": (46.2, 2.2),
    "JP": (36.2, 138.3),
    "KR": (36.5, 127.8),
    "BR": (-14.2, -51.9),
    "AU": (-25.3, 133.8),
    "ZA": (-30.6, 22.9),
    "HR": (45.1, 15.2),
    "SG": (1.35, 103.8),
    "NL": (52.1, 5.3),
}

_EARTH_RADIUS_KM = 6371.0

#: Latency model: base stack latency plus per-km propagation (speed of
#: light in fibre, with routing stretch) plus per-hop queueing.
_BASE_MS = 4.0
_MS_PER_KM = 0.015
_MS_PER_HOP = 1.5


@dataclass(frozen=True)
class Location:
    """A point on the globe."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude!r}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude!r}")


def haversine_km(a: Location, b: Location) -> float:
    """Great-circle distance between two locations, in kilometres."""
    lat_a, lon_a = math.radians(a.latitude), math.radians(a.longitude)
    lat_b, lon_b = math.radians(b.latitude), math.radians(b.longitude)
    d_lat = lat_b - lat_a
    d_lon = lon_b - lon_a
    h = (
        math.sin(d_lat / 2.0) ** 2
        + math.cos(lat_a) * math.cos(lat_b) * math.sin(d_lon / 2.0) ** 2
    )
    return 2.0 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


class GeoModel:
    """Deterministic AS locations + a distance/hop latency model."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._seed = derive_seed(topology.config.seed, "geo")
        self._locations: Dict[int, Location] = {}
        for asn, autonomous_system in topology.ases.items():
            centroid = _COUNTRY_CENTROIDS.get(
                autonomous_system.country, _COUNTRY_CENTROIDS["US"]
            )
            jitter_lat = self._noise(f"lat:{asn}") * 8.0 - 4.0
            jitter_lon = self._noise(f"lon:{asn}") * 16.0 - 8.0
            self._locations[asn] = Location(
                max(-89.0, min(89.0, centroid[0] + jitter_lat)),
                max(-179.0, min(179.0, centroid[1] + jitter_lon)),
            )

    def _noise(self, label: str) -> float:
        return (derive_seed(self._seed, label) & 0xFFFFFFFF) / float(1 << 32)

    # -- locations -----------------------------------------------------------

    def location_of_as(self, asn: int) -> Location:
        """Headquarters location of an AS (KeyError for unknown ASNs)."""
        return self._locations[asn]

    def location_of_allocation(self, asn: int, allocation_cidr: str) -> Location:
        """Location of one allocation's service region.

        Large ASes span regions: each registry allocation gets its own
        deterministic position near (but not at) the AS headquarters,
        so geographic grouping can split a continental ISP into
        regional proxy sites.
        """
        base = self._locations[asn]
        jitter_lat = self._noise(f"alat:{asn}:{allocation_cidr}") * 14.0 - 7.0
        jitter_lon = self._noise(f"alon:{asn}:{allocation_cidr}") * 28.0 - 14.0
        return Location(
            max(-89.0, min(89.0, base.latitude + jitter_lat)),
            max(-179.0, min(179.0, base.longitude + jitter_lon)),
        )

    def location_of_address(self, address: int) -> Optional[Location]:
        """Location of ``address``'s network region (None if
        unallocated): the allocation-level position when known, the
        AS headquarters otherwise."""
        autonomous_system = self._topology.as_for_address(address)
        if autonomous_system is None:
            return None
        allocation = self._topology.allocation_for_address(address)
        if allocation is not None:
            return self.location_of_allocation(
                autonomous_system.asn, allocation.prefix.cidr
            )
        return self._locations[autonomous_system.asn]

    # -- latency ---------------------------------------------------------------

    def latency_between(
        self, a: Location, b: Location, hops: int = 6
    ) -> float:
        """Modelled one-way latency between two raw locations."""
        if hops < 0:
            raise ValueError(f"hop count must be non-negative: {hops!r}")
        return _BASE_MS + haversine_km(a, b) * _MS_PER_KM + hops * _MS_PER_HOP
