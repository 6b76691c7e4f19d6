"""Proxy placement and latency evaluation (§4.1.4 + §1's motivation).

§4.1.4 describes two placement approaches:

1. **per-cluster** — one or more proxies in front of every (busy)
   client cluster, sized by demand; easy, and what the caching
   simulation of §4.1.5 evaluates;
2. **proxy clusters** — place a proxy per cluster, then group proxies
   "according to their AS numbers and geographical locations": all
   proxies in the same AS and geographically nearby form one
   co-operating proxy cluster.  More practical, per the paper.

:func:`plan_placement` implements the second approach over the
:class:`~repro.simnet.geo.GeoModel`;
:func:`evaluate_latency` scores any placement by the request-weighted
mean client latency, against the everyone-to-the-origin baseline —
quantifying §1's "lowers the latency perceived by the clients".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.clustering import Cluster, ClusterSet
from repro.simnet.geo import GeoModel, Location, haversine_km
from repro.simnet.topology import Topology

__all__ = [
    "ProxySite",
    "PlacementPlan",
    "LatencyReport",
    "plan_placement",
    "evaluate_latency",
]


@dataclass
class ProxySite:
    """One proxy cluster: co-located proxies serving nearby clusters."""

    site_id: int
    asn: int
    location: Location
    members: List[Cluster] = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        return len(self.members)

    @property
    def num_clients(self) -> int:
        return sum(c.num_clients for c in self.members)

    @property
    def requests(self) -> int:
        return sum(c.requests for c in self.members)


@dataclass
class PlacementPlan:
    """A full placement: every placed cluster belongs to one site."""

    sites: List[ProxySite]
    unplaced_clusters: int  # clusters whose clients resolve to no AS

    def __len__(self) -> int:
        return len(self.sites)

    def sorted_by_requests(self) -> List[ProxySite]:
        return sorted(self.sites, key=lambda s: -s.requests)


def plan_placement(
    cluster_set: ClusterSet,
    topology: Topology,
    geo: GeoModel,
    radius_km: float = 800.0,
) -> PlacementPlan:
    """Group per-cluster proxies into proxy clusters (§4.1.4 approach 2).

    Two clusters share a site when their origin ASes match and their AS
    locations are within ``radius_km`` (greedy, demand-first: the
    busiest cluster seeds each site, so sites grow around demand).
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive: {radius_km!r}")
    placed: List[Tuple[Cluster, int, Location]] = []
    unplaced = 0
    for cluster in cluster_set.clusters:
        autonomous_system = (
            topology.as_for_address(cluster.clients[0])
            if cluster.clients else None
        )
        if autonomous_system is None:
            unplaced += 1
            continue
        # Allocation-level position: regional, not the AS headquarters,
        # so the radius genuinely splits continental ISPs.
        location = (
            geo.location_of_address(cluster.clients[0])
            or geo.location_of_as(autonomous_system.asn)
        )
        placed.append((cluster, autonomous_system.asn, location))
    # Demand-first greedy assignment.
    placed.sort(key=lambda item: -item[0].requests)
    sites: List[ProxySite] = []
    for cluster, asn, location in placed:
        target = None
        for site in sites:
            if site.asn != asn:
                continue
            if haversine_km(site.location, location) <= radius_km:
                target = site
                break
        if target is None:
            target = ProxySite(
                site_id=len(sites), asn=asn, location=location
            )
            sites.append(target)
        target.members.append(cluster)
    return PlacementPlan(sites=sites, unplaced_clusters=unplaced)


@dataclass
class LatencyReport:
    """Request-weighted latency with and without the placement."""

    origin_asn: int
    baseline_ms: float       # every request served by the origin
    placed_ms: float         # requests served by the assigned site
    weighted_requests: int

    @property
    def reduction(self) -> float:
        """Fractional latency reduction (0.4 = 40 % faster)."""
        if self.baseline_ms <= 0.0:
            return 0.0
        return 1.0 - self.placed_ms / self.baseline_ms


def evaluate_latency(
    plan: PlacementPlan,
    topology: Topology,
    geo: GeoModel,
    origin_asn: int,
) -> LatencyReport:
    """Score ``plan``: mean request latency to the assigned site versus
    to the origin, weighted by per-cluster request volume.

    Clusters use their first client's AS as the vantage (all clients of
    a correct cluster share it).  Cache misses still travel to the
    origin, so this is the *hit-path* improvement — an upper bound
    scaled by the hit ratio of §4.1.5's simulation.
    """
    origin_location = geo.location_of_as(origin_asn)
    baseline_total = 0.0
    placed_total = 0.0
    weight_total = 0
    for site in plan.sites:
        for cluster in site.members:
            client_location = geo.location_of_address(cluster.clients[0])
            if client_location is None:
                continue
            weight = max(1, cluster.requests)
            baseline = geo.latency_between(client_location, origin_location)
            to_site = geo.latency_between(client_location, site.location,
                                          hops=3)
            baseline_total += baseline * weight
            placed_total += to_site * weight
            weight_total += weight
    if weight_total == 0:
        return LatencyReport(origin_asn, 0.0, 0.0, 0)
    return LatencyReport(
        origin_asn=origin_asn,
        baseline_ms=baseline_total / weight_total,
        placed_ms=placed_total / weight_total,
        weighted_requests=weight_total,
    )
