"""Ground-truth entities of the simulated Internet.

The paper validates clusters against two fuzzy real-world notions:
*topological closeness* and *common administrative control*.  Because we
cannot query the 1999 Internet, the reproduction builds a synthetic one
with explicit ground truth: autonomous systems own address allocations,
allocations are subdivided into leaf networks, and every leaf network
belongs to exactly one administrative entity.  Validation and accuracy
measurements read this ground truth the way the paper's nslookup /
traceroute probes read the real network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.prefix import Prefix

__all__ = [
    "AsKind",
    "EntityKind",
    "AdminEntity",
    "AutonomousSystem",
    "Allocation",
    "LeafNetwork",
]


class AsKind:
    """Categories of autonomous systems (drives announcement behaviour)."""

    BACKBONE = "backbone"          # tier-1 transit, many allocations
    REGIONAL_ISP = "regional_isp"  # consumer/business ISP
    CAMPUS = "campus"              # university / research network
    ENTERPRISE = "enterprise"      # single large organisation
    LEGACY_B = "legacy_b"          # pre-CIDR class-B holder (one /16)
    NATIONAL_GATEWAY = "national_gateway"  # aggregates a country behind one AS

    ALL = (BACKBONE, REGIONAL_ISP, CAMPUS, ENTERPRISE, LEGACY_B, NATIONAL_GATEWAY)


class EntityKind:
    """Categories of administrative entities (drives DNS naming)."""

    ISP_POOL = "isp_pool"      # dialup/DHCP pool named under the ISP's domain
    BUSINESS = "business"      # small business behind an ISP sub-allocation
    UNIVERSITY = "university"  # department-style multi-label domains
    GOVERNMENT = "government"
    ENTERPRISE = "enterprise"

    ALL = (ISP_POOL, BUSINESS, UNIVERSITY, GOVERNMENT, ENTERPRISE)


@dataclass(frozen=True)
class AdminEntity:
    """One administrative control domain (a company, department, ISP pool).

    ``domain`` is the DNS suffix its hosts are named under;
    ``resolvable`` is False for entities whose reverse DNS is hidden
    (firewalls, unregistered ISP customers — the paper finds ~50 % of
    clients unresolvable, §3.3).  ``sites`` counts geographically
    distinct attachment points: multi-site entities share a domain but
    not a routing-path suffix, which is why traceroute validation is
    slightly stricter than nslookup validation in Table 3.
    """

    entity_id: int
    kind: str
    domain: str
    resolvable: bool
    sites: int = 1

    def __post_init__(self) -> None:
        if self.kind not in EntityKind.ALL:
            raise ValueError(f"unknown entity kind: {self.kind!r}")
        if self.sites < 1:
            raise ValueError(f"entity needs at least one site: {self.sites!r}")


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS: a region of administrative routing control.

    ``country`` feeds the paper's US / non-US mis-identification split
    (Table 3): national-gateway ASes are always non-US and aggregate all
    their customers behind coarse announcements.
    """

    asn: int
    name: str
    kind: str
    country: str

    def __post_init__(self) -> None:
        if self.kind not in AsKind.ALL:
            raise ValueError(f"unknown AS kind: {self.kind!r}")
        if not 1 <= self.asn <= 65535:
            raise ValueError(f"ASN out of 16-bit range: {self.asn!r}")

    @property
    def is_gateway(self) -> bool:
        return self.kind == AsKind.NATIONAL_GATEWAY


@dataclass(frozen=True)
class Allocation:
    """A registry-level address block assigned to one AS.

    This is what ARIN/NLANR-style IP network dumps record; the AS may
    subdivide it into leaf networks without the registry's knowledge
    (§3.1.1).  ``distribution_router`` names the intra-AS router that
    fronts the block in traceroute paths.
    """

    prefix: Prefix
    asn: int
    distribution_router: str


@dataclass(frozen=True)
class LeafNetwork:
    """The finest-grained ground-truth network: one subnet, one entity.

    ``announced`` says whether the owning AS announces this exact prefix
    into BGP (multihomed / statically routed customers) or leaves it
    aggregated inside its allocation (dialup pools, small customers).
    ``edge_router`` is the last hop before hosts; hosts in the same
    leaf always share it.  ``site`` selects which of the owning
    entity's sites this subnet attaches to.
    """

    prefix: Prefix
    entity_id: int
    asn: int
    allocation_prefix: Prefix
    announced: bool
    edge_router: str
    site: int = 0

    @property
    def capacity(self) -> int:
        """Usable host addresses (excludes network/broadcast for ≤ /30)."""
        total = self.prefix.num_addresses
        return total - 2 if total > 2 else total
