"""Synthetic Internet topology with ground truth.

Generates the world the rest of the reproduction observes indirectly:

* autonomous systems of five kinds (backbone, regional ISP, campus,
  enterprise, national gateway) spread over countries;
* registry-level address *allocations* per AS, carved from a global
  address pool the way CIDR blocks were allocated circa 1999;
* *leaf networks* subdividing each allocation — the finest ground-truth
  subnet, each owned by exactly one administrative entity;
* per-leaf BGP announcement decisions (announced specific vs aggregated
  behind the allocation), which later shape what the synthetic routing
  snapshots can see.

The generated leaf/announcement structure is tuned so that the prefixes
visible in NAP-style BGP snapshots reproduce the paper's Figure 1
shape: roughly half are /24, with far more shorter-than-24 entries
than longer (route servers filter long customer specifics; those
survive only in the forwarding-table source, as in the paper's
merged table whose prefix lengths reach /29).

Everything is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.prefix import Prefix
from repro.net.radix import RadixTree
from repro.simnet.entities import (
    AdminEntity,
    Allocation,
    AsKind,
    AutonomousSystem,
    EntityKind,
    LeafNetwork,
)
from repro.util.rng import spawn

__all__ = ["TopologyConfig", "Topology", "generate_topology"]

# Countries used for AS placement.  The paper's Table 3 splits
# mis-identifications into US / non-US; national gateways (Croatia,
# France, Japan in the paper) are always non-US here.
_US = "US"
_NON_US = ("CA", "UK", "DE", "FR", "JP", "KR", "BR", "AU", "ZA", "HR", "SG", "NL")

_TLD_BY_COUNTRY = {
    "US": ("com", "net", "org", "edu", "gov"),
    "CA": ("ca",),
    "UK": ("co.uk", "ac.uk"),
    "DE": ("de",),
    "FR": ("fr",),
    "JP": ("co.jp", "ac.jp"),
    "KR": ("co.kr",),
    "BR": ("com.br",),
    "AU": ("com.au", "edu.au"),
    "ZA": ("co.za", "ac.za"),
    "HR": ("hr",),
    "SG": ("com.sg",),
    "NL": ("nl",),
}

_NAME_SYLLABLES = (
    "tel", "net", "link", "corp", "west", "east", "north", "sky", "star",
    "gate", "wave", "core", "metro", "inter", "uni", "tech", "data", "byte",
    "ridge", "park", "lake", "hill", "bell", "path", "port", "field",
)


def _coin(rng: random.Random, probability: float) -> bool:
    return rng.random() < probability


def _org_word(rng: random.Random) -> str:
    return rng.choice(_NAME_SYLLABLES) + rng.choice(_NAME_SYLLABLES)


@dataclass
class TopologyConfig:
    """Knobs for topology generation.

    The defaults generate a network sized for laptop-scale experiments:
    a few thousand leaf networks, which after log synthesis yields on
    the order of a thousand clusters (the paper's Nagano log has 9,853
    from 59,582 clients; we operate at roughly 1/10 scale).
    """

    seed: int = 2000
    num_backbone: int = 3
    num_regional_isps: int = 14
    num_campus: int = 12
    num_enterprise: int = 12
    num_gateways: int = 4
    num_legacy_b: int = 40
    #: Mean allocations per AS, by kind.
    allocations_per_kind: Dict[str, int] = field(
        default_factory=lambda: {
            AsKind.BACKBONE: 6,
            AsKind.REGIONAL_ISP: 4,
            AsKind.CAMPUS: 1,
            AsKind.ENTERPRISE: 1,
            AsKind.LEGACY_B: 1,
            AsKind.NATIONAL_GATEWAY: 3,
        }
    )
    #: Probability that a business leaf is announced as a BGP specific.
    business_announce_probability: float = 0.80
    #: Probability that an ISP-pool leaf is announced individually.
    pool_announce_probability: float = 0.35
    #: Fraction of admin entities whose reverse DNS is hidden (drives the
    #: paper's ~50 % nslookup resolvability).
    unresolvable_entity_fraction: float = 0.45
    #: Fraction of multi-site entities (same domain, different routing
    #: path) — makes traceroute validation slightly stricter than
    #: nslookup, as in Table 3.
    multi_site_entity_fraction: float = 0.06


class Topology:
    """A generated Internet: ASes, allocations, leaf networks, entities.

    Ground-truth queries (``leaf_for_address`` & co.) are what the
    simulated DNS/traceroute and the accuracy metrics consult.
    """

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        self.ases: Dict[int, AutonomousSystem] = {}
        self.entities: Dict[int, AdminEntity] = {}
        self.allocations: List[Allocation] = []
        self.leaf_networks: List[LeafNetwork] = []
        self._leaf_tree: RadixTree[LeafNetwork] = RadixTree()
        self._allocation_tree: RadixTree[Allocation] = RadixTree()

    # -- construction helpers (used by the generator) --------------------

    def _add_leaf(self, leaf: LeafNetwork) -> None:
        self.leaf_networks.append(leaf)
        self._leaf_tree.insert(leaf.prefix, leaf)

    def _add_allocation(self, allocation: Allocation) -> None:
        self.allocations.append(allocation)
        self._allocation_tree.insert(allocation.prefix, allocation)

    # -- ground-truth queries --------------------------------------------

    def leaf_for_address(self, address: int) -> Optional[LeafNetwork]:
        """Return the leaf network containing ``address``, if allocated."""
        match = self._leaf_tree.longest_match(address)
        return match[1] if match else None

    def allocation_for_address(self, address: int) -> Optional[Allocation]:
        """Return the registry allocation containing ``address``."""
        match = self._allocation_tree.longest_match(address)
        return match[1] if match else None

    def entity_for_address(self, address: int) -> Optional[AdminEntity]:
        """Return the administrative entity owning ``address``."""
        leaf = self.leaf_for_address(address)
        return self.entities[leaf.entity_id] if leaf else None

    def as_for_address(self, address: int) -> Optional[AutonomousSystem]:
        """Return the AS originating ``address``."""
        leaf = self.leaf_for_address(address)
        return self.ases[leaf.asn] if leaf else None

    def announced_routes(self) -> Iterator[Tuple[Prefix, int]]:
        """Yield ground-truth BGP announcements as ``(prefix, origin asn)``.

        National-gateway ASes announce only their allocations; other
        ASes announce allocations plus any leaf marked ``announced``.
        """
        for allocation in self.allocations:
            yield allocation.prefix, allocation.asn
        for leaf in self.leaf_networks:
            if leaf.announced and not self.ases[leaf.asn].is_gateway:
                yield leaf.prefix, leaf.asn

    def registry_blocks(self) -> Iterator[Tuple[Prefix, int]]:
        """Yield registry (ARIN/NLANR-style) allocation records."""
        for allocation in self.allocations:
            yield allocation.prefix, allocation.asn

    def hosts_in_leaf(
        self, leaf: LeafNetwork, count: int, rng: random.Random
    ) -> List[int]:
        """Sample ``count`` distinct host addresses inside ``leaf``."""
        capacity = leaf.capacity
        count = min(count, capacity)
        # Offset 0 is the network address for blocks larger than /31.
        base = 1 if leaf.prefix.num_addresses > 2 else 0
        offsets = rng.sample(range(base, base + capacity), count)
        return [leaf.prefix.network + offset for offset in offsets]

    def unallocated_address(self, rng: random.Random) -> int:
        """Return an address covered by no allocation (bogus log client).

        Drawn from 127.0.0.0/8-adjacent reserved space the allocator
        never hands out, so the merged prefix table cannot match it.
        """
        return (127 << 24) | rng.randrange(1, 1 << 24)

    # -- summaries ---------------------------------------------------------

    def describe(self) -> str:
        """One-line summary used by example scripts."""
        return (
            f"Topology(seed={self.config.seed}: {len(self.ases)} ASes, "
            f"{len(self.allocations)} allocations, "
            f"{len(self.leaf_networks)} leaf networks, "
            f"{len(self.entities)} entities)"
        )


class _AddressPool:
    """Sequential aligned allocator over the 1999-style unicast space.

    Hands out blocks from /8s in the CIDR swamp and legacy ranges,
    skipping reserved space (0/8, 10/8, 127/8, >= 224/8).
    """

    def __init__(self) -> None:
        usable = [o for o in range(4, 224) if o not in (10, 127, 172, 192)]
        self._octets = usable
        self._octet_index = 0
        self._cursor = self._octets[0] << 24

    def take(self, length: int) -> Prefix:
        """Return the next available aligned block of ``length``."""
        size = 1 << (32 - length)
        cursor = (self._cursor + size - 1) & ~(size - 1)  # align up
        # Keep each allocation within one /8 so first octets stay tidy.
        octet_base = self._octets[self._octet_index] << 24
        if cursor + size > octet_base + (1 << 24):
            self._octet_index += 1
            if self._octet_index >= len(self._octets):
                raise RuntimeError("synthetic address pool exhausted")
            cursor = self._octets[self._octet_index] << 24
        self._cursor = cursor + size
        return Prefix(cursor, length)


class _Generator:
    """Stateful builder: splits generation into labelled RNG streams."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        self.topology = Topology(config)
        self.pool = _AddressPool()
        self._next_entity_id = 1
        self._next_asn = 1
        self._pool_entities: Dict[int, AdminEntity] = {}

    # AS-kind specific allocation length menus (length, weight).
    _ALLOC_LENGTHS = {
        AsKind.BACKBONE: ((14, 1), (15, 2), (16, 3)),
        AsKind.REGIONAL_ISP: ((16, 2), (17, 3), (18, 4), (19, 3)),
        AsKind.CAMPUS: ((16, 5), (17, 2), (18, 2)),
        AsKind.ENTERPRISE: ((16, 2), (17, 2), (18, 3), (19, 2), (20, 1)),
        AsKind.LEGACY_B: ((16, 1),),
        AsKind.NATIONAL_GATEWAY: ((15, 1), (16, 3), (17, 2)),
    }

    def build(self) -> Topology:
        rng = spawn(self.config.seed, "topology")
        plan = (
            [(AsKind.BACKBONE, _US)] * self.config.num_backbone
            + [(AsKind.REGIONAL_ISP, None)] * self.config.num_regional_isps
            + [(AsKind.CAMPUS, None)] * self.config.num_campus
            + [(AsKind.ENTERPRISE, None)] * self.config.num_enterprise
            + [(AsKind.LEGACY_B, None)] * self.config.num_legacy_b
            + [(AsKind.NATIONAL_GATEWAY, "gateway")] * self.config.num_gateways
        )
        for kind, country_hint in plan:
            self._build_as(rng, kind, country_hint)
        return self.topology

    # -- AS construction ---------------------------------------------------

    def _build_as(
        self, rng: random.Random, kind: str, country_hint: Optional[str]
    ) -> None:
        asn = self._next_asn
        self._next_asn += 1
        if country_hint == "gateway":
            country = rng.choice(_NON_US)
        elif country_hint is not None:
            country = country_hint
        else:
            country = _US if _coin(rng, 0.65) else rng.choice(_NON_US)
        name = _org_word(rng)
        autonomous_system = AutonomousSystem(asn, name, kind, country)
        self.topology.ases[asn] = autonomous_system

        mean = self.config.allocations_per_kind[kind]
        count = max(1, mean + rng.choice((-1, 0, 0, 1)))
        for index in range(count):
            self._build_allocation(rng, autonomous_system, index)

    def _build_allocation(
        self, rng: random.Random, autonomous_system: AutonomousSystem, index: int
    ) -> None:
        lengths = self._ALLOC_LENGTHS[autonomous_system.kind]
        length = _weighted(rng, lengths)
        prefix = self.pool.take(length)
        allocation = Allocation(
            prefix=prefix,
            asn=autonomous_system.asn,
            distribution_router=f"dist{index}.as{autonomous_system.asn}.net",
        )
        self.topology._add_allocation(allocation)
        self._carve_allocation(rng, autonomous_system, allocation)

    # -- subdivision --------------------------------------------------------

    def _carve_allocation(
        self,
        rng: random.Random,
        autonomous_system: AutonomousSystem,
        allocation: Allocation,
    ) -> None:
        kind = autonomous_system.kind
        if kind == AsKind.REGIONAL_ISP:
            self._carve_isp(rng, autonomous_system, allocation)
        elif kind == AsKind.NATIONAL_GATEWAY:
            self._carve_gateway(rng, autonomous_system, allocation)
        elif kind == AsKind.BACKBONE:
            self._carve_backbone(rng, autonomous_system, allocation)
        elif kind == AsKind.LEGACY_B:
            self._carve_single_entity(
                rng, autonomous_system, allocation, menu=(17, 18, 18, 19, 20)
            )
        else:  # campus, enterprise: one entity owns the whole block
            self._carve_single_entity(rng, autonomous_system, allocation)

    def _carve_isp(
        self,
        rng: random.Random,
        autonomous_system: AutonomousSystem,
        allocation: Allocation,
    ) -> None:
        """ISP space: mostly /23–/24 dialup pools under the ISP's own
        domain, plus "business blocks" (/24s subdivided into /26–/29
        customer subnets with distinct domains) — the structure that
        makes fixed-/24 clustering mis-group small customers (§2)."""
        # One pool entity per ISP: every dialup pool across all of the
        # AS's allocations shares the ISP's domain and administration.
        pool_entity = self._pool_entities.get(autonomous_system.asn)
        if pool_entity is None:
            pool_entity = self._new_entity(
                rng, EntityKind.ISP_POOL, autonomous_system
            )
            self._pool_entities[autonomous_system.asn] = pool_entity
        for chunk in self._random_chunks(
            rng, allocation.prefix, (22, 23, 24, 24, 24, 24, 24, 24)
        ):
            roll = rng.random()
            if roll < 0.70:
                self._emit_leaf(
                    rng, chunk, pool_entity, autonomous_system, allocation,
                    announce_probability=self.config.pool_announce_probability,
                )
            elif roll < 0.76 and chunk.length == 24:
                # Business block: one /24 shared by several small
                # distinct-customer subnets (the paper's §2
                # 151.198.194.x example) — the structure that breaks
                # fixed-/24 clustering.
                sub_length = rng.choice((26, 26, 26, 27, 28))
                for subnet in chunk.subnets(sub_length):
                    business = self._new_entity(
                        rng, EntityKind.BUSINESS, autonomous_system
                    )
                    self._emit_leaf(
                        rng, subnet, business, autonomous_system, allocation,
                        announce_probability=(
                            self.config.business_announce_probability
                        ),
                    )
            else:
                # Mid-size customer holding the whole chunk.
                business = self._new_entity(
                    rng, EntityKind.BUSINESS, autonomous_system
                )
                self._emit_leaf(
                    rng, chunk, business, autonomous_system, allocation,
                    announce_probability=self.config.business_announce_probability,
                )

    def _carve_gateway(
        self,
        rng: random.Random,
        autonomous_system: AutonomousSystem,
        allocation: Allocation,
    ) -> None:
        """National gateway: distinct in-country organisations, none of
        which are visible in BGP (only the gateway aggregate is) — the
        paper's main observed mis-identification source (§3.3)."""
        menu = (22, 22, 23, 23, 24, 24)
        for chunk in self._random_chunks(rng, allocation.prefix, menu):
            kind = rng.choice(
                (EntityKind.BUSINESS, EntityKind.UNIVERSITY, EntityKind.GOVERNMENT)
            )
            entity = self._new_entity(rng, kind, autonomous_system)
            self._emit_leaf(
                rng, chunk, entity, autonomous_system, allocation,
                announce_probability=0.0,
            )

    def _carve_backbone(
        self,
        rng: random.Random,
        autonomous_system: AutonomousSystem,
        allocation: Allocation,
    ) -> None:
        """Backbone space: large direct customers, usually announced."""
        menu = (20, 21, 21, 22, 22, 23, 23, 24, 24, 24, 24)
        for chunk in self._random_chunks(rng, allocation.prefix, menu):
            kind = rng.choice((EntityKind.ENTERPRISE, EntityKind.BUSINESS))
            entity = self._new_entity(rng, kind, autonomous_system)
            self._emit_leaf(
                rng, chunk, entity, autonomous_system, allocation,
                announce_probability=0.9,
            )

    def _carve_single_entity(
        self,
        rng: random.Random,
        autonomous_system: AutonomousSystem,
        allocation: Allocation,
        menu: tuple = (22, 23, 23, 24, 24, 24, 24, 25),
    ) -> None:
        """Campus/enterprise: one admin entity, internally subnetted.

        Subnets are invisible to BGP (only the allocation is announced),
        but because every subnet belongs to the same entity the
        allocation-granularity cluster is still correct."""
        kind = (
            EntityKind.UNIVERSITY
            if autonomous_system.kind == AsKind.CAMPUS
            else EntityKind.ENTERPRISE
        )
        entity = self._new_entity(rng, kind, autonomous_system)
        for chunk in self._random_chunks(rng, allocation.prefix, menu):
            self._emit_leaf(
                rng, chunk, entity, autonomous_system, allocation,
                announce_probability=0.35,
            )

    def _random_chunks(
        self, rng: random.Random, prefix: Prefix, length_menu: Sequence[int]
    ) -> Iterator[Prefix]:
        """Partition ``prefix`` into contiguous chunks with lengths drawn
        from ``length_menu`` (never shorter than the prefix itself)."""
        cursor = prefix.network
        end = prefix.last_address + 1
        while cursor < end:
            length = max(prefix.length, rng.choice(length_menu))
            size = 1 << (32 - length)
            # Respect alignment: shrink the block until it is aligned and fits.
            while cursor % size or cursor + size > end:
                length += 1
                size >>= 1
            yield Prefix(cursor, length)
            cursor += size

    # -- entity / leaf emission ---------------------------------------------

    def _new_entity(
        self,
        rng: random.Random,
        kind: str,
        autonomous_system: AutonomousSystem,
        forced_domain: Optional[str] = None,
    ) -> AdminEntity:
        entity_id = self._next_entity_id
        self._next_entity_id += 1
        domain = forced_domain or self._make_domain(rng, kind, autonomous_system)
        # ISP dialup pools always have generic PTR records
        # (client-a-b-c-d.isp.net); firewalled businesses and
        # enterprises hide reverse DNS far more often.  The mix lands
        # near the paper's ~50 % client resolvability with much less
        # variance than a uniform per-entity coin.
        if kind == EntityKind.ISP_POOL:
            resolvable = True
        elif kind in (EntityKind.BUSINESS, EntityKind.ENTERPRISE):
            resolvable = not _coin(
                rng, min(1.0, self.config.unresolvable_entity_fraction * 1.4)
            )
        else:
            resolvable = not _coin(
                rng, self.config.unresolvable_entity_fraction * 0.6
            )
        sites = 2 if _coin(rng, self.config.multi_site_entity_fraction) else 1
        entity = AdminEntity(entity_id, kind, domain, resolvable, sites)
        self.topology.entities[entity_id] = entity
        return entity

    def _make_domain(
        self, rng: random.Random, kind: str, autonomous_system: AutonomousSystem
    ) -> str:
        # The entity id is baked into the domain so no two entities can
        # collide on a name suffix: a spurious shared suffix would make
        # a genuinely mixed cluster pass nslookup validation.
        tlds = _TLD_BY_COUNTRY[autonomous_system.country]
        word = f"{_org_word(rng)}{self._next_entity_id}"
        if kind == EntityKind.ISP_POOL:
            return f"{autonomous_system.name}{autonomous_system.asn}.net"
        if kind == EntityKind.UNIVERSITY:
            tld = tlds[-1]  # the academic-flavoured TLD where present
            return f"{rng.choice(('cs', 'ee', 'math', 'phys'))}.{word}.{tld}"
        tld = rng.choice(tlds)
        return f"{word}.{tld}"

    def _emit_leaf(
        self,
        rng: random.Random,
        prefix: Prefix,
        entity: AdminEntity,
        autonomous_system: AutonomousSystem,
        allocation: Allocation,
        announce_probability: float,
    ) -> None:
        site = rng.randrange(entity.sites)
        leaf = LeafNetwork(
            prefix=prefix,
            entity_id=entity.entity_id,
            asn=autonomous_system.asn,
            allocation_prefix=allocation.prefix,
            announced=_coin(rng, announce_probability),
            edge_router=(
                f"gw{entity.entity_id}-{site}.as{autonomous_system.asn}.net"
            ),
            site=site,
        )
        self.topology._add_leaf(leaf)


def _weighted(rng: random.Random, menu: Sequence[Tuple[int, int]]) -> int:
    total = sum(weight for _, weight in menu)
    point = rng.random() * total
    acc = 0.0
    for value, weight in menu:
        acc += weight
        if point < acc:
            return value
    return menu[-1][0]


def generate_topology(config: Optional[TopologyConfig] = None) -> Topology:
    """Generate a ground-truth Internet from ``config`` (or defaults)."""
    return _Generator(config or TopologyConfig()).build()
