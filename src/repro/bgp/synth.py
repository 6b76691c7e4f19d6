"""Synthetic routing-table snapshots.

Derives per-vantage-point snapshots from the ground-truth topology's
announcement set.  Every decision is a deterministic function of
(seed, source, prefix, time), so:

* the same source produces an almost-identical table day after day
  (routing tables are mostly stable, §3.4);
* different sources see overlapping but different subsets (no vantage
  sees every route, §3.1.2), so merging genuinely helps coverage;
* a small flappy population plus gradual new announcements reproduce
  the BGP-dynamics behaviour of Table 4 (the dynamic prefix set grows
  with the observation period, intra-day churn included).

A ``global_hidden_fraction`` of allocations is invisible to *all* BGP
vantage points (announcement filtered before reaching any of them) but
still present in registry dumps — this is what makes the secondary
registry sources lift clusterable clients from ~99 % to ~99.9 %
(§3.1.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.sources import DEFAULT_SOURCES, SourceSpec
from repro.bgp.table import (
    KIND_BGP,
    KIND_REGISTRY,
    MergedPrefixTable,
    RouteDelta,
    RouteEntry,
    RoutingTable,
)
from repro.net.prefix import Prefix
from repro.simnet.topology import Topology
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "SnapshotFactory",
    "SnapshotTime",
    "RouteDelta",
    "DeltaGenerator",
]


def _hash01(seed: int, label: str) -> float:
    """Deterministic uniform variate in [0, 1) for a labelled event."""
    return (derive_seed(seed, label) & 0xFFFFFFFF) / float(1 << 32)


@dataclass(frozen=True)
class SnapshotTime:
    """When a snapshot was taken: day index plus intra-day slot.

    Frequently-updated sources (AADS every 2 hours) produce several
    slots per day; the paper's Table 4 period-0 column measures churn
    across the slots of a single day.
    """

    day: int = 0
    slot: int = 0

    def label(self) -> str:
        return f"d{self.day}s{self.slot}"


class SnapshotFactory:
    """Builds deterministic snapshots of any source at any time."""

    def __init__(
        self,
        topology: Topology,
        sources: Sequence[SourceSpec] = DEFAULT_SOURCES,
        seed: Optional[int] = None,
        flappy_fraction: float = 0.055,
        flap_absence: float = 0.35,
        late_arrival_fraction: float = 0.035,
        global_hidden_fraction: float = 0.004,
        specifics_leak: float = 0.015,
    ) -> None:
        self.topology = topology
        self.sources = tuple(sources)
        self.seed = derive_seed(
            topology.config.seed if seed is None else seed, "snapshots"
        )
        self.flappy_fraction = flappy_fraction
        self.flap_absence = flap_absence
        self.late_arrival_fraction = late_arrival_fraction
        self.global_hidden_fraction = global_hidden_fraction
        self.specifics_leak = specifics_leak
        self._announcements: List[Tuple[Prefix, int]] = list(
            topology.announced_routes()
        )
        self._registry: List[Tuple[Prefix, int]] = list(topology.registry_blocks())
        self._backbone_asns = [
            asn for asn, a_s in topology.ases.items() if a_s.kind == "backbone"
        ] or [1]

    # -- public API -----------------------------------------------------

    def snapshot(
        self, source: SourceSpec, when: SnapshotTime = SnapshotTime()
    ) -> RoutingTable:
        """Synthesise one snapshot of ``source`` at time ``when``."""
        table = RoutingTable(
            source.name,
            kind=source.kind,
            date=f"day{when.day}.slot{when.slot}",
            dump_format=source.dump_format,
        )
        if source.kind == KIND_REGISTRY:
            self._fill_registry(table, source)
            return table
        for prefix, origin_asn in self._announcements:
            if self._visible(source, prefix, when):
                table.add(self._route(source, prefix, origin_asn))
        return table

    def snapshots_all_sources(
        self, when: SnapshotTime = SnapshotTime()
    ) -> List[RoutingTable]:
        """One snapshot per configured source, all at time ``when``."""
        return [self.snapshot(source, when) for source in self.sources]

    def merged(self, when: SnapshotTime = SnapshotTime()) -> MergedPrefixTable:
        """The unified prefix table of §3.1: union of all snapshots."""
        return MergedPrefixTable.from_tables(self.snapshots_all_sources(when))

    def merged_without_registry(
        self, when: SnapshotTime = SnapshotTime()
    ) -> MergedPrefixTable:
        """Union of the primary (BGP/forwarding) sources only —
        the ablation behind the paper's 99 % → 99.9 % comparison."""
        tables = [
            self.snapshot(source, when)
            for source in self.sources
            if source.kind != KIND_REGISTRY
        ]
        return MergedPrefixTable.from_tables(tables)

    # -- visibility model --------------------------------------------------

    def _visible(
        self, source: SourceSpec, prefix: Prefix, when: SnapshotTime
    ) -> bool:
        key = f"{source.name}:{prefix.cidr}"
        # Globally filtered announcements reach no BGP vantage at all.
        if _hash01(self.seed, f"hidden:{prefix.cidr}") < self.global_hidden_fraction:
            return False
        # Base per-vantage visibility (peering/propagation).
        if _hash01(self.seed, f"vis:{key}") >= source.visibility:
            return False
        # NAP route servers filter long prefixes; forwarding tables keep
        # customer specifics (hence the /25–/29 entries of Table 3).
        if prefix.length > 24 and not source.keeps_specifics:
            if _hash01(self.seed, f"leak:{key}") >= self.specifics_leak:
                return False
        # Late arrivals: routes announced partway through the study.
        if _hash01(self.seed, f"new:{prefix.cidr}") < self.late_arrival_fraction:
            arrival_day = 1 + int(
                _hash01(self.seed, f"newday:{prefix.cidr}") * 14
            )
            if when.day < arrival_day:
                return False
        # Flapping population: present in most snapshots, absent in some.
        if _hash01(self.seed, f"flappy:{key}") < self.flappy_fraction:
            if (
                _hash01(self.seed, f"flap:{key}:{when.label()}")
                < self.flap_absence
            ):
                return False
        return True

    def _route(
        self, source: SourceSpec, prefix: Prefix, origin_asn: int
    ) -> RouteEntry:
        h = derive_seed(self.seed, f"path:{source.name}:{origin_asn}")
        hops = h % 3  # 0-2 transit hops
        transit = tuple(
            self._backbone_asns[(h >> (4 * (i + 1))) % len(self._backbone_asns)]
            for i in range(hops)
        )
        next_hop = f"peer{h % 8}.{source.name.lower().replace('&', '')}.net"
        origin = self.topology.ases.get(origin_asn)
        return RouteEntry(
            prefix=prefix,
            next_hop=next_hop,
            as_path=transit + (origin_asn,),
            description=origin.name if origin else "",
        )

    # -- registry dumps ------------------------------------------------------

    def _fill_registry(self, table: RoutingTable, source: SourceSpec) -> None:
        for prefix, origin_asn in self._registry:
            key = f"{source.name}:{prefix.cidr}"
            if _hash01(self.seed, f"vis:{key}") < source.visibility:
                table.add(RouteEntry(prefix=prefix, description=f"AS{origin_asn}"))
        for prefix in self._filler_blocks(source):
            table.add(RouteEntry(prefix=prefix, description="registered, unrouted"))

    def _filler_blocks(self, source: SourceSpec) -> Iterable[Prefix]:
        """Registered-but-unrouted networks padding the registry dumps.

        Carved downward from 223/8 so they can never collide with the
        allocator (which grows upward from 4/8) or with the bogus-client
        space (127/8).
        """
        h = derive_seed(self.seed, f"filler:{source.name}")
        cursor = (223 << 24)
        produced = 0
        while produced < source.filler_blocks:
            length = 16 + (derive_seed(h, str(produced)) % 9)  # /16../24
            size = 1 << (32 - length)
            cursor = (cursor - size) & ~(size - 1)
            yield Prefix(cursor, length)
            produced += 1


class DeltaGenerator:
    """Seeded stream of incremental routing events for one vantage.

    Drives the serve daemon the way a live BGP feed would: the base
    churn process replays the §3.4 visibility model slot-by-slot (the
    same intra-day dynamics ``bgp.dynamics.study_dynamics`` measures for
    period 0), and on top of it the generator mixes in route flaps,
    deaggregation (a live block splits into its two halves) and
    aggregation (a sibling pair collapses back into its live parent).
    Every event is a :class:`RouteDelta`; the live set is tracked so a
    withdraw is only ever emitted for a currently-announced prefix.
    """

    #: Mix of extra event processes layered over the base churn stream.
    FLAP_FRACTION = 0.25
    DEAGGREGATE_FRACTION = 0.08
    AGGREGATE_FRACTION = 0.06

    def __init__(
        self,
        factory: SnapshotFactory,
        source: Optional[SourceSpec] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.factory = factory
        if source is None:
            source = next(
                spec for spec in factory.sources if spec.kind == KIND_BGP
            )
        self.source = source
        self._rng = make_rng(
            derive_seed(
                factory.seed if seed is None else seed, "delta-stream"
            )
        )
        self._origins: Dict[Prefix, int] = dict(factory._announcements)
        self._when = SnapshotTime(0, 0)
        self._live: Dict[Prefix, int] = {
            prefix: origin_asn
            for prefix, origin_asn in factory._announcements
            if factory._visible(source, prefix, self._when)
        }
        # Generated-but-not-yet-emitted events: bursts are produced
        # whole, so :meth:`events` queues the overflow here and the
        # next call drains it first — successive calls concatenate into
        # one coherent stream.
        self._pending: Deque[RouteDelta] = deque()

    # -- observation -----------------------------------------------------

    def _ordered_live(self) -> Tuple[Prefix, ...]:
        """Generation-state live set (includes queued events' effects)."""
        return tuple(sorted(self._live, key=Prefix.sort_key))

    # -- event processes -------------------------------------------------

    def _announce(self, prefix: Prefix, origin_asn: int, reason: str) -> RouteDelta:
        self._live[prefix] = origin_asn
        return RouteDelta(
            op=RouteDelta.OP_ANNOUNCE,
            prefix=prefix,
            origin_asn=origin_asn,
            source=self.source.name,
            reason=reason,
        )

    def _withdraw(self, prefix: Prefix, reason: str) -> RouteDelta:
        origin_asn = self._live.pop(prefix)
        return RouteDelta(
            op=RouteDelta.OP_WITHDRAW,
            prefix=prefix,
            origin_asn=origin_asn,
            source=self.source.name,
            reason=reason,
        )

    def step(self) -> List[RouteDelta]:
        """Advance one snapshot slot and emit the visibility churn.

        Diffs the §3.4 visibility model between consecutive intra-day
        slots — exactly the period-0 dynamic-prefix process of Table 4 —
        and converts the difference into withdraw/announce events.
        """
        from repro.bgp.dynamics import INTRADAY_SLOTS

        slot = self._when.slot + 1
        day = self._when.day
        if slot >= INTRADAY_SLOTS:
            slot = 0
            day += 1
        self._when = SnapshotTime(day, slot)
        events: List[RouteDelta] = []
        factory, source = self.factory, self.source
        for prefix, origin_asn in factory._announcements:
            visible = factory._visible(source, prefix, self._when)
            if visible and prefix not in self._live:
                events.append(self._announce(prefix, origin_asn, "churn"))
            elif not visible and prefix in self._live:
                events.append(self._withdraw(prefix, "churn"))
        return events

    def flap(self) -> List[RouteDelta]:
        """One route flap: a live prefix withdrawn and re-announced."""
        if not self._live:
            return []
        prefix = self._rng.choice(self._ordered_live())
        origin_asn = self._live[prefix]
        return [
            self._withdraw(prefix, "flap"),
            self._announce(prefix, origin_asn, "flap"),
        ]

    def deaggregate(self) -> List[RouteDelta]:
        """Announce the two more-specific halves of a live block."""
        candidates = [
            prefix
            for prefix in self._ordered_live()
            if prefix.length <= 24
            and all(child not in self._live for child in prefix.children())
        ]
        if not candidates:
            return []
        prefix = self._rng.choice(candidates)
        origin_asn = self._live[prefix]
        return [
            self._announce(child, origin_asn, "deaggregation")
            for child in prefix.children()
        ]

    def aggregate(self) -> List[RouteDelta]:
        """Withdraw a sibling pair whose covering parent stays live."""
        live = self._live
        candidates = []
        for prefix in self._ordered_live():
            if prefix.length == 0:
                continue
            sibling = prefix.sibling()
            if (
                sibling is not None
                and sibling in live
                and prefix < sibling
                and prefix.parent() in live
            ):
                candidates.append(prefix)
        if not candidates:
            return []
        prefix = self._rng.choice(candidates)
        sibling = prefix.sibling()
        assert sibling is not None  # length > 0 guaranteed above
        return [
            self._withdraw(prefix, "aggregation"),
            self._withdraw(sibling, "aggregation"),
        ]

    # -- stream ----------------------------------------------------------

    def events(self, count: int) -> List[RouteDelta]:
        """Emit exactly ``count`` events, resuming where the last call
        stopped.

        The mix is seeded: flaps, deaggregation and aggregation are
        drawn per roll; everything else advances the churn clock.  A
        quiet spell (several rolls producing nothing) forces a flap so
        the stream never stalls.  Bursts are generated whole; overflow
        past ``count`` waits in the pending queue for the next call, so
        successive calls concatenate into one coherent stream.
        """
        emitted: List[RouteDelta] = []
        quiet = 0
        while len(emitted) < count:
            if self._pending:
                emitted.append(self._pending.popleft())
                continue
            roll = self._rng.random()
            if roll < self.FLAP_FRACTION:
                burst = self.flap()
            elif roll < self.FLAP_FRACTION + self.DEAGGREGATE_FRACTION:
                burst = self.deaggregate()
            elif roll < (
                self.FLAP_FRACTION
                + self.DEAGGREGATE_FRACTION
                + self.AGGREGATE_FRACTION
            ):
                burst = self.aggregate()
            else:
                burst = self.step()
            if burst:
                quiet = 0
                self._pending.extend(burst)
            else:
                quiet += 1
                if quiet >= 3:
                    self._pending.extend(self.flap())
                    quiet = 0
        return emitted
