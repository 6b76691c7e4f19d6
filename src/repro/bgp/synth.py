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

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress
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


#: Arrival day of a globally hidden announcement (a real arrival day
#: is 1..14, and 0 means present from the start).
_HIDDEN = 255


class _SourceDraws:
    """One source's time-independent draws over the announcements."""

    __slots__ = ("shown", "flappy")

    def __init__(self, size: int) -> None:
        #: 1 per announcement not globally hidden whose ``vis:`` (and,
        #: for a /25+ the source would filter, ``leak:``) coins let it
        #: through.
        self.shown = bytearray(size)
        #: Shown positions in the source's flapping population, ascending.
        self.flappy = array("I")


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
        # Every draw that does not depend on the snapshot time is made
        # once, on first use, with the labels (so the values) the
        # per-snapshot model defines — see _visible_mask.
        self._arrival: Optional[bytearray] = None
        self._late: Tuple[int, ...] = ()
        self._draws: Dict[SourceSpec, _SourceDraws] = {}
        # Registry dumps: 1 per shown registry block, and the prefix
        # length of each filler block.
        self._registry_draws: Dict[SourceSpec, Tuple[bytearray, bytes]] = {}

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
        # One path draw per origin AS, shared by the snapshot's routes.
        paths: Dict[int, Tuple[str, Tuple[int, ...], str]] = {}
        for prefix, origin_asn in compress(
            self._announcements, self._visible_mask(source, when)
        ):
            attrs = paths.get(origin_asn)
            if attrs is None:
                attrs = paths[origin_asn] = self._path(source, origin_asn)
            table.add(RouteEntry(prefix, *attrs))
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

    def _visible_mask(self, source: SourceSpec, when: SnapshotTime) -> bytearray:
        """One byte per announcement: 1 where ``source`` shows it at
        ``when``.

        The model, per (source, prefix), every coin a labelled
        :func:`_hash01` draw (``key`` is ``"{source}:{cidr}"``):

        * ``hidden:{cidr}`` < ``global_hidden_fraction``: filtered
          before reaching any BGP vantage;
        * ``vis:{key}`` >= the source's visibility: not peered or
          propagated to this vantage;
        * a /25+ at a source that filters specifics is shown only when
          ``leak:{key}`` < ``specifics_leak`` (forwarding tables keep
          customer specifics: Table 3's /25–/29 entries);
        * a late arrival (``new:{cidr}`` < ``late_arrival_fraction``)
          is absent before day ``1 + int(newday:{cidr} * 14)``;
        * a flappy route (``flappy:{key}`` < ``flappy_fraction``) is
          absent from a snapshot when ``flap:{key}:{when.label()}`` <
          ``flap_absence``.

        Only the last coin depends on ``when``; the others are drawn
        once per factory (:meth:`_source_draws`), so a snapshot hashes
        just its flappy routes.
        """
        draws = self._source_draws(source)
        mask = bytearray(draws.shown)
        arrival = self._arrival
        assert arrival is not None  # drawn with the first source
        day = when.day
        for index in self._late:
            if day < arrival[index]:
                mask[index] = 0
        announcements = self._announcements
        head, tail = f"flap:{source.name}:", f":{when.label()}"
        for index in draws.flappy:
            label = f"{head}{announcements[index][0].cidr}{tail}"
            if _hash01(self.seed, label) < self.flap_absence:
                mask[index] = 0
        return mask

    def _source_draws(self, source: SourceSpec) -> _SourceDraws:
        draws = self._draws.get(source)
        if draws is None:
            if source in self.sources and source.kind != KIND_REGISTRY:
                # One pass draws every configured BGP-side source, so
                # each prefix's CIDR text is formatted once.
                self._draw_announced(
                    [
                        spec for spec in self.sources
                        if spec.kind != KIND_REGISTRY and spec not in self._draws
                    ]
                )
            else:
                self._draw_announced([source])
            draws = self._draws[source]
        return draws

    def _draw_announced(self, sources: Sequence[SourceSpec]) -> None:
        """Draw the time-independent coins of ``sources`` — and, the
        first time, the per-prefix ``hidden:``/``new:``/``newday:``
        ones — into one byte per (source, announcement)."""
        seed = self.seed
        arrival = self._arrival
        first = arrival is None
        if arrival is None:
            arrival = bytearray(len(self._announcements))
        tables = [
            (source, _SourceDraws(len(self._announcements)))
            for source in sources
        ]
        for index, (prefix, _) in enumerate(self._announcements):
            cidr = prefix.cidr
            if first:
                if _hash01(seed, f"hidden:{cidr}") < self.global_hidden_fraction:
                    arrival[index] = _HIDDEN
                elif _hash01(seed, f"new:{cidr}") < self.late_arrival_fraction:
                    arrival[index] = 1 + int(_hash01(seed, f"newday:{cidr}") * 14)
            if arrival[index] == _HIDDEN:
                continue
            filtered = prefix.length > 24
            for source, draws in tables:
                key = f"{source.name}:{cidr}"
                if _hash01(seed, f"vis:{key}") >= source.visibility:
                    continue
                if (
                    filtered
                    and not source.keeps_specifics
                    and _hash01(seed, f"leak:{key}") >= self.specifics_leak
                ):
                    continue
                draws.shown[index] = 1
                if _hash01(seed, f"flappy:{key}") < self.flappy_fraction:
                    draws.flappy.append(index)
        if first:
            self._arrival = arrival
            self._late = tuple(
                index for index, day in enumerate(arrival) if 0 < day < _HIDDEN
            )
        self._draws.update(tables)

    def _path(
        self, source: SourceSpec, origin_asn: int
    ) -> Tuple[str, Tuple[int, ...], str]:
        """``(next_hop, as_path, description)`` of ``source``'s routes
        to ``origin_asn``: one ``path:`` draw."""
        h = derive_seed(self.seed, f"path:{source.name}:{origin_asn}")
        hops = h % 3  # 0-2 transit hops
        transit = tuple(
            self._backbone_asns[(h >> (4 * (i + 1))) % len(self._backbone_asns)]
            for i in range(hops)
        )
        next_hop = f"peer{h % 8}.{source.name.lower().replace('&', '')}.net"
        origin = self.topology.ases.get(origin_asn)
        return next_hop, transit + (origin_asn,), origin.name if origin else ""

    # -- registry dumps ------------------------------------------------------

    def _fill_registry(self, table: RoutingTable, source: SourceSpec) -> None:
        draws = self._registry_draws.get(source)
        if draws is None:
            draws = self._registry_draws[source] = self._draw_registry(source)
        shown, fillers = draws
        for prefix, origin_asn in compress(self._registry, shown):
            table.add(RouteEntry(prefix=prefix, description=f"AS{origin_asn}"))
        for prefix in self._filler_blocks(fillers):
            table.add(RouteEntry(prefix=prefix, description="registered, unrouted"))

    def _draw_registry(self, source: SourceSpec) -> Tuple[bytearray, bytes]:
        """A registry source's ``vis:`` coin per registry block, and the
        lengths of its filler blocks (each a ``filler:`` draw)."""
        seed = self.seed
        shown = bytearray(
            _hash01(seed, f"vis:{source.name}:{prefix.cidr}") < source.visibility
            for prefix, _ in self._registry
        )
        h = derive_seed(seed, f"filler:{source.name}")
        fillers = bytes(
            16 + (derive_seed(h, str(produced)) % 9)  # /16../24
            for produced in range(source.filler_blocks)
        )
        return shown, fillers

    @staticmethod
    def _filler_blocks(lengths: bytes) -> Iterable[Prefix]:
        """Registered-but-unrouted networks padding the registry dumps.

        Carved downward from 223/8 so they can never collide with the
        allocator (which grows upward from 4/8) or with the bogus-client
        space (127/8).
        """
        cursor = (223 << 24)
        for length in lengths:
            size = 1 << (32 - length)
            cursor = (cursor - size) & ~(size - 1)
            yield Prefix(cursor, length)


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
        self._live: Dict[Prefix, int] = dict(
            compress(
                factory._announcements,
                factory._visible_mask(source, self._when),
            )
        )
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
        live = self._live
        mask = self.factory._visible_mask(self.source, self._when)
        for (prefix, origin_asn), visible in zip(self.factory._announcements, mask):
            if visible:
                if prefix not in live:
                    events.append(self._announce(prefix, origin_asn, "churn"))
            elif prefix in live:
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
