"""Routing tables and the merged prefix table.

A :class:`RoutingTable` models one snapshot from one source (one row of
the paper's Table 1): a set of route entries with prefix, next hop, and
AS path.  Snapshots serialise to / parse from the textual dump formats
of §3.1.2.

:class:`MergedPrefixTable` is the union the clustering consumes (§3.1):
all prefixes from all snapshots, one winner per prefix, with provenance
so we can report how many clients were clustered by secondary (registry
dump) prefixes versus primary (BGP) prefixes — the paper's 99 % → 99.9 %
improvement.  The winners live in a dict; address-ordered reads come
from one cached sort, and the radix trie that answers router-style
lookups is built from that order on the first lookup.

:class:`RouteDelta` is one incremental routing event (announce or
withdraw); its JSON form is the serve stream's route event, so the
daemon reads it without loading the snapshot synthesiser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.bgp.formats import (
    FORMAT_DOTTED_NETMASK,
    DumpReport,
    iter_dump_routes,
    render_entry,
)
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree

__all__ = [
    "RouteEntry",
    "RoutingTable",
    "MergedPrefixTable",
    "LookupResult",
    "RouteDelta",
]

#: What one source carries per prefix: a RouteEntry, or dump fields.
_Route = TypeVar("_Route")

#: Source kinds, in priority order: BGP dumps are the primary prefix
#: source, forwarding tables next, registry (IP network) dumps last.
KIND_BGP = "bgp"
KIND_FORWARDING = "forwarding"
KIND_REGISTRY = "registry"
_KIND_PRIORITY = {KIND_BGP: 0, KIND_FORWARDING: 1, KIND_REGISTRY: 2}


@dataclass(frozen=True)
class RouteEntry:
    """One route: prefix plus the interdomain attributes we retain.

    The clustering itself uses only ``prefix`` (§3.1.1: "we have only
    used the prefix/netmask information"), but next hop and AS path are
    kept because the paper notes they hint at client geography.
    """

    prefix: Prefix
    next_hop: str = ""
    as_path: Tuple[int, ...] = ()
    description: str = ""

    @property
    def origin_as(self) -> Optional[int]:
        """The last AS on the path (the route's originator)."""
        return self.as_path[-1] if self.as_path else None


class RoutingTable:
    """One snapshot of one routing/forwarding/registry table."""

    def __init__(
        self,
        name: str,
        kind: str = KIND_BGP,
        date: str = "",
        dump_format: str = FORMAT_DOTTED_NETMASK,
    ) -> None:
        if kind not in _KIND_PRIORITY:
            raise ValueError(f"unknown table kind: {kind!r}")
        self.name = name
        self.kind = kind
        self.date = date
        self.dump_format = dump_format
        self._entries: Dict[Prefix, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._entries

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._entries.values())

    def add(self, entry: RouteEntry) -> None:
        """Insert/replace the route for ``entry.prefix``."""
        self._entries[entry.prefix] = entry

    def add_prefix(self, prefix: Prefix, **attrs) -> None:
        """Shorthand: add a route built from ``prefix`` and attributes."""
        self.add(RouteEntry(prefix=prefix, **attrs))

    def prefixes(self) -> List[Prefix]:
        """All prefixes, in address order."""
        return sorted(self._entries, key=Prefix.sort_key)

    def prefix_set(self) -> frozenset:
        """The prefix set (for dynamics intersections, §3.4)."""
        return frozenset(self._entries)

    def get(self, prefix: Prefix) -> Optional[RouteEntry]:
        return self._entries.get(prefix)

    def prefix_length_histogram(self) -> Dict[int, int]:
        """Histogram of prefix lengths (regenerates Figure 1)."""
        histogram: Dict[int, int] = {}
        for prefix in self._entries:
            histogram[prefix.length] = histogram.get(prefix.length, 0) + 1
        return histogram

    # -- dump I/O ---------------------------------------------------------

    def to_lines(self) -> Iterator[str]:
        """Serialise in this table's dump format.

        Line layout: ``<prefix>  <next_hop>  <as_path>`` with the path
        space-separated, mirroring a route-viewer dump.  Registry dumps
        carry only the network field, like ARIN's netinfo files.
        """
        from repro.bgp.formats import FORMAT_MASK_LENGTH
        from repro.net.ipv4 import AddressError

        for prefix in self.prefixes():
            entry = self._entries[prefix]
            try:
                rendered = render_entry(prefix, self.dump_format)
            except AddressError:
                # Registry dumps mix bare classful lines with explicit
                # prefixes for CIDR blocks, as the real netinfo files did.
                rendered = render_entry(prefix, FORMAT_MASK_LENGTH)
            if self.kind == KIND_REGISTRY:
                yield rendered
            else:
                path = " ".join(str(asn) for asn in entry.as_path)
                yield f"{rendered}\t{entry.next_hop}\t{path}".rstrip()

    @classmethod
    def from_lines(
        cls,
        name: str,
        lines: Iterable[str],
        kind: str = KIND_BGP,
        date: str = "",
        dump_format: str = FORMAT_DOTTED_NETMASK,
        report: Optional[DumpReport] = None,
    ) -> "RoutingTable":
        """Parse a dump with count-and-skip hygiene.

        Real dumps contain headers, comments, and truncated lines; the
        collector scripts of §3.1.1 tolerate them, and so do we —
        malformed lines are tallied in ``report`` (pass one in to read
        the counts back) and skipped.
        """
        table = cls(name, kind=kind, date=date, dump_format=dump_format)
        for prefix, fields in iter_dump_routes(lines, report=report):
            table.add(_route_from_fields(prefix, fields))
        return table


def _route_from_fields(prefix: Prefix, fields: List[str]) -> RouteEntry:
    """The :class:`RouteEntry` of one parsed dump line.

    ``fields`` is the split line :func:`iter_dump_routes` yields: next
    hop in ``fields[1]``, space-separated AS path in ``fields[2]`` (a
    path that is not all integers is dropped, not fatal).
    """
    next_hop = fields[1] if len(fields) > 1 else ""
    as_path: Tuple[int, ...] = ()
    if len(fields) > 2:
        try:
            as_path = tuple(int(tok) for tok in fields[2].split())
        except ValueError:
            as_path = ()
    return RouteEntry(prefix, next_hop, as_path)


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a longest-prefix match on the merged table."""

    prefix: Prefix
    entry: RouteEntry
    source_name: str
    source_kind: str


@dataclass(frozen=True)
class RouteDelta:
    """One incremental routing event: an announce or a withdraw.

    The JSON form doubles as the serve-stream wire format
    (:mod:`repro.serve.protocol`): ``type`` is the operation, ``prefix``
    is CIDR text, and ``reason`` records which churn process produced
    the event (``churn``, ``flap``, ``aggregation``, ``deaggregation``)
    so traces stay debuggable.
    """

    op: str
    prefix: Prefix
    origin_asn: int = 0
    source: str = ""
    reason: str = ""

    OP_ANNOUNCE = "announce"
    OP_WITHDRAW = "withdraw"

    def __post_init__(self) -> None:
        if self.op not in (self.OP_ANNOUNCE, self.OP_WITHDRAW):
            raise ValueError(f"unknown delta op: {self.op!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.op,
            "prefix": self.prefix.cidr,
            "origin_asn": self.origin_asn,
            "source": self.source,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RouteDelta":
        return cls(
            op=str(data["type"]),
            prefix=Prefix.from_cidr(str(data["prefix"])),
            origin_asn=int(data.get("origin_asn", 0)),
            source=str(data.get("source", "")),
            reason=str(data.get("reason", "")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RouteDelta":
        return cls.from_dict(json.loads(text))


class MergedPrefixTable:
    """Union of many snapshots, queryable by longest-prefix match.

    When several sources carry the same prefix, the highest-priority
    kind wins the provenance label (BGP > forwarding > registry), so a
    result's ``source_kind`` is registry only for prefixes *no* BGP
    or forwarding table contained — exactly the paper's accounting for
    the secondary-source contribution.  Between sources of one kind the
    first merged wins; inside one source the last line for a prefix
    does, as in :class:`RoutingTable`.

    The winners are a dict keyed by prefix.  Ordered reads share one
    sort, cached until the next merge; :meth:`lookup` answers through a
    :class:`~repro.net.radix.RadixTree` built from that order when it is
    first called, so a table that is only compiled into an engine
    table never builds the trie.
    """

    def __init__(self) -> None:
        #: prefix -> its ``(prefix, winner)`` item, so that the sorted
        #: order shares these pairs instead of allocating its own.
        self._winners: Dict[Prefix, Tuple[Prefix, LookupResult]] = {}
        self._ordered: Optional[List[Tuple[Prefix, LookupResult]]] = None
        self._tree: Optional[RadixTree[LookupResult]] = None
        self.tables_merged = 0

    def __len__(self) -> int:
        return len(self._winners)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._winners

    def add_table(self, table: RoutingTable) -> None:
        """Merge all entries of ``table`` into the union."""
        self._merge(table.name, table.kind, table._entries.items(), _as_entry)

    def add_dump(
        self, name: str, routes: Iterable[Tuple[Prefix, List[str]]]
    ) -> None:
        """Merge one BGP dump's ``(prefix, fields)`` stream, as
        :func:`~repro.bgp.formats.iter_dump_routes` yields it.

        The same union as ``add_table(RoutingTable.from_lines(...))``,
        without the intermediate table: a route's :class:`RouteEntry`
        is built only when it wins.
        """
        self._merge(name, KIND_BGP, routes, _route_from_fields)

    def _merge(
        self,
        name: str,
        kind: str,
        routes: Iterable[Tuple[Prefix, _Route]],
        to_entry: Callable[[Prefix, _Route], RouteEntry],
    ) -> None:
        """The one merge loop over one source's routes, in source order.

        A route takes its prefix when no winner is held, when the held
        winner is this source's own earlier line (the last line wins,
        as in :class:`RoutingTable`), or when the held winner's kind
        ranks lower.  A losing route is dropped as it streams past.
        """
        self.tables_merged += 1
        self._ordered = self._tree = None
        winners = self._winners
        priority = _KIND_PRIORITY
        rank = priority[kind]
        won: Set[Prefix] = set()
        for prefix, route in routes:
            held = winners.get(prefix)
            if (
                held is None
                or prefix in won
                or priority[held[1].source_kind] > rank
            ):
                winners[prefix] = (
                    prefix,
                    LookupResult(prefix, to_entry(prefix, route), name, kind),
                )
                won.add(prefix)

    @classmethod
    def from_tables(cls, tables: Iterable[RoutingTable]) -> "MergedPrefixTable":
        merged = cls()
        for table in tables:
            merged.add_table(table)
        return merged

    def _sorted(self) -> List[Tuple[Prefix, LookupResult]]:
        """The winners in routing-table order: one sort per merge state."""
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = sorted(
                self._winners.values(), key=_order_key
            )
        return ordered

    def _radix(self) -> RadixTree[LookupResult]:
        """The winners as a radix trie, built on first use."""
        tree = self._tree
        if tree is None:
            tree = RadixTree()
            for prefix, result in self._sorted():
                tree.insert(prefix, result)
            self._tree = tree
        return tree

    def lookup(self, address: int) -> Optional[LookupResult]:
        """Longest-prefix match ``address`` (the router-style lookup)."""
        match = self._radix().longest_match(address)
        return match[1] if match else None

    def prefixes(self) -> Iterator[Prefix]:
        return (prefix for prefix, _ in self._sorted())

    def items(self) -> Iterator[Tuple[Prefix, LookupResult]]:
        """Iterate ``(prefix, winning LookupResult)`` in address order."""
        return iter(self._sorted())

    def export_entries(self) -> List[Tuple[Prefix, LookupResult]]:
        """All ``(prefix, winning LookupResult)`` pairs, sort_key order.

        Compile hook for :class:`repro.engine.packed.PackedLpm`: the
        engine packs this list into its immutable lookup arrays, so the
        merged table remains the build-side structure routing swaps
        mutate, and the engine gets its own compiled copy.  The list is
        the caller's: the cached order stays private.
        """
        return list(self._sorted())


def _as_entry(prefix: Prefix, entry: RouteEntry) -> RouteEntry:
    """``to_entry`` for a :class:`RoutingTable`: its routes are entries."""
    return entry


def _order_key(item: Tuple[Prefix, LookupResult]) -> int:
    """``Prefix.sort_key`` order as one int: ``(network << 6) | length``."""
    prefix = item[0]
    return (prefix.network << 6) | prefix.length
