"""Routing tables and the merged prefix table.

A :class:`RoutingTable` models one snapshot from one source (one row of
the paper's Table 1): a set of route entries with prefix, next hop, and
AS path.  Snapshots serialise to / parse from the textual dump formats
of §3.1.2.

:class:`MergedPrefixTable` is the union the clustering consumes (§3.1):
all prefixes from all snapshots in one radix tree, with provenance so
we can report how many clients were clustered by secondary (registry
dump) prefixes versus primary (BGP) prefixes — the paper's 99 % → 99.9 %
improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bgp.formats import (
    FORMAT_DOTTED_NETMASK,
    DumpReport,
    iter_dump_routes,
    render_entry,
)
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree

__all__ = ["RouteEntry", "RoutingTable", "MergedPrefixTable", "LookupResult"]

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
        strict: bool = False,
        report: Optional[DumpReport] = None,
        max_errors: Optional[int] = None,
    ) -> "RoutingTable":
        """Parse a dump with count-and-skip hygiene.

        Real dumps contain headers, comments, and truncated lines; the
        collector scripts of §3.1.1 tolerate them, and so do we —
        malformed lines are tallied in ``report`` (pass one in to read
        the counts back) and ``max_errors`` bounds how much damage is
        tolerable before :class:`~repro.bgp.formats.DumpLimitError`
        aborts the load.  ``strict=True`` preserves the historical
        raise-on-first-error behaviour.
        """
        table = cls(name, kind=kind, date=date, dump_format=dump_format)
        for prefix, fields in iter_dump_routes(
            lines, report=report, max_errors=max_errors, strict=strict
        ):
            next_hop = fields[1] if len(fields) > 1 else ""
            as_path: Tuple[int, ...] = ()
            if len(fields) > 2:
                try:
                    as_path = tuple(int(tok) for tok in fields[2].split())
                except ValueError:
                    as_path = ()
            table.add(RouteEntry(prefix, next_hop, as_path))
        return table


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a longest-prefix match on the merged table."""

    prefix: Prefix
    entry: RouteEntry
    source_name: str
    source_kind: str

    @property
    def from_registry(self) -> bool:
        """True when the winning prefix came only from a registry dump."""
        return self.source_kind == KIND_REGISTRY


class MergedPrefixTable:
    """Union of many snapshots, queryable by longest-prefix match.

    When several sources carry the same prefix, the highest-priority
    kind wins the provenance label (BGP > forwarding > registry), so
    ``LookupResult.from_registry`` is True only for prefixes *no* BGP
    or forwarding table contained — exactly the paper's accounting for
    the secondary-source contribution.
    """

    def __init__(self) -> None:
        self._tree: RadixTree[LookupResult] = RadixTree()
        self.tables_merged = 0

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._tree

    def add_table(self, table: RoutingTable) -> None:
        """Merge all entries of ``table`` into the union."""
        self.tables_merged += 1
        for entry in table:
            existing = self._tree.get(entry.prefix)
            if existing is not None and (
                _KIND_PRIORITY[existing.source_kind] <= _KIND_PRIORITY[table.kind]
            ):
                continue
            self._tree.insert(
                entry.prefix,
                LookupResult(entry.prefix, entry, table.name, table.kind),
            )

    @classmethod
    def from_tables(cls, tables: Iterable[RoutingTable]) -> "MergedPrefixTable":
        merged = cls()
        for table in tables:
            merged.add_table(table)
        return merged

    def lookup(self, address: int) -> Optional[LookupResult]:
        """Longest-prefix match ``address`` (the router-style lookup)."""
        match = self._tree.longest_match(address)
        return match[1] if match else None

    def prefixes(self) -> Iterator[Prefix]:
        return self._tree.prefixes()

    def items(self) -> Iterator[Tuple[Prefix, LookupResult]]:
        """Iterate ``(prefix, winning LookupResult)`` in address order."""
        return self._tree.items()

    def export_entries(self) -> List[Tuple[Prefix, LookupResult]]:
        """All ``(prefix, winning LookupResult)`` pairs, sort_key order.

        Compile hook for :class:`repro.engine.packed.PackedLpm`: the
        engine packs this list into its immutable lookup arrays, so the
        merged table remains the build-side structure routing swaps
        mutate, and the engine gets its own compiled copy.
        """
        return self._tree.export_entries()

    def prefix_length_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for prefix in self._tree.prefixes():
            histogram[prefix.length] = histogram.get(prefix.length, 0) + 1
        return histogram

    def kind_counts(self) -> Dict[str, int]:
        """Entries by winning source kind (primary vs secondary)."""
        counts: Dict[str, int] = {}
        for _, result in self._tree.items():
            counts[result.source_kind] = counts.get(result.source_kind, 0) + 1
        return counts
