"""Unit tests for routing tables and the merged prefix table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.formats import iter_dump_routes
from repro.bgp.table import (
    _KIND_PRIORITY,
    KIND_BGP,
    KIND_FORWARDING,
    KIND_REGISTRY,
    LookupResult,
    MergedPrefixTable,
    RouteEntry,
    RoutingTable,
)
from repro.cli import load_tables
from repro.faults import SITE_DUMP_MANGLE, FaultInjector, FaultPlan, FaultSpec
from repro.net.ipv4 import MAX_ADDRESS, parse_ipv4
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree


def p(cidr: str) -> Prefix:
    return Prefix.from_cidr(cidr)


class TestRoutingTable:
    def test_add_and_lookup(self):
        table = RoutingTable("T")
        table.add_prefix(p("10.0.0.0/8"), next_hop="hop1", as_path=(1, 2))
        assert len(table) == 1
        assert p("10.0.0.0/8") in table
        entry = table.get(p("10.0.0.0/8"))
        assert entry.next_hop == "hop1"
        assert entry.origin_as == 2

    def test_replace_same_prefix(self):
        table = RoutingTable("T")
        table.add_prefix(p("10.0.0.0/8"), next_hop="old")
        table.add_prefix(p("10.0.0.0/8"), next_hop="new")
        assert len(table) == 1
        assert table.get(p("10.0.0.0/8")).next_hop == "new"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RoutingTable("T", kind="telepathy")

    def test_prefixes_sorted(self):
        table = RoutingTable("T")
        for cidr in ("192.0.2.0/24", "10.0.0.0/8", "10.0.0.0/16"):
            table.add_prefix(p(cidr))
        assert [x.cidr for x in table.prefixes()] == [
            "10.0.0.0/8", "10.0.0.0/16", "192.0.2.0/24"
        ]

    def test_prefix_length_histogram(self):
        table = RoutingTable("T")
        for cidr in ("10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"):
            table.add_prefix(p(cidr))
        assert table.prefix_length_histogram() == {8: 1, 16: 2}

    def test_origin_as_empty_path(self):
        assert RouteEntry(p("10.0.0.0/8")).origin_as is None


class TestDumpRoundTrip:
    def test_bgp_lines_round_trip(self):
        table = RoutingTable("T", kind=KIND_BGP)
        table.add_prefix(p("10.0.0.0/8"), next_hop="peer1.t.net", as_path=(7, 9))
        table.add_prefix(p("192.0.2.0/24"), next_hop="peer2.t.net", as_path=(7,))
        lines = list(table.to_lines())
        parsed = RoutingTable.from_lines("T2", lines)
        assert parsed.prefix_set() == table.prefix_set()
        assert parsed.get(p("10.0.0.0/8")).as_path == (7, 9)
        assert parsed.get(p("192.0.2.0/24")).next_hop == "peer2.t.net"

    def test_registry_lines_have_prefix_only(self):
        table = RoutingTable("R", kind=KIND_REGISTRY)
        table.add_prefix(p("151.198.0.0/16"))
        (line,) = list(table.to_lines())
        assert "\t" not in line

    def test_from_lines_skips_garbage_by_default(self):
        lines = [
            "# comment",
            "",
            "not a prefix at all",
            "10.0.0.0/8\thop\t5",
        ]
        table = RoutingTable.from_lines("T", lines)
        assert len(table) == 1

    def test_from_lines_strict_raises(self):
        with pytest.raises(Exception):
            RoutingTable.from_lines("T", ["999.0.0.0/8"], strict=True)

    def test_from_lines_bad_as_path_tolerated(self):
        table = RoutingTable.from_lines("T", ["10.0.0.0/8\thop\tnot numbers"])
        assert table.get(p("10.0.0.0/8")).as_path == ()

    def test_from_lines_mixed_formats(self):
        lines = ["18.0.0.0", "10.0.0.0/8", "151.198/255.255"]
        table = RoutingTable.from_lines("T", lines)
        assert table.prefix_set() == {
            p("18.0.0.0/8"), p("10.0.0.0/8"), p("151.198.0.0/16")
        }


class TestMergedPrefixTable:
    def _tables(self):
        bgp = RoutingTable("B", kind=KIND_BGP)
        bgp.add_prefix(p("10.0.0.0/8"), next_hop="bgp-hop")
        forwarding = RoutingTable("F", kind=KIND_FORWARDING)
        forwarding.add_prefix(p("10.0.0.0/8"), next_hop="fwd-hop")
        forwarding.add_prefix(p("10.1.0.0/16"), next_hop="fwd-hop")
        registry = RoutingTable("R", kind=KIND_REGISTRY)
        registry.add_prefix(p("10.0.0.0/8"))
        registry.add_prefix(p("172.16.0.0/12"))
        return bgp, forwarding, registry

    def test_union_size(self):
        merged = MergedPrefixTable.from_tables(self._tables())
        assert len(merged) == 3
        assert merged.tables_merged == 3

    def test_lookup_longest_match(self):
        merged = MergedPrefixTable.from_tables(self._tables())
        result = merged.lookup(parse_ipv4("10.1.2.3"))
        assert result.prefix == p("10.1.0.0/16")
        result = merged.lookup(parse_ipv4("10.200.0.1"))
        assert result.prefix == p("10.0.0.0/8")
        assert merged.lookup(parse_ipv4("8.8.8.8")) is None

    def test_provenance_priority_bgp_over_registry(self):
        merged = MergedPrefixTable.from_tables(self._tables())
        shared = merged.lookup(parse_ipv4("10.200.0.1"))
        assert shared.source_kind == KIND_BGP

    def test_registry_only_prefix_labelled(self):
        merged = MergedPrefixTable.from_tables(self._tables())
        registry_hit = merged.lookup(parse_ipv4("172.16.5.5"))
        assert registry_hit.source_kind == KIND_REGISTRY

    def test_priority_independent_of_merge_order(self):
        bgp, forwarding, registry = self._tables()
        merged = MergedPrefixTable.from_tables([registry, forwarding, bgp])
        shared = merged.lookup(parse_ipv4("10.200.0.1"))
        assert shared.source_kind == KIND_BGP

    def test_contains(self):
        merged = MergedPrefixTable.from_tables(self._tables())
        assert p("10.1.0.0/16") in merged
        assert p("10.2.0.0/16") not in merged

    def test_export_entries_is_a_copy(self):
        merged = MergedPrefixTable.from_tables(self._tables())
        exported = merged.export_entries()
        exported.clear()
        assert len(merged.export_entries()) == 3


class RadixMerge:
    """The merge as it was first written — one radix tree, filled entry
    by entry — kept as the model the dict merge is checked against."""

    def __init__(self):
        self.tree = RadixTree()

    def add_table(self, table):
        for entry in table:
            existing = self.tree.get(entry.prefix)
            if existing is not None and (
                _KIND_PRIORITY[existing.source_kind] <= _KIND_PRIORITY[table.kind]
            ):
                continue
            self.tree.insert(
                entry.prefix,
                LookupResult(entry.prefix, entry, table.name, table.kind),
            )

    def lookup(self, address):
        match = self.tree.longest_match(address)
        return match[1] if match else None


#: Nested prefixes (chains of covers inside 10/8, the default route,
#: /32s) so random tables collide and shadow each other often.
MERGE_POOL = [
    p(cidr) for cidr in (
        "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/9", "10.0.0.0/16",
        "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32", "10.128.0.0/9",
        "10.255.255.0/24", "11.0.0.0/8", "192.0.2.0/24", "192.0.2.128/25",
    )
]
MERGE_PROBES = sorted({
    address
    for prefix in MERGE_POOL
    for address in (
        prefix.network, prefix.last_address,
        max(0, prefix.network - 1), min(MAX_ADDRESS, prefix.last_address + 1),
    )
})

tables_strategy = st.lists(
    st.tuples(
        st.sampled_from((KIND_BGP, KIND_FORWARDING, KIND_REGISTRY)),
        # Routes in file order, repeats included: the last one stands.
        st.lists(
            st.tuples(st.sampled_from(MERGE_POOL), st.integers(0, 3)),
            max_size=10,
        ),
        st.booleans(),  # look something up before merging this table
        st.booleans(),  # a BGP table arrives as dump lines (add_dump)
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(
    tables=tables_strategy,
    addresses=st.lists(st.integers(0, MAX_ADDRESS), max_size=20),
)
def test_dict_merge_equals_radix_merge(tables, addresses):
    merged = MergedPrefixTable()
    model = RadixMerge()
    probes = MERGE_PROBES + addresses
    for number, (kind, routes, look_first, as_dump) in enumerate(tables):
        if look_first:
            assert [merged.lookup(a) for a in probes] == [
                model.lookup(a) for a in probes
            ]
        name = f"T{number % 3}"
        if kind == KIND_BGP and as_dump:
            lines = [
                f"{prefix.cidr}\th{hop}\t{number} {hop}" for prefix, hop in routes
            ]
            merged.add_dump(name, iter_dump_routes(lines))
            model.add_table(RoutingTable.from_lines(name, lines))
            continue
        table = RoutingTable(name, kind=kind)
        for prefix, hop in routes:
            table.add_prefix(prefix, next_hop=f"h{hop}", as_path=(number, hop))
        merged.add_table(table)
        model.add_table(table)

    assert len(merged) == len(model.tree)
    for prefix in MERGE_POOL:
        assert (prefix in merged) == (prefix in model.tree)
    assert list(merged.items()) == list(model.tree.items())
    assert list(merged.prefixes()) == list(model.tree.prefixes())
    assert merged.export_entries() == model.tree.export_entries()
    assert [merged.lookup(a) for a in probes] == [model.lookup(a) for a in probes]


class TestLoadTables:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_repeat_inside_one_dump_takes_the_last_line(self, tmp_path):
        dump = self._write(
            tmp_path, "a.dump",
            "10.0.0.0/8\thop1\t1 2\n11.0.0.0/8\thop1\t5\n"
            "10.0.0.0/255.0.0.0\thop2\t3 4\n",
        )
        merged = load_tables([dump])
        result = merged.lookup(parse_ipv4("10.9.9.9"))
        assert result.entry.as_path == (3, 4)
        assert result.entry.next_hop == "hop2"
        assert len(merged) == 2

    def test_prefix_shared_across_dumps_takes_the_first(self, tmp_path):
        first = self._write(tmp_path, "a.dump", "10.0.0.0/8\tha\t1\n")
        second = self._write(
            tmp_path, "b.dump", "10.0.0.0/8\thb\t2\n10.1.0.0/16\thb\t2\n"
        )
        merged = load_tables([first, second])
        result = merged.lookup(parse_ipv4("10.200.0.1"))
        assert result.entry.as_path == (1,)
        assert result.source_name == first
        assert result.source_kind == KIND_BGP
        assert merged.lookup(parse_ipv4("10.1.0.1")).source_name == second
        assert merged.tables_merged == 2

    def test_malformed_and_mangled_lines_are_counted(self, tmp_path, capsys):
        dump = self._write(
            tmp_path, "a.dump",
            "# header\n10.0.0.0/8\th\t1\nnot a prefix\n"
            "11.0.0.0/8\th\t2\n12.0.0.0/8\th\t3\n",
        )
        injector = FaultInjector(
            FaultPlan.build(FaultSpec(site=SITE_DUMP_MANGLE, at=3, count=1))
        )
        merged = load_tables([dump], injector=injector)
        assert sorted(prefix.cidr for prefix in merged.prefixes()) == [
            "10.0.0.0/8", "12.0.0.0/8",
        ]
        assert capsys.readouterr().err == (
            f"warning: skipped 2 malformed line(s) in {dump} (2 parsed)\n"
        )
