"""Unit tests for the three prefix dump formats and unification."""

import pytest

from repro.bgp.formats import (
    FORMAT_CLASSFUL,
    FORMAT_DOTTED_NETMASK,
    FORMAT_MASK_LENGTH,
    DumpLimitError,
    DumpReport,
    detect_format,
    iter_dump_routes,
    pad_dropped_zeroes,
    parse_entry,
    render_entry,
)
from repro.net.ipv4 import AddressError
from repro.net.prefix import Prefix


class TestPadDroppedZeroes:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("151.198", "151.198.0.0"),
            ("151", "151.0.0.0"),
            ("151.198.194", "151.198.194.0"),
            ("151.198.194.16", "151.198.194.16"),
            ("255.255.224", "255.255.224.0"),
        ],
    )
    def test_pads(self, text, expected):
        assert pad_dropped_zeroes(text) == expected

    def test_rejects_empty(self):
        with pytest.raises(AddressError):
            pad_dropped_zeroes("")

    def test_rejects_too_many_octets(self):
        with pytest.raises(AddressError):
            pad_dropped_zeroes("1.2.3.4.5")


class TestDetectFormat:
    @pytest.mark.parametrize(
        "entry,fmt",
        [
            ("12.65.128.0/255.255.224.0", FORMAT_DOTTED_NETMASK),
            ("151.198/255.255", FORMAT_DOTTED_NETMASK),
            ("12.65.128.0/19", FORMAT_MASK_LENGTH),
            ("151.198.194.0", FORMAT_CLASSFUL),
            ("18.0.0.0", FORMAT_CLASSFUL),
        ],
    )
    def test_detects(self, entry, fmt):
        assert detect_format(entry) == fmt


class TestParseEntry:
    def test_dotted_netmask_full(self):
        assert parse_entry("12.65.128.0/255.255.224.0") == Prefix.from_cidr(
            "12.65.128.0/19"
        )

    def test_dotted_netmask_with_dropped_zeroes(self):
        # Format (i) drops trailing zero octets from both halves.
        assert parse_entry("151.198/255.255") == Prefix.from_cidr("151.198.0.0/16")

    def test_mask_length(self):
        assert parse_entry("24.48.2.0/23") == Prefix.from_cidr("24.48.2.0/23")

    def test_classful_class_a(self):
        assert parse_entry("18.0.0.0") == Prefix.from_cidr("18.0.0.0/8")

    def test_classful_class_b(self):
        assert parse_entry("151.198.0.0") == Prefix.from_cidr("151.198.0.0/16")

    def test_classful_class_c(self):
        assert parse_entry("192.4.5.0") == Prefix.from_cidr("192.4.5.0/24")

    def test_forced_format_overrides_detection(self):
        # "18.0.0.0/8" forced to dotted-netmask must fail (8 is not a
        # dotted quad), proving fmt is honoured.
        with pytest.raises(AddressError):
            parse_entry("18.0.0.0/8", fmt=FORMAT_DOTTED_NETMASK)

    def test_strips_whitespace(self):
        assert parse_entry("  10.0.0.0/8 ") == Prefix.from_cidr("10.0.0.0/8")

    @pytest.mark.parametrize("entry", ["", "/", "a.b.c.d/8", "10.0.0.0/ab",
                                       "10.0.0.0/255.0.255.0"])
    def test_rejects_garbage(self, entry):
        with pytest.raises(AddressError):
            parse_entry(entry)

    def test_unknown_format_rejected(self):
        with pytest.raises(AddressError):
            parse_entry("10.0.0.0/8", fmt="sixteen-segment")


class TestRenderEntry:
    def test_standard_format_is_dotted_netmask(self):
        prefix = Prefix.from_cidr("12.65.128.0/19")
        assert render_entry(prefix) == "12.65.128.0/255.255.224.0"

    def test_mask_length(self):
        prefix = Prefix.from_cidr("12.65.128.0/19")
        assert render_entry(prefix, FORMAT_MASK_LENGTH) == "12.65.128.0/19"

    def test_classful_only_for_classful_lengths(self):
        assert render_entry(
            Prefix.from_cidr("18.0.0.0/8"), FORMAT_CLASSFUL
        ) == "18.0.0.0"
        with pytest.raises(AddressError):
            render_entry(Prefix.from_cidr("18.0.0.0/9"), FORMAT_CLASSFUL)

    def test_unknown_format(self):
        with pytest.raises(AddressError):
            render_entry(Prefix.from_cidr("10.0.0.0/8"), "hex")


class TestUnify:
    @pytest.mark.parametrize(
        "entry,expected",
        [
            ("12.65.128.0/19", "12.65.128.0/255.255.224.0"),
            ("151.198/255.255", "151.198.0.0/255.255.0.0"),
            ("18.0.0.0", "18.0.0.0/255.0.0.0"),
            ("192.4.5.0", "192.4.5.0/255.255.255.0"),
        ],
    )
    def test_unifies_all_formats_to_standard(self, entry, expected):
        unified = render_entry(parse_entry(entry), FORMAT_DOTTED_NETMASK)
        assert unified == expected

    def test_round_trip_through_all_formats(self):
        prefix = Prefix.from_cidr("24.48.2.0/23")
        for fmt in (FORMAT_DOTTED_NETMASK, FORMAT_MASK_LENGTH):
            assert parse_entry(render_entry(prefix, fmt)) == prefix


class TestIterDumpRoutes:
    """Count-and-skip hygiene for dirty snapshots (§3.1.1 tolerance)."""

    DIRTY = [
        "# router dump header\n",
        "\n",
        "12.65.128.0/19\thop1\t7018\n",
        "show ip bgp: connection refused\n",
        "24.48.2.0/255.255.254.0 hop2 64500\n",
        "   \n",
        "999.999.999.999/8\n",
        "151.198.194.0\n",
    ]

    def test_skips_and_counts_malformed_lines(self):
        report = DumpReport()
        routes = list(iter_dump_routes(self.DIRTY, report=report))
        assert [str(prefix.cidr) for prefix, _ in routes] == [
            "12.65.128.0/19", "24.48.2.0/23", "151.198.0.0/16",
        ]
        assert report.total_lines == len(self.DIRTY)
        assert report.parsed == 3
        assert report.malformed == 2
        assert report.skipped == 3  # comment + two blank-ish lines

    def test_fields_carry_next_hop_and_path(self):
        (_, fields), = iter_dump_routes(["12.65.128.0/19\thop1\t7018\n"])
        assert fields == ["12.65.128.0/19", "hop1", "7018"]

    def test_max_errors_budget_trips(self):
        with pytest.raises(DumpLimitError, match="max_errors=1"):
            list(iter_dump_routes(self.DIRTY, max_errors=1))

    def test_max_errors_zero_means_one_bad_line_is_fatal(self):
        with pytest.raises(DumpLimitError):
            list(iter_dump_routes(["garbage here\n"], max_errors=0))

    def test_strict_reraises_first_error(self):
        with pytest.raises((AddressError, ValueError)):
            list(iter_dump_routes(self.DIRTY, strict=True))

    def test_clean_dump_reports_no_damage(self):
        report = DumpReport()
        routes = list(iter_dump_routes(
            ["10.0.0.0/8\n", "11.0.0.0/8\n"], report=report, max_errors=0
        ))
        assert len(routes) == 2
        assert report.malformed == 0


class TestRoutingTableFromDirtyLines:
    def test_from_lines_tolerates_garbage_by_default(self):
        from repro.bgp.table import RoutingTable

        report = DumpReport()
        table = RoutingTable.from_lines(
            "dirty", TestIterDumpRoutes.DIRTY, report=report
        )
        assert len(table) == 3
        assert report.malformed == 2

    def test_from_lines_strict_still_raises(self):
        from repro.bgp.table import RoutingTable

        with pytest.raises((AddressError, ValueError)):
            RoutingTable.from_lines(
                "dirty", TestIterDumpRoutes.DIRTY, strict=True
            )
