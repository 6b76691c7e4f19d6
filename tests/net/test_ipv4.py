"""Unit tests for IPv4 address primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import (
    AddressError,
    MAX_ADDRESS,
    address_class,
    classful_prefix_length,
    first_octet,
    format_ipv4,
    length_to_netmask,
    mask_bits,
    netmask_to_length,
    parse_ipv4,
)


class TestParseIpv4:
    def test_parses_example_from_paper(self):
        assert parse_ipv4("12.65.147.94") == (12 << 24) | (65 << 16) | (147 << 8) | 94

    def test_zero_address(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_max_address(self):
        assert parse_ipv4("255.255.255.255") == MAX_ADDRESS

    @pytest.mark.parametrize(
        "text",
        [
            "1.2.3",            # too few octets
            "1.2.3.4.5",        # too many octets
            "1.2.3.256",        # octet out of range
            "1.2.3.-1",         # negative
            "1.2.3.a",          # non-numeric
            "1.2.3.",           # trailing dot
            ".1.2.3",           # leading dot
            "1..2.3",           # empty octet
            "01.2.3.4",         # leading zero (octal ambiguity)
            " 1.2.3.4",         # whitespace
            "",                 # empty
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(AddressError):
            parse_ipv4(text)

    @given(st.lists(
        st.one_of(
            st.integers(0, 300).map(str),
            st.sampled_from(["", "00", "012", "+1", "1 ", "\u0663", "\u00b2"]),
        ),
        min_size=1, max_size=5,
    ).map(".".join))
    def test_matches_the_octet_by_octet_parser(self, text):
        """The one-probe-per-octet path answers exactly as the checked
        loop (kept here as the reference) does, errors included."""
        try:
            expected = _reference_parse(text)
        except (AddressError, ValueError) as exc:
            with pytest.raises(type(exc)):
                parse_ipv4(text)
        else:
            assert parse_ipv4(text) == expected


def _reference_parse(text):
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(text)
    value = 0
    for part in parts:
        if not part or not part.isdigit():
            raise AddressError(text)
        if len(part) > 1 and part[0] == "0":
            raise AddressError(text)
        octet = int(part)
        if octet > 255:
            raise AddressError(text)
        value = (value << 8) | octet
    return value


class TestFormatIpv4:
    def test_round_trip(self):
        for text in ("0.0.0.0", "12.65.147.94", "255.255.255.255", "128.0.0.1"):
            assert format_ipv4(parse_ipv4(text)) == text

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_ipv4(-1)
        with pytest.raises(AddressError):
            format_ipv4(MAX_ADDRESS + 1)


class TestMasks:
    def test_mask_bits_boundaries(self):
        assert mask_bits(0) == 0
        assert mask_bits(32) == MAX_ADDRESS
        assert mask_bits(24) == parse_ipv4("255.255.255.0")
        assert mask_bits(19) == parse_ipv4("255.255.224.0")

    def test_mask_bits_rejects_bad_length(self):
        with pytest.raises(AddressError):
            mask_bits(33)
        with pytest.raises(AddressError):
            mask_bits(-1)

    def test_length_netmask_round_trip(self):
        for length in range(33):
            assert netmask_to_length(length_to_netmask(length)) == length

    def test_non_contiguous_netmask_rejected(self):
        with pytest.raises(AddressError):
            netmask_to_length("255.0.255.0")
        with pytest.raises(AddressError):
            netmask_to_length("0.255.0.0")


class TestClassful:
    @pytest.mark.parametrize(
        "text,cls,length",
        [
            ("9.1.2.3", "A", 8),
            ("127.0.0.1", "A", 8),
            ("128.0.0.1", "B", 16),
            ("151.198.194.17", "B", 16),
            ("191.255.0.1", "B", 16),
            ("192.0.0.1", "C", 24),
            ("223.255.255.1", "C", 24),
        ],
    )
    def test_class_and_length(self, text, cls, length):
        address = parse_ipv4(text)
        assert address_class(address) == cls
        assert classful_prefix_length(address) == length

    def test_multicast_has_no_classful_network(self):
        assert address_class(parse_ipv4("224.0.0.1")) == "D"
        assert address_class(parse_ipv4("240.0.0.1")) == "E"
        with pytest.raises(AddressError):
            classful_prefix_length(parse_ipv4("224.0.0.1"))

    def test_first_octet(self):
        assert first_octet(parse_ipv4("151.198.194.17")) == 151
