"""IPv4 and longest-prefix-match substrate.

Everything the clustering pipeline needs to manipulate addresses and
prefixes: strict dotted-quad parsing, canonical CIDR :class:`Prefix`
objects, a path-compressed radix trie for router-style longest-prefix
matching, alternative LPM engines for cross-checking and benchmarking,
and CIDR route aggregation.
"""

from repro.net.aggregate import aggregate_prefixes, aggregate_routes
from repro.net.ipv4 import (
    AddressError,
    MAX_ADDRESS,
    address_class,
    classful_prefix_length,
    format_ipv4,
    is_valid_ipv4,
    length_to_netmask,
    mask_bits,
    netmask_to_length,
    parse_ipv4,
)
from repro.net.lpm import LinearLpm, SortedLpm, build_engine
from repro.net.prefix import DEFAULT_ROUTE, Prefix
from repro.net.prefixset import PrefixSet
from repro.net.radix import RadixTree

__all__ = [
    "AddressError",
    "MAX_ADDRESS",
    "DEFAULT_ROUTE",
    "Prefix",
    "PrefixSet",
    "RadixTree",
    "LinearLpm",
    "SortedLpm",
    "build_engine",
    "address_class",
    "classful_prefix_length",
    "format_ipv4",
    "is_valid_ipv4",
    "length_to_netmask",
    "mask_bits",
    "netmask_to_length",
    "parse_ipv4",
    "aggregate_prefixes",
    "aggregate_routes",
]
