"""Property-based tests (hypothesis) on the core data structures.

These pin down the invariants the whole reproduction rests on: the
radix trie must agree with a brute-force oracle, textual round-trips
must be lossless, and aggregation must preserve covered address space.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fastpath import StrideLpm
from repro.engine.packed import PackedLpm
from repro.net.aggregate import aggregate_prefixes
from repro.net.ipv4 import format_ipv4, mask_bits, parse_ipv4
from repro.net.lpm import LinearLpm, SortedLpm
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)
lengths = st.integers(min_value=0, max_value=32)
prefixes = st.builds(Prefix, addresses, lengths)
prefix_lists = st.lists(prefixes, min_size=0, max_size=60)


@given(addresses)
def test_ipv4_format_parse_round_trip(address):
    assert parse_ipv4(format_ipv4(address)) == address


@given(prefixes)
def test_prefix_cidr_round_trip(prefix):
    assert Prefix.from_cidr(prefix.cidr) == prefix


@given(prefixes)
def test_prefix_netmask_round_trip(prefix):
    text = prefix.with_netmask
    address, netmask = text.split("/")
    assert Prefix.from_netmask(address, netmask) == prefix


@given(prefixes)
def test_prefix_covers_its_own_range(prefix):
    assert prefix.contains_address(prefix.first_address)
    assert prefix.contains_address(prefix.last_address)
    assert prefix.num_addresses == prefix.last_address - prefix.first_address + 1


@given(prefixes, addresses)
def test_containment_matches_mask_arithmetic(prefix, address):
    expected = (address & mask_bits(prefix.length)) == prefix.network
    assert prefix.contains_address(address) == expected


@settings(max_examples=60)
@given(prefix_lists, st.lists(addresses, min_size=1, max_size=30))
def test_radix_agrees_with_linear_oracle(prefix_list, query_addresses):
    tree = RadixTree()
    oracle = LinearLpm()
    for index, prefix in enumerate(prefix_list):
        tree.insert(prefix, index)
        oracle.insert(prefix, index)
    assert len(tree) == len({p for p in prefix_list})
    for address in query_addresses:
        expected = oracle.longest_match(address)
        got = tree.longest_match(address)
        if expected is None:
            assert got is None
        else:
            # The matched prefix must agree; the value follows from the
            # last-write-wins semantics both engines share.
            assert got is not None and got[0] == expected[0]
            assert got[1] == expected[1]


@settings(max_examples=60)
@given(prefix_lists, st.lists(addresses, min_size=1, max_size=30))
def test_sorted_lpm_agrees_with_linear_oracle(prefix_list, query_addresses):
    engine = SortedLpm()
    oracle = LinearLpm()
    for index, prefix in enumerate(prefix_list):
        engine.insert(prefix, index)
        oracle.insert(prefix, index)
    for address in query_addresses:
        expected = oracle.longest_match(address)
        got = engine.longest_match(address)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got[0] == expected[0]


@settings(max_examples=60)
@given(prefix_lists, st.lists(addresses, min_size=1, max_size=30))
def test_every_lpm_kind_agrees_on_longest_match(prefix_list, query_addresses):
    """StrideLpm, PackedLpm, RadixTree and SortedLpm resolve identical
    longest matches for arbitrary prefix sets, the two compiled tables
    return identical entry handles, and their digest is the SortedLpm
    oracle's prefix set hashed here.  Duplicate prefixes keep the last
    value under every kind."""
    entries = [(prefix, index) for index, prefix in enumerate(prefix_list)]
    engines = {"radix": RadixTree(), "sorted": SortedLpm()}
    for engine in engines.values():
        for prefix, value in entries:
            engine.insert(prefix, value)
    engines["packed"] = PackedLpm.from_items(entries)
    engines["stride"] = StrideLpm.from_items(entries)
    oracle = engines["radix"]
    for address in query_addresses:
        expected = oracle.longest_match(address)
        for kind in ("sorted", "packed", "stride"):
            got = engines[kind].longest_match(address)
            if expected is None:
                assert got is None, kind
            else:
                assert got == expected, kind
    handles = engines["packed"].lookup_many(query_addresses)
    assert engines["stride"].lookup_many(query_addresses) == handles
    reference = hashlib.sha256()
    for prefix, _ in engines["sorted"].items():
        reference.update(prefix.network.to_bytes(4, "big"))
        reference.update(bytes((prefix.length,)))
    assert (engines["packed"].digest() == engines["stride"].digest()
            == reference.hexdigest())


@settings(max_examples=60)
@given(prefix_lists)
def test_radix_delete_restores_oracle_agreement(prefix_list):
    tree = RadixTree()
    unique = list({p for p in prefix_list})
    for prefix in unique:
        tree.insert(prefix, prefix.cidr)
    # Delete every other prefix, then check the survivors still match.
    survivors = []
    for index, prefix in enumerate(unique):
        if index % 2 == 0:
            assert tree.delete(prefix)
        else:
            survivors.append(prefix)
    assert len(tree) == len(survivors)
    for prefix in survivors:
        assert tree.get(prefix) == prefix.cidr
        # The network address of a surviving entry must match something
        # at least as specific as that entry (possibly a longer
        # surviving prefix nested at the same address).
        match = tree.longest_match(prefix.network)
        assert match is not None
        assert match[0].length >= prefix.length


@settings(max_examples=80)
@given(prefix_lists)
def test_aggregation_preserves_coverage(prefix_list):
    merged = aggregate_prefixes(prefix_list)
    # Every original block is covered by exactly one merged block.
    for original in prefix_list:
        covers = [m for m in merged if m.contains_prefix(original)]
        assert len(covers) == 1
    # No two merged blocks overlap.
    ordered = sorted(merged)
    for left, right in zip(ordered, ordered[1:]):
        assert not left.overlaps(right)


@settings(max_examples=80)
@given(prefix_lists)
def test_aggregation_is_minimal(prefix_list):
    merged = aggregate_prefixes(prefix_list)
    # Minimality: no sibling pair remains, and no block is covered.
    as_set = set(merged)
    for prefix in merged:
        sibling = prefix.sibling()
        assert sibling is None or sibling not in as_set


@settings(max_examples=80)
@given(prefix_lists)
def test_aggregation_idempotent(prefix_list):
    once = aggregate_prefixes(prefix_list)
    twice = aggregate_prefixes(once)
    assert sorted(once) == sorted(twice)
