"""Unit tests for the LPM oracles, and the production tables checked
against them."""

import hashlib
import random

import pytest

from repro.engine.fastpath import StrideLpm
from repro.engine.packed import PackedLpm
from repro.net.ipv4 import parse_ipv4
from repro.net.lpm import LinearLpm, SortedLpm
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree


def p(cidr: str) -> Prefix:
    return Prefix.from_cidr(cidr)


def filled(cls, entries):
    """A mutable matcher (radix trie or oracle) holding ``entries``."""
    matcher = cls()
    for prefix, value in entries:
        matcher.insert(prefix, value)
    return matcher


@pytest.fixture(params=[LinearLpm, SortedLpm])
def engine(request):
    return request.param()


class TestEngineBasics:
    def test_empty(self, engine):
        assert len(engine) == 0
        assert engine.longest_match(parse_ipv4("1.2.3.4")) is None

    def test_insert_and_match(self, engine):
        engine.insert(p("10.0.0.0/8"), "coarse")
        engine.insert(p("10.1.0.0/16"), "fine")
        assert engine.longest_match(parse_ipv4("10.1.0.1")) == (
            p("10.1.0.0/16"), "fine"
        )
        assert engine.longest_match(parse_ipv4("10.2.0.1")) == (
            p("10.0.0.0/8"), "coarse"
        )
        assert engine.longest_match(parse_ipv4("11.0.0.1")) is None

    def test_overwrite(self, engine):
        engine.insert(p("10.0.0.0/8"), "a")
        engine.insert(p("10.0.0.0/8"), "b")
        assert len(engine) == 1
        assert engine.longest_match(parse_ipv4("10.0.0.1"))[1] == "b"

    def test_delete(self, engine):
        engine.insert(p("10.0.0.0/8"), "a")
        assert engine.delete(p("10.0.0.0/8"))
        assert not engine.delete(p("10.0.0.0/8"))
        assert engine.longest_match(parse_ipv4("10.0.0.1")) is None

    def test_items_sorted(self, engine):
        cidrs = ["172.16.0.0/12", "10.0.0.0/8", "10.0.0.0/24"]
        for cidr in cidrs:
            engine.insert(p(cidr), cidr)
        ordered = [prefix.cidr for prefix, _ in engine.items()]
        assert ordered == ["10.0.0.0/8", "10.0.0.0/24", "172.16.0.0/12"]


class TestEngineEquivalence:
    def test_three_engines_agree(self):
        rng = random.Random(99)
        prefixes = []
        for _ in range(200):
            prefixes.append((Prefix(rng.getrandbits(32), rng.randint(2, 32)), "v"))
        radix = filled(RadixTree, prefixes)
        linear = filled(LinearLpm, prefixes)
        sorted_engine = filled(SortedLpm, prefixes)
        for _ in range(400):
            address = rng.getrandbits(32)
            results = {
                kind: engine.longest_match(address)
                for kind, engine in (
                    ("radix", radix), ("linear", linear), ("sorted", sorted_engine)
                )
            }
            matched = {
                kind: (result[0] if result else None)
                for kind, result in results.items()
            }
            assert matched["radix"] == matched["linear"] == matched["sorted"]


class TestBatchApi:
    """The production tables' batch surface, checked against the
    SortedLpm oracle: entry handles resolve to the oracle's match, and
    the digest is the oracle's prefix set hashed by the test itself."""

    CIDRS = ["10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12"]

    @pytest.fixture(params=[PackedLpm, StrideLpm],
                    ids=["packed", "stride"])
    def table(self, request):
        return request.param.from_items(
            [(p(cidr), cidr) for cidr in self.CIDRS]
        )

    def test_lookup_many_returns_entry_indices(self, table):
        oracle = filled(SortedLpm, [(p(cidr), cidr) for cidr in self.CIDRS])
        probes = [
            parse_ipv4("10.1.2.3"),    # /16, entry 1 in sort_key order
            parse_ipv4("10.200.0.1"),  # /8,  entry 0
            parse_ipv4("172.20.0.1"),  # /12, entry 2
            parse_ipv4("11.0.0.1"),    # miss
        ]
        indices = table.lookup_many(probes)
        assert indices == [1, 0, 2, -1]
        for address, index in zip(probes, indices):
            assert table.match_index(address) == index
            expected = oracle.longest_match(address)
            if index >= 0:
                assert (table.prefix(index), table.value(index)) == expected
                assert table.lookup(address) == table.value(index)
            else:
                assert expected is None
                assert table.lookup(address) is None

    def test_digest_matches_across_kinds(self):
        entries = [(p(cidr), cidr) for cidr in self.CIDRS]
        reference = hashlib.sha256()
        for prefix, _ in filled(SortedLpm, entries).items():
            reference.update(prefix.network.to_bytes(4, "big"))
            reference.update(bytes((prefix.length,)))
        assert PackedLpm.from_items(entries).digest() == reference.hexdigest()
        assert StrideLpm.from_items(entries).digest() == reference.hexdigest()
