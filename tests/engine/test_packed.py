"""PackedLpm: agreement with the radix trie, and the prefix-set digest."""

import hashlib

from repro.engine.packed import PackedLpm
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree
from repro.util.rng import spawn


def _tree_from(cidrs):
    tree = RadixTree()
    for cidr in cidrs:
        prefix = Prefix.from_cidr(cidr)
        tree.insert(prefix, cidr)
    return tree


class TestCompile:
    def test_empty_table(self):
        packed = PackedLpm.from_items([])
        assert len(packed) == 0
        assert not packed
        assert packed.longest_match(0) is None
        assert packed.lookup_many([0, 1, 2**32 - 1]) == [-1, -1, -1]

    def test_entries_preserved_in_sort_order(self):
        tree = _tree_from(["24.0.0.0/8", "12.65.128.0/19", "24.48.2.0/23"])
        packed = PackedLpm(tree.export_entries())
        assert [p.cidr for p, _ in packed.items()] == [
            "12.65.128.0/19", "24.0.0.0/8", "24.48.2.0/23",
        ]
        assert len(packed) == 3

    def test_duplicate_items_keep_last_value(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        packed = PackedLpm.from_items([(prefix, "old"), (prefix, "new")])
        assert packed.longest_match(Prefix.from_cidr("10.1.2.3/32").network) == (
            prefix, "new",
        )

    def test_from_merged_is_lookup_drop_in(self, merged_table):
        packed = PackedLpm.from_merged(merged_table)
        assert len(packed) == len(merged_table)
        probe = next(merged_table.prefixes()).network
        direct = merged_table.lookup(probe)
        via_packed = packed.lookup(probe)
        assert via_packed == direct
        assert via_packed.prefix == direct.prefix
        assert via_packed.source_kind == direct.source_kind


class TestLookup:
    def test_nested_prefixes_resolve_most_specific(self):
        tree = _tree_from(["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"])
        packed = PackedLpm(tree.export_entries())
        cases = {
            "10.1.2.3": "10.1.2.0/24",
            "10.1.9.9": "10.1.0.0/16",
            "10.200.0.1": "10.0.0.0/8",
        }
        for address, expected in cases.items():
            prefix, value = packed.longest_match(Prefix.from_cidr(address + "/32").network)
            assert prefix.cidr == expected
        assert packed.longest_match(Prefix.from_cidr("11.0.0.0/32").network) is None

    def test_default_route_and_full_host_extremes(self):
        tree = _tree_from([
            "0.0.0.0/0", "0.0.0.0/32", "255.255.255.255/32", "128.0.0.0/1",
        ])
        packed = PackedLpm(tree.export_entries())
        for address in (0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1):
            assert packed.longest_match(address) == tree.longest_match(address)

    def test_agrees_with_radix_on_random_tables(self):
        rng = spawn(2000, "packed-vs-radix")
        tree = RadixTree()
        for _ in range(1500):
            prefix = Prefix(rng.getrandbits(32), rng.randint(2, 32))
            tree.insert(prefix, prefix.cidr)
        packed = PackedLpm(tree.export_entries())
        assert len(packed) == len(tree)
        for _ in range(5000):
            address = rng.getrandbits(32)
            assert packed.longest_match(address) == tree.longest_match(address)

    def test_lookup_many_matches_scalar_lookups(self, merged_table, nagano_log):
        packed = PackedLpm.from_merged(merged_table)
        clients = nagano_log.log.clients()
        indices = packed.lookup_many(clients)
        for client, index in zip(clients, indices):
            scalar = packed.longest_match(client)
            if index < 0:
                assert scalar is None
            else:
                assert scalar == (packed.prefix(index), packed.value(index))
                assert packed.match_index(client) == index


class TestImmutableShipping:
    def test_digest_tracks_prefix_set_not_values(self):
        a = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), "x")])
        b = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), "y")])
        c = PackedLpm.from_items([(Prefix.from_cidr("11.0.0.0/8"), "x")])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_is_the_per_prefix_hash(self):
        """The digest checkpoints carry: sha256 over each live prefix in
        routing-table order, its network as 4 big-endian bytes then its
        length byte — on a compiled table and on a patched one."""

        def literal(table):
            hasher = hashlib.sha256()
            for prefix in sorted((p for p, _ in table.items()), key=Prefix.sort_key):
                hasher.update(prefix.network.to_bytes(4, "big"))
                hasher.update(bytes((prefix.length,)))
            return hasher.hexdigest()

        rng = spawn(2000, "packed-digest")
        items = sorted(
            {
                Prefix(rng.getrandbits(32), rng.randint(0, 32)): i
                for i in range(500)
            }.items(),
            key=lambda kv: kv[0].sort_key(),
        )
        table = PackedLpm.from_items(items)
        assert table.digest() == literal(table)
        withdrawn = [prefix for prefix, _ in items[::3]]
        announced = [
            (Prefix(rng.getrandbits(32), rng.randint(8, 30)), "new")
            for _ in range(60)
        ]
        announced = [kv for kv in announced if kv[0] not in set(withdrawn)]
        table.apply_delta(announce=announced, withdraw=withdrawn)
        assert table.digest() == literal(table)
        assert PackedLpm.from_items([]).digest() == hashlib.sha256().hexdigest()
