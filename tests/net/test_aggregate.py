"""Unit tests for CIDR route aggregation."""

from repro.net.aggregate import aggregate_prefixes, aggregate_routes
from repro.net.prefix import Prefix


def p(cidr: str) -> Prefix:
    return Prefix.from_cidr(cidr)


class TestAggregatePrefixes:
    def test_sibling_pair_merges(self):
        result = aggregate_prefixes([p("10.0.0.0/25"), p("10.0.0.128/25")])
        assert result == [p("10.0.0.0/24")]

    def test_merge_cascades(self):
        quarters = [
            p("10.0.0.0/26"), p("10.0.0.64/26"),
            p("10.0.0.128/26"), p("10.0.0.192/26"),
        ]
        assert aggregate_prefixes(quarters) == [p("10.0.0.0/24")]

    def test_non_siblings_do_not_merge(self):
        # Adjacent but not aligned: 10.0.1.0/24 + 10.0.2.0/24 are not a
        # sibling pair (their parent would not be aligned).
        result = aggregate_prefixes([p("10.0.1.0/24"), p("10.0.2.0/24")])
        assert result == [p("10.0.1.0/24"), p("10.0.2.0/24")]

    def test_covered_prefix_dropped(self):
        result = aggregate_prefixes([p("10.0.0.0/8"), p("10.1.0.0/16")])
        assert result == [p("10.0.0.0/8")]

    def test_empty_input(self):
        assert aggregate_prefixes([]) == []

    def test_address_space_preserved(self):
        prefixes = [p("10.0.0.0/25"), p("10.0.0.128/25"), p("10.0.2.0/24"),
                    p("192.168.0.0/16")]
        merged = aggregate_prefixes(prefixes)

        def covered(ps):
            return sum(q.num_addresses for q in ps)

        assert covered(merged) == covered(
            [p("10.0.0.0/24"), p("10.0.2.0/24"), p("192.168.0.0/16")]
        )
        for original in prefixes:
            assert any(m.contains_prefix(original) for m in merged)


class TestAggregateRoutes:
    def test_different_next_hops_do_not_merge(self):
        routes = [(p("10.0.0.0/25"), "A"), (p("10.0.0.128/25"), "B")]
        assert sorted(aggregate_routes(routes)) == sorted(routes)

    def test_same_next_hop_merges(self):
        routes = [(p("10.0.0.0/25"), "A"), (p("10.0.0.128/25"), "A")]
        assert aggregate_routes(routes) == [(p("10.0.0.0/24"), "A")]

    def test_more_specific_exception_survives(self):
        # A /24 punched out of a /16 with a different next hop must stay.
        routes = [(p("10.0.0.0/16"), "A"), (p("10.0.5.0/24"), "B")]
        assert sorted(aggregate_routes(routes)) == sorted(routes)

    def test_redundant_specific_with_same_hop_dropped(self):
        routes = [(p("10.0.0.0/16"), "A"), (p("10.0.5.0/24"), "A")]
        assert aggregate_routes(routes) == [(p("10.0.0.0/16"), "A")]

    def test_duplicate_prefix_last_wins(self):
        routes = [(p("10.0.0.0/16"), "A"), (p("10.0.0.0/16"), "B")]
        assert aggregate_routes(routes) == [(p("10.0.0.0/16"), "B")]

    def test_key_projection(self):
        routes = [
            (p("10.0.0.0/25"), {"hop": "A", "age": 1}),
            (p("10.0.0.128/25"), {"hop": "A", "age": 2}),
        ]
        merged = aggregate_routes(routes, key=lambda v: v["hop"])
        assert len(merged) == 1
        assert merged[0][0] == p("10.0.0.0/24")
