"""Unit tests for cluster identification (all three methods)."""

import pytest

from repro.bgp.table import KIND_BGP, KIND_REGISTRY, MergedPrefixTable, RoutingTable
from repro.core.clustering import (
    METHOD_CLASSFUL,
    METHOD_NETWORK_AWARE,
    METHOD_SIMPLE,
    classful_prefix,
    cluster_addresses,
    cluster_log,
    simple_prefix,
)
from repro.net.ipv4 import parse_ipv4
from repro.net.prefix import Prefix
from repro.weblog.entry import LogEntry
from repro.weblog.parser import WebLog


def p(cidr: str) -> Prefix:
    return Prefix.from_cidr(cidr)


def make_table(*cidrs, kind=KIND_BGP) -> MergedPrefixTable:
    table = RoutingTable("T", kind=kind)
    for cidr in cidrs:
        table.add_prefix(p(cidr))
    merged = MergedPrefixTable()
    merged.add_table(table)
    return merged


class TestSimplePrefix:
    def test_first_24_bits(self):
        assert simple_prefix(parse_ipv4("151.198.194.17")) == p("151.198.194.0/24")

    def test_groups_paper_example_wrongly(self):
        """§2: the three hosts in different /28s share one simple
        cluster — the motivating mis-grouping."""
        hosts = ["151.198.194.17", "151.198.194.34", "151.198.194.50"]
        groups = {simple_prefix(parse_ipv4(h)) for h in hosts}
        assert groups == {p("151.198.194.0/24")}


class TestClassfulPrefix:
    def test_classes(self):
        assert classful_prefix(parse_ipv4("18.1.2.3")) == p("18.0.0.0/8")
        assert classful_prefix(parse_ipv4("151.198.194.17")) == p("151.198.0.0/16")
        assert classful_prefix(parse_ipv4("200.1.2.3")) == p("200.1.2.0/24")

    def test_multicast_unclusterable(self):
        assert classful_prefix(parse_ipv4("230.0.0.1")) is None


class TestNetworkAwareClustering:
    def test_paper_worked_example(self):
        """§3.2.1: six clients, two clusters."""
        table = make_table("12.65.128.0/19", "24.48.2.0/23")
        clients = [
            "12.65.147.94", "12.65.147.149", "12.65.146.207",
            "12.65.144.247", "24.48.3.87", "24.48.2.166",
        ]
        result = cluster_addresses(
            [parse_ipv4(c) for c in clients], table, METHOD_NETWORK_AWARE
        )
        by_id = {c.identifier: c for c in result.clusters}
        assert set(by_id) == {p("12.65.128.0/19"), p("24.48.2.0/23")}
        assert by_id[p("12.65.128.0/19")].num_clients == 4
        assert by_id[p("24.48.2.0/23")].num_clients == 2
        assert result.unclustered_clients == []

    def test_longest_match_decides_membership(self):
        table = make_table("10.0.0.0/8", "10.1.0.0/16")
        result = cluster_addresses(
            [parse_ipv4("10.1.0.1"), parse_ipv4("10.2.0.1")], table
        )
        assert {c.identifier for c in result} == {p("10.0.0.0/8"), p("10.1.0.0/16")}

    def test_unmatched_clients_unclustered(self):
        table = make_table("10.0.0.0/8")
        result = cluster_addresses([parse_ipv4("11.0.0.1")], table)
        assert len(result) == 0
        assert result.unclustered_clients == [parse_ipv4("11.0.0.1")]
        assert result.clustered_fraction == 0.0

    def test_requires_table(self):
        with pytest.raises(ValueError):
            cluster_addresses([1], None, METHOD_NETWORK_AWARE)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            cluster_addresses([1], None, "psychic")

    def test_source_kind_recorded(self):
        bgp = RoutingTable("B", kind=KIND_BGP)
        bgp.add_prefix(p("10.0.0.0/8"))
        registry = RoutingTable("R", kind=KIND_REGISTRY)
        registry.add_prefix(p("172.16.0.0/12"))
        merged = MergedPrefixTable.from_tables([bgp, registry])
        result = cluster_addresses(
            [parse_ipv4("10.0.0.1"), parse_ipv4("172.16.0.1")], merged
        )
        kinds = {c.identifier: c.source_kind for c in result}
        assert kinds[p("10.0.0.0/8")] == KIND_BGP
        assert kinds[p("172.16.0.0/12")] == KIND_REGISTRY
        assert result.registry_clustered_clients() == 1


class TestClusterLogMetrics:
    def _log(self):
        entries = [
            LogEntry(parse_ipv4("10.1.0.1"), 1.0, "/a", 100),
            LogEntry(parse_ipv4("10.1.0.1"), 2.0, "/b", 200),
            LogEntry(parse_ipv4("10.1.0.2"), 3.0, "/a", 100),
            LogEntry(parse_ipv4("10.2.0.1"), 4.0, "/c", 300),
        ]
        return WebLog("t", entries)

    def test_metrics_rolled_up(self):
        table = make_table("10.1.0.0/16", "10.2.0.0/16")
        result = cluster_log(self._log(), table)
        by_id = {c.identifier: c for c in result.clusters}
        cluster = by_id[p("10.1.0.0/16")]
        assert cluster.num_clients == 2
        assert cluster.requests == 3
        assert cluster.unique_urls == 2  # /a shared between clients
        assert cluster.total_bytes == 400
        other = by_id[p("10.2.0.0/16")]
        assert (other.num_clients, other.requests, other.unique_urls) == (1, 1, 1)
        assert result.total_requests == 4

    def test_simple_method_needs_no_table(self):
        result = cluster_log(self._log(), method=METHOD_SIMPLE)
        assert {c.identifier for c in result} == {
            p("10.1.0.0/24"), p("10.2.0.0/24")
        }

    def test_classful_method(self):
        result = cluster_log(self._log(), method=METHOD_CLASSFUL)
        assert {c.identifier for c in result} == {p("10.0.0.0/8")}
        assert result.clusters[0].num_clients == 3


class TestClusterSetHelpers:
    def test_sorts(self):
        table = make_table("10.1.0.0/16", "10.2.0.0/16")
        result = cluster_log(self._log(), table)
        by_clients = result.sorted_by_clients()
        assert by_clients[0].num_clients >= by_clients[-1].num_clients
        by_requests = result.sorted_by_requests()
        assert by_requests[0].requests >= by_requests[-1].requests

    def test_clustered_fraction_counts_unclustered(self):
        table = make_table("10.1.0.0/16")
        result = cluster_log(self._log(), table)
        assert result.num_clients == 3
        assert result.clustered_fraction == pytest.approx(2 / 3)

    def _log(self):
        entries = [
            LogEntry(parse_ipv4("10.1.0.1"), 1.0, "/a", 100),
            LogEntry(parse_ipv4("10.1.0.1"), 2.0, "/b", 200),
            LogEntry(parse_ipv4("10.1.0.2"), 3.0, "/a", 100),
            LogEntry(parse_ipv4("10.2.0.1"), 4.0, "/c", 300),
        ]
        return WebLog("t", entries)


class TestEndToEndOnSharedWorld:
    def test_vast_majority_clustered(self, nagano_log, merged_table):
        result = cluster_log(nagano_log.log, merged_table)
        assert result.clustered_fraction > 0.99

    def test_bogus_clients_not_clustered(self, nagano_log, merged_table):
        result = cluster_log(nagano_log.log, merged_table)
        for bogus in nagano_log.bogus_clients:
            assert bogus in result.unclustered_clients

    def test_simple_yields_more_clusters(self, nagano_log, merged_table):
        aware = cluster_log(nagano_log.log, merged_table)
        simple = cluster_log(nagano_log.log, method=METHOD_SIMPLE)
        assert len(simple) > len(aware)
