"""Unit/integration tests for AS-level cluster grouping."""

from repro.bgp.table import KIND_BGP, MergedPrefixTable, RoutingTable
from repro.core.asclusters import (
    UNKNOWN_AS,
    as_merge_candidates,
    group_clusters_by_as,
)
from repro.core.clustering import cluster_addresses, cluster_log
from repro.net.ipv4 import parse_ipv4
from repro.net.prefix import Prefix


def make_table(entries) -> MergedPrefixTable:
    table = RoutingTable("T", kind=KIND_BGP)
    for cidr, as_path in entries:
        table.add_prefix(Prefix.from_cidr(cidr), as_path=as_path)
    merged = MergedPrefixTable()
    merged.add_table(table)
    return merged


class TestGrouping:
    def test_groups_by_origin_as(self):
        table = make_table([
            ("10.0.0.0/24", (1, 7)),
            ("10.0.1.0/24", (2, 7)),
            ("10.1.0.0/24", (1, 9)),
        ])
        clusters = cluster_addresses(
            [parse_ipv4(a) for a in ("10.0.0.1", "10.0.1.1", "10.1.0.1")],
            table,
        )
        report = group_clusters_by_as(clusters, table)
        by_asn = {g.asn: g for g in report.groups}
        assert by_asn[7].num_clusters == 2
        assert by_asn[9].num_clusters == 1
        assert report.unattributed_clusters == 0

    def test_pathless_routes_unattributed(self):
        table = make_table([("10.0.0.0/24", ())])
        clusters = cluster_addresses([parse_ipv4("10.0.0.1")], table)
        report = group_clusters_by_as(clusters, table)
        assert report.unattributed_clusters == 1
        assert any(group.asn == UNKNOWN_AS for group in report.groups)

    def test_group_metrics_roll_up(self, nagano_log, merged_table):
        clusters = cluster_log(nagano_log.log, merged_table)
        report = group_clusters_by_as(clusters, merged_table)
        assert sum(g.num_clusters for g in report.groups) == len(clusters)
        assert sum(g.requests for g in report.groups) == sum(
            c.requests for c in clusters.clusters
        )

    def test_fewer_groups_than_clusters(self, nagano_log, merged_table):
        clusters = cluster_log(nagano_log.log, merged_table)
        report = group_clusters_by_as(clusters, merged_table)
        assert len(report) < len(clusters)

    def test_sorted_by_requests(self, nagano_log, merged_table):
        clusters = cluster_log(nagano_log.log, merged_table)
        ordered = group_clusters_by_as(clusters, merged_table).sorted_by_requests()
        requests = [g.requests for g in ordered]
        assert requests == sorted(requests, reverse=True)


class TestMergeCandidates:
    def test_adjacent_same_as_flagged(self):
        table = make_table([
            ("10.0.0.0/25", (5,)),
            ("10.0.0.128/25", (5,)),
        ])
        clusters = cluster_addresses(
            [parse_ipv4("10.0.0.1"), parse_ipv4("10.0.0.129")], table
        )
        candidates = as_merge_candidates(clusters, table)
        assert len(candidates) == 1
        left, right = candidates[0]
        assert {left.identifier.cidr, right.identifier.cidr} == {
            "10.0.0.0/25", "10.0.0.128/25"
        }

    def test_different_as_not_flagged(self):
        table = make_table([
            ("10.0.0.0/25", (5,)),
            ("10.0.0.128/25", (6,)),
        ])
        clusters = cluster_addresses(
            [parse_ipv4("10.0.0.1"), parse_ipv4("10.0.0.129")], table
        )
        assert as_merge_candidates(clusters, table) == []

    def test_distant_same_as_not_flagged(self):
        table = make_table([
            ("10.0.0.0/24", (5,)),
            ("10.255.0.0/24", (5,)),
        ])
        clusters = cluster_addresses(
            [parse_ipv4("10.0.0.1"), parse_ipv4("10.255.0.1")], table
        )
        assert as_merge_candidates(clusters, table, max_gap_bits=4) == []

    def test_real_world_produces_some_candidates(
        self, nagano_log, merged_table
    ):
        clusters = cluster_log(nagano_log.log, merged_table)
        candidates = as_merge_candidates(clusters, merged_table)
        # ISP pool chunks in one allocation share the origin AS and sit
        # adjacent: at least some candidates must surface.
        assert len(candidates) > 0
        for left, right in candidates:
            assert left.identifier != right.identifier
