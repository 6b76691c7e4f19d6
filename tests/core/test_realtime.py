"""Unit/integration tests for real-time sliding-window clustering."""

import pytest

from repro.bgp.table import MergedPrefixTable, RoutingTable
from repro.core.clustering import cluster_log
from repro.core.realtime import RealTimeClusterer
from repro.net.ipv4 import parse_ipv4
from repro.net.prefix import Prefix
from repro.weblog.entry import LogEntry
from repro.weblog.parser import WebLog


def small_table() -> MergedPrefixTable:
    table = RoutingTable("T")
    table.add_prefix(Prefix.from_cidr("10.0.0.0/24"))
    table.add_prefix(Prefix.from_cidr("10.0.1.0/24"))
    merged = MergedPrefixTable()
    merged.add_table(table)
    return merged


def entry(client: str, t: float, url: str = "/a", size: int = 100) -> LogEntry:
    return LogEntry(parse_ipv4(client), t, url, size)


class TestWindowMechanics:
    def test_entries_accumulate_within_window(self):
        clusterer = RealTimeClusterer(small_table(), window_seconds=100.0)
        clusterer.feed(entry("10.0.0.1", 0.0))
        clusterer.feed(entry("10.0.0.2", 50.0))
        stats = clusterer.stats()
        assert stats.entries == 2
        assert stats.clients == 2
        assert stats.clusters == 1

    def test_old_entries_expire(self):
        clusterer = RealTimeClusterer(small_table(), window_seconds=100.0)
        clusterer.feed(entry("10.0.0.1", 0.0))
        clusterer.feed(entry("10.0.1.1", 500.0))
        stats = clusterer.stats()
        assert stats.entries == 1
        assert stats.clusters == 1
        snapshot = clusterer.snapshot()
        assert [c.identifier.cidr for c in snapshot.clusters] == ["10.0.1.0/24"]

    def test_rejects_time_travel(self):
        clusterer = RealTimeClusterer(small_table(), window_seconds=100.0)
        clusterer.feed(entry("10.0.0.1", 100.0))
        with pytest.raises(ValueError):
            clusterer.feed(entry("10.0.0.1", 50.0))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RealTimeClusterer(small_table(), window_seconds=0.0)

    def test_unclustered_clients_tracked_and_expired(self):
        clusterer = RealTimeClusterer(small_table(), window_seconds=100.0)
        clusterer.feed(entry("192.168.9.9", 0.0))
        assert clusterer.snapshot().unclustered_clients == [
            parse_ipv4("192.168.9.9")
        ]
        clusterer.feed(entry("10.0.0.1", 500.0))
        assert clusterer.snapshot().unclustered_clients == []

    def test_assignment_cache_limits_lookups(self):
        clusterer = RealTimeClusterer(small_table(), window_seconds=1000.0)
        for t in range(20):
            clusterer.feed(entry("10.0.0.1", float(t)))
        assert clusterer.lookups_performed == 1
        assert clusterer.entries_processed == 20

    def test_one_table_lookup_per_distinct_client(self):
        """Opening a new live cluster reads its source from the cached
        result: ``lookups_performed`` counts every call the table sees."""

        class CountingTable:
            def __init__(self, table):
                self.table = table
                self.calls = 0

            def lookup(self, address):
                self.calls += 1
                return self.table.lookup(address)

        table = CountingTable(small_table())
        clusterer = RealTimeClusterer(table, window_seconds=1000.0)
        clients = ["10.0.0.1", "10.0.1.1", "10.0.0.2", "192.168.9.9"]
        for t, client in enumerate(clients * 3):
            clusterer.feed(entry(client, float(t)))
        assert table.calls == len(clients)
        assert clusterer.lookups_performed == len(clients)
        assert [(c.identifier.cidr, c.source_name)
                for c in clusterer.snapshot().clusters] == [
            ("10.0.0.0/24", "T"), ("10.0.1.0/24", "T"),
        ]


class TestSnapshotCorrectness:
    def test_snapshot_matches_batch_clustering(self, nagano_log, merged_table):
        """The streaming window over the whole log must equal one batch
        clustering of the same entries."""
        log = nagano_log.log
        duration = log.duration_seconds() + 1.0
        clusterer = RealTimeClusterer(merged_table, window_seconds=duration)
        for item in log.entries:
            clusterer.feed(item)
        streamed = clusterer.snapshot()
        batch = cluster_log(log, merged_table)
        streamed_map = {
            c.identifier: (c.num_clients, c.requests, c.unique_urls,
                           c.total_bytes)
            for c in streamed.clusters
        }
        batch_map = {
            c.identifier: (c.num_clients, c.requests, c.unique_urls,
                           c.total_bytes)
            for c in batch.clusters
        }
        assert streamed_map == batch_map
        assert sorted(streamed.unclustered_clients) == sorted(
            set(batch.unclustered_clients)
        )

    def test_windowed_snapshot_matches_window_slice(
        self, nagano_log, merged_table
    ):
        log = nagano_log.log
        window = 6 * 3600.0
        clusterer = RealTimeClusterer(merged_table, window_seconds=window)
        for item in log.entries:
            clusterer.feed(item)
        streamed = clusterer.snapshot()
        last_time = log.entries[-1].timestamp
        recent = WebLog(
            "slice",
            [e for e in log.entries if e.timestamp >= last_time - window],
        )
        batch = cluster_log(recent, merged_table)
        assert len(streamed) == len(batch)
        assert streamed.total_requests == batch.total_requests

    def test_busiest_ordering(self, nagano_log, merged_table):
        clusterer = RealTimeClusterer(merged_table, window_seconds=1e9)
        for item in nagano_log.log.entries:
            clusterer.feed(item)
        busiest = clusterer.busiest(5)
        counts = [requests for _, requests in busiest]
        assert counts == sorted(counts, reverse=True)


class TestAdaptation:
    def test_update_table_reroutes_new_requests(self):
        clusterer = RealTimeClusterer(small_table(), window_seconds=1e6)
        clusterer.feed(entry("10.0.0.1", 0.0))
        # New table splits the /24 into /25s.
        fresh = RoutingTable("T2")
        fresh.add_prefix(Prefix.from_cidr("10.0.0.0/25"))
        fresh.add_prefix(Prefix.from_cidr("10.0.0.128/25"))
        merged = MergedPrefixTable()
        merged.add_table(fresh)
        clusterer.update_table(merged)
        clusterer.feed(entry("10.0.0.200", 1.0))
        prefixes = {c.identifier.cidr for c in clusterer.snapshot().clusters}
        assert "10.0.0.128/25" in prefixes  # new route used
        assert "10.0.0.0/24" in prefixes    # old assignment ages out later
