"""Failure-injection tests: the pipeline must survive dirty inputs.

Real dump files and logs contain truncation, binary noise, duplicate
and conflicting entries; §3.1's collection scripts tolerated them and
so must we — by skipping bad records loudly-countably, never by
crashing or silently mis-parsing.
"""


from repro.bgp.table import MergedPrefixTable, RoutingTable
from repro.cli import load_tables
from repro.net.prefix import Prefix
from repro.weblog.parser import ParseReport, parse_clf_lines


class TestDirtyDumps:
    def test_binary_noise_skipped(self):
        lines = [
            "10.0.0.0/8\thop\t1",
            "\x00\x01\x02 binary garbage \xff",
            "192.0.2.0/24\thop\t2",
        ]
        table = RoutingTable.from_lines("T", lines)
        assert len(table) == 2

    def test_truncated_line_skipped(self):
        table = RoutingTable.from_lines("T", ["10.0.0.0/"])
        assert len(table) == 0

    def test_empty_dump(self):
        table = RoutingTable.from_lines("T", [])
        assert len(table) == 0
        assert table.prefixes() == []

    def test_all_comments_dump(self):
        table = RoutingTable.from_lines("T", ["# a", "# b", ""])
        assert len(table) == 0

    def test_duplicate_prefix_last_wins(self):
        lines = ["10.0.0.0/8\tfirst\t1", "10.0.0.0/8\tsecond\t2"]
        table = RoutingTable.from_lines("T", lines)
        assert len(table) == 1
        assert table.get(Prefix.from_cidr("10.0.0.0/8")).next_hop == "second"

    def test_whitespace_variants(self):
        lines = ["  10.0.0.0/8  ", "\t192.0.2.0/24\thop\t5\t"]
        table = RoutingTable.from_lines("T", lines)
        assert len(table) == 2

    def test_merge_of_empty_tables(self):
        merged = MergedPrefixTable.from_tables(
            [RoutingTable("A"), RoutingTable("B")]
        )
        assert len(merged) == 0
        assert merged.lookup(12345) is None


class TestDirtyArchives:
    def test_corrupted_archive_file_partially_loads(self, tmp_path, capsys):
        table = RoutingTable("T")
        table.add_prefix(Prefix.from_cidr("10.0.0.0/8"))
        table.add_prefix(Prefix.from_cidr("192.0.2.0/24"))
        path = tmp_path / "t.dump"
        # Corrupt the middle of the file.
        content = list(table.to_lines())
        content.insert(1, "!!corrupted record!!")
        path.write_text("\n".join(content) + "\n")
        loaded = load_tables([str(path)])
        assert len(loaded) == 2  # both good records survive
        assert "skipped 1 malformed line(s)" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dump"
        path.write_text("")
        loaded = load_tables([str(path)])
        assert len(loaded) == 0
        assert loaded.lookup(12345) is None


class TestDirtyLogs:
    def test_log_with_every_failure_mode(self):
        lines = [
            "",                                    # blank
            "\x00binary\x01",                      # binary noise
            "not a log line at all",               # garbage
            '1.2.3.4 - - [not a date] "GET /x HTTP/1.0" 200 1',   # bad time
            '1.2.3.999 - - [13/Feb/1998:00:00:00 +0000] "GET /x HTTP/1.0" 200 1',
            '0.0.0.0 - - [13/Feb/1998:00:00:00 +0000] "GET /x HTTP/1.0" 200 1',
            '1.2.3.4 - - [13/Feb/1998:00:00:00 +0000] "GET /ok HTTP/1.0" 200 1',
        ]
        report = ParseReport()
        log = parse_clf_lines("dirty", lines, report)
        assert len(log) == 1
        assert log.entries[0].url == "/ok"
        assert report.malformed == 4
        assert report.null_client == 1

    def test_clustering_empty_log(self, merged_table):
        from repro.core.clustering import cluster_log
        from repro.weblog.parser import WebLog

        result = cluster_log(WebLog("empty"), merged_table)
        assert len(result) == 0
        assert result.clustered_fraction == 1.0
