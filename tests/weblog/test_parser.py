"""Unit tests for log parsing and the WebLog container."""

import random

import pytest

from repro.net.ipv4 import parse_ipv4
from repro.weblog.entry import LogEntry, LogFormatError
from repro.weblog.parser import (
    ParseLimitError,
    ParseReport,
    WebLog,
    _fast_entry,
    iter_clf_entries,
    parse_clf_lines,
)


def entry(client: str, t: float, url: str = "/a") -> LogEntry:
    return LogEntry(client=parse_ipv4(client), timestamp=t, url=url, size=100)


class TestParseClfLines:
    def test_counts_in_report(self):
        lines = [
            '1.2.3.4 - - [13/Feb/1998:00:00:00 +0000] "GET /a HTTP/1.0" 200 10',
            "malformed line",
            "",
            '0.0.0.0 - - [13/Feb/1998:00:00:01 +0000] "GET /b HTTP/1.0" 200 10',
            '1.2.3.5 - - [13/Feb/1998:00:00:02 +0000] "GET /c HTTP/1.0" 200 10',
        ]
        report = ParseReport()
        log = parse_clf_lines("t", lines, report)
        assert len(log) == 2
        assert report.parsed == 2
        assert report.malformed == 1
        assert report.null_client == 1  # 0.0.0.0 excluded per footnote 6
        assert report.total_lines == 5

    def test_null_client_never_appears(self):
        lines = [
            '0.0.0.0 - - [13/Feb/1998:00:00:00 +0000] "GET /a HTTP/1.0" 200 10',
        ]
        log = parse_clf_lines("t", lines)
        assert len(log) == 0


GOOD = '1.2.3.{host} - - [13/Feb/1998:00:00:0{host} +0000] "GET /u HTTP/1.0" 200 10'


class TestFastPath:
    """The hot-loop fast parse: a strict subset of the full grammar."""

    def test_accepts_common_shapes_identically(self):
        lines = [
            # common + combined, sizes, zones, methods, bare request
            '12.65.147.94 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 100',
            '1.2.3.4 x y [01/Jan/2001:23:59:59 +0900] "POST /cgi?q=1 HTTP/1.1" 404 -',
            '9.8.7.6 - - [28/Dec/1999:12:00:00 -0530] "HEAD /h HTTP/1.0" 304 0',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a" 200 5',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5 '
            '"http://ref/" "Mozilla/4.0"',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5 '
            '"-" "-"',
            '0.0.0.0 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
        ]
        for line in lines:
            fast = _fast_entry(line)
            assert fast is not None, line
            assert fast == LogEntry.from_clf(line), line

    def test_never_accepts_what_the_grammar_rejects(self):
        lines = [
            "garbage",
            "",
            '256.1.2.3 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
            '01.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
            '1.2.3.4 - - [13/Xyz/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a"b HTTP/1.0" 200 5',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5 "r"',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 20 5',
            'host.example - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
        ]
        for line in lines:
            with pytest.raises((LogFormatError, ValueError)):
                LogEntry.from_clf(line)
            assert _fast_entry(line) is None, line

    def test_declines_odd_but_valid_shapes_to_the_full_parse(self):
        # Shapes from_clf accepts that the fast pattern stays out of:
        # the fallback must produce them, not lose them.
        lines = [
            # one-token request (method defaults to GET)
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "/only" 200 5',
            # four-token request (extra tokens ignored)
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a b HTTP/1.0" 200 5',
            # lower-case method
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "get /a HTTP/1.0" 200 5',
        ]
        for line in lines:
            assert _fast_entry(line) is None, line
            full = LogEntry.from_clf(line)
            report = ParseReport()
            assert list(iter_clf_entries([line], report)) == [
                (full.client, full.url, full.size)
            ]
            assert report.parsed == 1 and report.malformed == 0

    def test_round_trip_fuzz_matches_full_parse(self):
        rng = random.Random(313)
        for _ in range(300):
            original = LogEntry(
                client=rng.randrange(1, 2**32),
                timestamp=float(rng.randrange(600_000_000, 1_000_000_000)),
                url=f"/d/{rng.randrange(999)}",
                size=rng.choice([0, 1, 30444]),
                status=rng.choice([200, 304, 404, 500]),
                method=rng.choice(["GET", "POST", "HEAD"]),
                user_agent=rng.choice(["", "Mozilla/4.0 (compat)"]),
                referer=rng.choice(["", "http://r/"]),
            )
            line = original.to_clf(combined=rng.random() < 0.5)
            fast = _fast_entry(line)
            assert fast is not None
            assert fast == LogEntry.from_clf(line)
            assert fast.client == original.client
            assert fast.timestamp == original.timestamp

    def test_report_accounting_identical_through_the_stream(self):
        lines = [
            GOOD.format(host=4),
            "junk",
            '0.0.0.0 - - [13/Feb/1998:00:00:00 +0000] "GET /z HTTP/1.0" 200 1',
            '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "/only" 200 5',
            "",
        ]
        report = ParseReport()
        entries = list(iter_clf_entries(lines, report))
        assert len(entries) == 2
        assert (report.total_lines, report.parsed, report.malformed,
                report.null_client) == (5, 2, 1, 1)


class TestIterClfEntries:
    """The streaming (engine-mode) front end: skip, count, guard."""

    def test_streams_entries_lazily(self):
        lines = iter([GOOD.format(host=4), GOOD.format(host=5)])
        report = ParseReport()
        stream = iter_clf_entries(lines, report)
        first = next(stream)
        assert first == (parse_ipv4("1.2.3.4"), "/u", 10)
        assert report.parsed == 1  # second line not consumed yet
        assert next(stream)[0] == parse_ipv4("1.2.3.5")
        assert report.parsed == 2

    def test_malformed_lines_counted_and_skipped(self):
        lines = ["junk", GOOD.format(host=4), "more junk", GOOD.format(host=5)]
        report = ParseReport()
        entries = list(iter_clf_entries(lines, report))
        assert len(entries) == 2
        assert report.malformed == 2

    def test_max_errors_guard_trips(self):
        lines = ["junk 1", "junk 2", GOOD.format(host=4)]
        report = ParseReport()
        with pytest.raises(ParseLimitError, match="max_errors=1"):
            list(iter_clf_entries(lines, report, max_errors=1))
        assert report.malformed == 2

    def test_max_errors_zero_is_strict(self):
        with pytest.raises(ParseLimitError):
            list(iter_clf_entries(["not clf"], max_errors=0))

    def test_max_errors_at_limit_passes(self):
        lines = ["junk", GOOD.format(host=4)]
        entries = list(iter_clf_entries(lines, max_errors=1))
        assert len(entries) == 1

    def test_parse_clf_lines_forwards_guard(self):
        with pytest.raises(ParseLimitError):
            parse_clf_lines("t", ["junk", "junk"], max_errors=1)


class TestWebLogIndexes:
    def _log(self):
        return WebLog(
            "t",
            [
                entry("1.2.3.4", 100.0, "/a"),
                entry("1.2.3.5", 50.0, "/b"),
                entry("1.2.3.4", 200.0, "/a"),
                entry("1.2.3.6", 150.0, "/c"),
            ],
        )

    def test_clients_sorted_unique(self):
        log = self._log()
        assert log.clients() == sorted(
            {parse_ipv4("1.2.3.4"), parse_ipv4("1.2.3.5"), parse_ipv4("1.2.3.6")}
        )
        assert log.num_clients() == 3

    def test_unique_urls_and_duration(self):
        log = self._log()
        assert log.unique_urls() == 3
        assert log.duration_seconds() == 150.0
        assert log.time_span() == (50.0, 200.0)

    def test_sort_by_time(self):
        log = self._log()
        log.sort_by_time()
        times = [e.timestamp for e in log.entries]
        assert times == sorted(times)

    def test_append_invalidates_index(self):
        log = self._log()
        assert log.num_clients() == 3
        log.append(entry("9.9.9.9", 300.0))
        assert log.num_clients() == 4

    def test_empty_log(self):
        log = WebLog("empty")
        assert log.time_span() == (0.0, 0.0)
        assert log.duration_seconds() == 0.0
        assert log.partition_sessions(60.0) == []


class TestTransforms:
    def test_partition_sessions(self):
        log = WebLog("t", [entry("1.2.3.4", float(t)) for t in range(0, 100, 10)])
        sessions = log.partition_sessions(30.0)
        assert len(sessions) == 4
        assert sum(len(s) for s in sessions) == len(log)
        # Entries fall in their window.
        for index, session in enumerate(sessions):
            for e in session.entries:
                assert index * 30.0 <= e.timestamp - 0.0 < (index + 1) * 30.0

    def test_partition_rejects_nonpositive(self):
        import pytest

        with pytest.raises(ValueError):
            WebLog("t", [entry("1.2.3.4", 0.0)]).partition_sessions(0.0)

    def test_without_clients(self):
        log = self._three_client_log()
        filtered = log.without_clients([parse_ipv4("1.2.3.4")])
        assert parse_ipv4("1.2.3.4") not in filtered.clients()
        assert len(filtered) == 1

    def _three_client_log(self):
        return WebLog(
            "t",
            [
                entry("1.2.3.4", 1.0),
                entry("1.2.3.4", 2.0),
                entry("1.2.3.5", 3.0),
            ],
        )
