"""Unit tests for log summary statistics."""

from repro.net.ipv4 import parse_ipv4
from repro.weblog.entry import LogEntry
from repro.weblog.parser import WebLog
from repro.weblog.stats import requests_by_client, summarize


def entry(client: str, t: float, url: str = "/a", size: int = 100) -> LogEntry:
    return LogEntry(client=parse_ipv4(client), timestamp=t, url=url, size=size)


def test_summarize():
    log = WebLog(
        "t",
        [
            entry("1.2.3.4", 0.0, "/a", 100),
            entry("1.2.3.4", 3600.0, "/b", 200),
            entry("1.2.3.5", 7200.0, "/a", 300),
        ],
    )
    stats = summarize(log)
    assert stats.requests == 3
    assert stats.clients == 2
    assert stats.unique_urls == 2
    assert stats.duration_hours == 2.0
    assert stats.total_bytes == 600
    assert "t:" in stats.describe()


def test_requests_by_client():
    log = WebLog("t", [entry("1.2.3.4", 0.0), entry("1.2.3.4", 1.0),
                       entry("1.2.3.5", 2.0)])
    counts = requests_by_client(log)
    assert counts == {parse_ipv4("1.2.3.4"): 2, parse_ipv4("1.2.3.5"): 1}
