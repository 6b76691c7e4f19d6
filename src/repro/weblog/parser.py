"""Streaming log parsing and the in-memory log container.

:class:`WebLog` is the unit the pipeline operates on: an ordered
request stream plus the derived indexes the clustering and detection
steps need (unique clients, per-client request lists).  Logs stream in
from CLF files line by line — malformed lines and the 0.0.0.0 source
address are dropped with counts kept, per the paper's footnote 6.

One grammar, two compiled forms
-------------------------------

The common well-formed CLF shape is written once (:data:`_FAST_SOURCE`)
and compiled twice.  The **full** form (:data:`_FAST_CLF`) captures all
seventeen fields and :func:`_fast_entry` builds the complete
:class:`LogEntry` from them.  The **lean** form (:data:`_LEAN_CLF`) is
the same source with every group but host, URL and size made
non-capturing: each field is still validated by the identical
sub-pattern, so both forms accept exactly the same lines by
construction (``tests/weblog/test_parser_tiers.py`` checks it).
Whatever the pattern declines — odd request shapes, quotes inside the
URL, out-of-range octets, unknown months — falls back to the full
:meth:`LogEntry.from_clf` grammar, so neither form can move a line
between the parsed / malformed / null_client buckets.  One private loop
(:func:`_scan`) owns line counting, blank and 0.0.0.0 skipping, that
fallback, ``malformed`` accounting and the ``max_errors`` guard for
both.

Who gets which
--------------

* :func:`iter_clf_entries` — the engine's front end — runs the lean
  form.  Clustering reads the client address, the URL and the size of
  each request and nothing else, so that is all it extracts, and each
  request is yielded as the plain tuple ``(client, url, size)`` (host
  text → int through a bounded memo that lives for one call; logs
  repeat their few thousand clients).  A line the pattern declines is
  parsed by the grammar and projected to the same triple.  A tuple of
  ints and a str holds no reference the collector must follow, so
  CPython stops tracking it the first time it survives a collection:
  the requests of a chunk in flight are never promoted and re-walked.
* :func:`parse_clf_lines` / :func:`load_clf` / :class:`WebLog` — the
  experiments, which replay timing, status and agents — run the full
  form and hold plain :class:`LogEntry` objects, as they always did.
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple,
)

from repro.net.ipv4 import parse_ipv4
from repro.weblog.entry import _MONTH_INDEX, _MONTHS, LogEntry, LogFormatError

__all__ = [
    "WebLog",
    "ParseReport",
    "ParseLimitError",
    "parse_clf_lines",
    "iter_clf_entries",
    "load_clf",
]


class ParseLimitError(ValueError):
    """Raised when malformed lines exceed a stream's ``max_errors``."""


_OCTET = r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"
# 0001-9999, what ``calendar.timegm`` takes: year 0 is the grammar's to
# reject (parse_clf_time raises on it), not the fast path's to raise on.
_YEAR = r"(?!0000)[0-9]{4}"

# The hot-loop pattern: the common CLF shape end to end, every field
# strict enough that a match is guaranteed to parse to the exact
# LogEntry the full grammar (LogEntry.from_clf) would produce.  Anything
# it is unsure about simply fails to match and falls through to
# from_clf.  ``(?f:`` opens a group only the full form captures: the
# lean form keeps the sub-pattern and drops the capture, which is what
# makes the two accept sets equal.
_FAST_SOURCE = (
    r"(OCTET(?:\.OCTET){3}) \S+ \S+ "
    r"\[(?f:\d{2})/(?f:MONTH)/"
    r"(?f:YEAR):(?f:\d{2}):(?f:\d{2}):(?f:\d{2}) (?f:[+-])(?f:\d{2})(?f:\d{2})\] "
    r'"(?f:[A-Z]+) ([^\s"]+)(?: (?f:[^\s"]+))?" (?f:\d{3}) (\d+|-)'
    r'(?: "(?f:[^"]*)" "(?f:[^"]*)")?$'
)
_FAST_SOURCE = (
    _FAST_SOURCE.replace("OCTET", _OCTET)
    .replace("MONTH", "|".join(_MONTHS))
    .replace("YEAR", _YEAR)
)
_FAST_CLF = re.compile(_FAST_SOURCE.replace("(?f:", "("))
_LEAN_CLF = re.compile(_FAST_SOURCE.replace("(?f:", "(?:"))

#: Distinct host texts one :func:`iter_clf_entries` call remembers
#: before it forgets them all and starts over.
_HOST_MEMO_LIMIT = 1 << 16


def _fast_entry(line: str) -> Optional[LogEntry]:
    """Parse a stripped CLF ``line`` on the fast path, or return None.

    Produces bit-identical entries to :meth:`LogEntry.from_clf` for
    every line it accepts (the timestamp arithmetic mirrors
    :func:`repro.weblog.entry.parse_clf_time` term for term); returns
    None for everything else so the caller can run the full parse.
    """
    match = _FAST_CLF.match(line)
    if match is None:
        return None
    (host, day, mon, year, hour, minute, second, sign, zone_h, zone_m,
     method, url, _proto, status, size, referer, agent) = match.groups()
    first, second_octet, third, fourth = host.split(".")
    epoch = calendar.timegm((
        int(year), _MONTH_INDEX[mon], int(day),
        int(hour), int(minute), int(second), 0, 0, 0,
    ))
    offset = (int(zone_h) * 3600 + int(zone_m) * 60)
    if sign == "-":
        offset = -offset
    return LogEntry(
        client=(int(first) << 24) | (int(second_octet) << 16)
               | (int(third) << 8) | int(fourth),
        timestamp=float(epoch - offset),
        url=url,
        size=0 if size == "-" else int(size),
        status=int(status),
        method=method,
        user_agent="" if agent is None or agent == "-" else agent,
        referer="" if referer is None or referer == "-" else referer,
    )


#: What the lean form yields: one request as clustering reads it,
#: (client address, URL, response bytes).
Triple = Tuple[int, str, int]


def _grammar_triple(line: str) -> Triple:
    """The request triple of a line the lean pattern declined."""
    entry = LogEntry.from_clf(line)
    return (entry.client, entry.url, entry.size)


def _lean_tier() -> Callable[[str], Optional[Triple]]:
    """A lean-form parser with a host memo of its own."""
    match = _LEAN_CLF.match
    clients: Dict[str, int] = {}
    known = clients.get

    def lean_triple(line: str) -> Optional[Triple]:
        found = match(line)
        if found is None:
            return None
        host, url, size = found.groups()
        client = known(host)
        if client is None:
            if len(clients) >= _HOST_MEMO_LIMIT:
                clients.clear()
            client = clients[host] = parse_ipv4(host)
        return (client, url, 0 if size == "-" else int(size))

    return lean_triple


@dataclass
class ParseReport:
    """Counts from one parsing pass (kept for log hygiene reporting)."""

    total_lines: int = 0
    parsed: int = 0
    malformed: int = 0
    null_client: int = 0  # requests from 0.0.0.0, excluded per footnote 6


class WebLog:
    """An ordered collection of :class:`LogEntry` with client indexes."""

    def __init__(self, name: str, entries: Optional[Iterable[LogEntry]] = None):
        self.name = name
        self.entries: List[LogEntry] = list(entries) if entries else []
        self._by_client: Optional[Dict[int, List[int]]] = None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.entries)

    def append(self, entry: LogEntry) -> None:
        self.entries.append(entry)
        self._by_client = None

    def extend(self, entries: Iterable[LogEntry]) -> None:
        self.entries.extend(entries)
        self._by_client = None

    def sort_by_time(self) -> None:
        """Order entries chronologically (simulation replay order)."""
        self.entries.sort(key=lambda e: e.timestamp)
        self._by_client = None

    # -- indexes -----------------------------------------------------------

    def clients(self) -> List[int]:
        """Unique client addresses, ascending."""
        return sorted(self._client_index())

    def num_clients(self) -> int:
        return len(self._client_index())

    def requests_of(self, client: int) -> List[LogEntry]:
        """All requests issued by ``client``, in log order."""
        index = self._client_index()
        return [self.entries[i] for i in index.get(client, ())]

    def request_count_of(self, client: int) -> int:
        index = self._client_index()
        return len(index.get(client, ()))

    def unique_urls(self) -> int:
        return len({entry.url for entry in self.entries})

    def duration_seconds(self) -> float:
        if not self.entries:
            return 0.0
        times = [entry.timestamp for entry in self.entries]
        return max(times) - min(times)

    def time_span(self) -> tuple:
        """(first, last) timestamps; (0.0, 0.0) for an empty log."""
        if not self.entries:
            return (0.0, 0.0)
        times = [entry.timestamp for entry in self.entries]
        return (min(times), max(times))

    def partition_sessions(self, session_seconds: float) -> List["WebLog"]:
        """Split chronologically into fixed-length sessions (§3.6's
        6-hour partitioning of the Nagano log)."""
        if session_seconds <= 0:
            raise ValueError("session length must be positive")
        if not self.entries:
            return []
        start, _ = self.time_span()
        sessions: Dict[int, List[LogEntry]] = {}
        for entry in self.entries:
            bucket = int((entry.timestamp - start) // session_seconds)
            sessions.setdefault(bucket, []).append(entry)
        return [
            WebLog(f"{self.name}.session{bucket}", entries)
            for bucket, entries in sorted(sessions.items())
        ]

    def without_clients(self, excluded: Iterable[int]) -> "WebLog":
        """A copy with all requests from ``excluded`` clients removed
        (spider/proxy elimination, §4.1.1)."""
        drop = set(excluded)
        kept = [entry for entry in self.entries if entry.client not in drop]
        return WebLog(self.name, kept)

    def _client_index(self) -> Dict[int, List[int]]:
        if self._by_client is None:
            index: Dict[int, List[int]] = {}
            for position, entry in enumerate(self.entries):
                index.setdefault(entry.client, []).append(position)
            self._by_client = index
        return self._by_client


def _scan(
    lines: Iterable[str],
    report: Optional[ParseReport],
    max_errors: Optional[int],
    tier: Callable[[str], Optional[Any]],
    fallback: Callable[[str], Any],
    client_of: Callable[[Any], int],
) -> Iterator[Any]:
    """The one parsing loop: count, skip, ``tier`` then the full
    grammar, account, guard.  ``tier`` is :func:`_fast_entry` or a
    :func:`_lean_tier`; what it declines goes to ``fallback``
    (:meth:`LogEntry.from_clf` or :func:`_grammar_triple`), and
    ``client_of`` reads the address off either record."""
    report = report if report is not None else ParseReport()
    for line in lines:
        report.total_lines += 1
        stripped = line.strip()
        if not stripped:
            continue
        try:
            entry = tier(stripped)
            if entry is None:
                entry = fallback(stripped)
        except (LogFormatError, ValueError):
            report.malformed += 1
            if max_errors is not None and report.malformed > max_errors:
                raise ParseLimitError(
                    f"{report.malformed} malformed lines exceed the "
                    f"max_errors={max_errors} guard "
                    f"(line {report.total_lines}: {stripped[:80]!r})"
                )
            continue
        if client_of(entry) == 0:
            report.null_client += 1
            continue
        report.parsed += 1
        yield entry


def iter_clf_entries(
    lines: Iterable[str],
    report: Optional[ParseReport] = None,
    max_errors: Optional[int] = None,
) -> Iterator[Triple]:
    """Stream request triples ``(client, url, size)`` out of CLF ``lines``.

    This is the engine-mode front end: triples are yielded as they
    parse, so arbitrarily large logs stream through in constant memory,
    and malformed lines are counted-and-skipped in ``report`` rather
    than aborting the batch they arrived in.  ``max_errors`` is the
    guard against feeding the engine something that is not a CLF log at
    all: when more than ``max_errors`` malformed lines accumulate, the
    stream raises :class:`ParseLimitError` (``max_errors=0`` means
    strict, ``None`` — the default — never trips).

    Requests from 0.0.0.0 (BOOTP-style unknown-source placeholders) are
    excluded, as in the paper's experiments.

    Each triple is a plain ``tuple`` equal to the ``client``, ``url``
    and ``size`` of the :class:`LogEntry` its line parses to.
    """
    return _scan(
        lines, report, max_errors, _lean_tier(), _grammar_triple, itemgetter(0)
    )


def parse_clf_lines(
    name: str,
    lines: Iterable[str],
    report: Optional[ParseReport] = None,
    max_errors: Optional[int] = None,
) -> WebLog:
    """Parse CLF ``lines`` into a :class:`WebLog` of plain
    :class:`LogEntry` (see :func:`iter_clf_entries` for the skip/guard
    behaviour)."""
    return WebLog(name, _scan(
        lines, report, max_errors,
        _fast_entry, LogEntry.from_clf, attrgetter("client"),
    ))


def load_clf(name: str, stream: TextIO) -> WebLog:
    """Parse a CLF file object into a :class:`WebLog`."""
    return parse_clf_lines(name, stream)
