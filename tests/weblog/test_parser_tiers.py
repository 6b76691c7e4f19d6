"""Differential property: the lean form, the full form and the grammar.

``weblog.parser`` compiles one CLF pattern twice — the full-capture
form behind ``_fast_entry`` and the lean form behind
``iter_clf_entries`` — and sends whatever they decline to
``LogEntry.from_clf``.  These properties hold the three together on
lines drawn from the grammar and then damaged: the two forms accept the
same lines, never one the grammar rejects, the full form's entry is the
grammar's ``LogEntry``, the lean stream's record is that entry's
``(client, url, size)`` whichever tier parsed the line, and the
stream's ``ParseReport`` is what the grammar alone would have counted.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.weblog import parser
from repro.weblog.entry import _MONTHS, LogEntry, LogFormatError
from repro.weblog.parser import (
    ParseReport,
    _fast_entry,
    _lean_tier,
    iter_clf_entries,
    parse_clf_lines,
)

URL_TEXT = st.text(
    alphabet="abcXYZ019/._-~?=&%+:;,@é", min_size=1, max_size=24
)
QUOTED_TEXT = st.sampled_from(
    ["-", "", "http://ref.example/a?b=c", "Mozilla/4.0 (compatible; MSIE 4.01)"]
)


@st.composite
def clf_lines(draw):
    """One well-formed common/combined line, every field varied."""
    host = ".".join(str(draw(st.integers(0, 255))) for _ in range(4))
    if draw(st.integers(0, 19)) == 0:
        host = "0.0.0.0"
    ident = draw(st.sampled_from(["-", "ident", "a.b"]))
    user = draw(st.sampled_from(["-", "bob"]))
    stamp = "%02d/%s/%04d:%02d:%02d:%02d %s%02d%02d" % (
        draw(st.integers(1, 31)), draw(st.sampled_from(_MONTHS)),
        draw(st.integers(1, 9999)), draw(st.integers(0, 23)),
        draw(st.integers(0, 59)), draw(st.integers(0, 59)),
        draw(st.sampled_from("+-")), draw(st.integers(0, 14)),
        draw(st.sampled_from([0, 30, 45])),
    )
    request = draw(st.sampled_from(["GET", "POST", "HEAD"])) + " " + draw(URL_TEXT)
    if draw(st.booleans()):
        request += " " + draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    size = draw(st.one_of(st.just("-"), st.integers(0, 2**40).map(str)))
    line = (
        f'{host} {ident} {user} [{stamp}] "{request}" '
        f"{draw(st.integers(100, 599))} {size}"
    )
    if draw(st.booleans()):
        line += f' "{draw(QUOTED_TEXT)}" "{draw(QUOTED_TEXT)}"'
    return line


@st.composite
def damaged_lines(draw):
    """A grammar line put through one of the ways real logs break (or
    merely stray from the common shape)."""
    line = draw(clf_lines())
    kind = draw(st.sampled_from([
        "intact", "octet-256", "octet-leading-zero", "bad-month", "year-0",
        "stray-quote", "cut-anywhere", "cut-at-field", "trailing-space",
        "empty", "lower-method", "one-token-request", "four-token-request",
    ]))
    if kind == "octet-256":
        return "256." + line.split(".", 1)[1]
    if kind == "octet-leading-zero":
        return "0" + line
    # The first two slashes of a grammar line are the date's.
    day, month, rest = line.split("/", 2)
    if kind == "bad-month":
        return f"{day}/Xyz/{rest}"
    if kind == "year-0":
        return f"{day}/{month}/0000{rest[4:]}"
    if kind == "stray-quote":
        at = draw(st.integers(0, len(line)))
        return line[:at] + '"' + line[at:]
    if kind == "cut-anywhere":
        return line[: draw(st.integers(0, len(line)))]
    if kind == "cut-at-field":
        tokens = line.split(" ")
        return " ".join(tokens[: draw(st.integers(0, len(tokens) - 1))])
    if kind == "trailing-space":
        return line + draw(st.sampled_from([" ", "\t", "\n", "\r\n", "  \n"]))
    if kind == "empty":
        return draw(st.sampled_from(["", " ", "\n"]))
    if kind == "lower-method":
        return line.replace('"GET ', '"get ').replace('"POST ', '"post ')
    if kind == "one-token-request":
        return line.split('"')[0] + '"/only"' + line.split('"', 2)[2]
    if kind == "four-token-request":
        return line.replace('" ', ' extra" ', 1)
    return line


def _grammar(line):
    try:
        return LogEntry.from_clf(line)
    except (LogFormatError, ValueError):
        return None


def _triple(entry):
    return (entry.client, entry.url, entry.size)


def _grammar_count(raws):
    """What the grammar alone counts and keeps, no fast tier involved."""
    counts = ParseReport()
    kept = []
    for raw in raws:
        counts.total_lines += 1
        if not raw.strip():
            continue
        entry = _grammar(raw.strip())
        if entry is None:
            counts.malformed += 1
        elif entry.client == 0:
            counts.null_client += 1
        else:
            counts.parsed += 1
            kept.append(entry)
    return counts, kept


@settings(max_examples=600, deadline=None)
@given(raw=damaged_lines())
def test_tiers_and_grammar_agree_line_by_line(raw):
    line = raw.strip()
    lean = _lean_tier()(line)
    full = _fast_entry(line)
    expected = _grammar(line)

    assert (lean is None) == (full is None)
    if full is not None:
        # A strict subset of the grammar, and the same entry.
        assert expected is not None
        assert full == expected
        assert lean == _triple(expected)
    # Whichever tier takes the line, the stream yields the grammar's
    # triple and counts it into the grammar's bucket.
    counts, kept = _grammar_count([raw])
    report = ParseReport()
    assert list(iter_clf_entries([raw], report)) == [
        _triple(entry) for entry in kept
    ]
    assert report == counts


@settings(max_examples=150, deadline=None)
@given(raws=st.lists(damaged_lines(), max_size=12))
def test_stream_report_is_the_grammars(raws):
    counts, expected = _grammar_count(raws)
    lean_report, full_report = ParseReport(), ParseReport()
    assert list(iter_clf_entries(raws, lean_report)) == [
        _triple(entry) for entry in expected
    ]
    log = parse_clf_lines("t", raws, full_report)
    assert log.entries == expected
    assert all(type(entry) is LogEntry for entry in log.entries)
    assert lean_report == counts and full_report == counts


def test_records_are_untracked_plain_triples():
    """The record contract the batch path's speed rests on: every
    record is an exact ``tuple`` ``(client, url, size)`` — from the
    lean pattern and from the grammar fallback alike — and none stays
    tracked by the collector once a collection has seen it."""
    lines = [
        '1.2.3.4 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
        '1.2.3.5 - - [13/Feb/1998:09:12:02 +0000] "GET /b HTTP/1.0" 304 -'
        ' "http://ref/" "Mozilla/4.0"',
        # Lines the pattern declines: the grammar parses them.
        '1.2.3.6 - - [13/Feb/1998:09:12:03 +0000] "/only" 200 7',
        '1.2.3.7 - - [13/Feb/1998:09:12:04 +0000] "get /c HTTP/1.0" 200 8',
        '1.2.3.8 - - [13/Feb/1998:09:12:05 +0000] "GET /d x HTTP/1.0" 200 9',
    ]
    assert [_lean_tier()(line) is None for line in lines] == [
        False, False, True, True, True,
    ]
    records = list(iter_clf_entries(lines))
    assert records == [_triple(LogEntry.from_clf(line)) for line in lines]
    for record in records:
        assert type(record) is tuple and len(record) == 3
        client, url, size = record
        assert (type(client), type(url), type(size)) == (int, str, int)
    gc.collect()
    assert not any(gc.is_tracked(record) for record in records)


def test_year_zero_is_malformed_not_fatal():
    # calendar.timegm raises on year 0; the fast pattern used to accept
    # the line and let that ValueError abort the whole stream.
    lines = [
        '1.2.3.4 - - [13/Feb/0000:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
        '1.2.3.4 - - [13/Feb/0001:09:12:01 +0000] "GET /a HTTP/1.0" 200 5',
    ]
    report = ParseReport()
    entries = list(iter_clf_entries(lines, report))
    assert entries == [_triple(LogEntry.from_clf(lines[1]))]
    assert (report.parsed, report.malformed) == (1, 1)


def test_host_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(parser, "_HOST_MEMO_LIMIT", 4)
    lines = [
        f'10.0.0.{host % 7 + 1} - - [13/Feb/1998:00:00:00 +0000] "GET /u" 200 1'
        for host in range(40)
    ]
    entries = list(iter_clf_entries(lines))
    assert [client & 0xFF for client, _, _ in entries] == [
        host % 7 + 1 for host in range(40)
    ]
