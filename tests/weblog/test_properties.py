"""Property-based tests for log-entry and dump-format round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.formats import parse_entry, render_entry
from repro.bgp.formats import FORMAT_DOTTED_NETMASK, FORMAT_MASK_LENGTH
from repro.net.prefix import Prefix
from repro.weblog.entry import LogEntry, format_clf_time, parse_clf_time

addresses = st.integers(min_value=1, max_value=(1 << 32) - 1)
# CLF timestamps: seconds in a sane epoch range (1980..2030).
timestamps = st.integers(min_value=315532800, max_value=1893456000).map(float)
url_chars = st.sampled_from(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._/~%")
urls = st.text(alphabet=url_chars, min_size=1, max_size=60).map(
    lambda s: "/" + s.lstrip("/")
)
methods = st.sampled_from(["GET", "HEAD", "POST"])
statuses = st.sampled_from([200, 206, 301, 304, 403, 404, 500])
sizes = st.integers(min_value=0, max_value=10**9)
# Agent/referer text must survive the quoted CLF fields: printable
# ASCII without the quote character.
field_chars = st.sampled_from(
    "abcdefghijklmnopqrstuvwxyz0123456789 ()/;:.,+-_")
agent_text = (
    st.text(alphabet=field_chars, min_size=0, max_size=40)
    .map(lambda s: s.strip())
    # A literal "-" is CLF's empty-field marker: the format cannot
    # distinguish it from an absent value, so it is excluded from the
    # round-trip property (parsers must and do read it as empty).
    .filter(lambda s: s != "-")
)


@settings(max_examples=150)
@given(timestamps)
def test_clf_time_round_trip(timestamp):
    assert parse_clf_time(format_clf_time(timestamp)) == timestamp


@settings(max_examples=150)
@given(addresses, timestamps, urls, sizes, statuses, methods, agent_text,
       agent_text)
def test_log_entry_clf_round_trip(address, timestamp, url, size, status,
                                  method, agent, referer):
    entry = LogEntry(
        client=address,
        timestamp=timestamp,
        url=url,
        size=size,
        status=status,
        method=method,
        user_agent=agent,
        referer=referer,
    )
    parsed = LogEntry.from_clf(entry.to_clf())
    assert parsed.client == entry.client
    assert parsed.timestamp == entry.timestamp
    assert parsed.url == entry.url
    assert parsed.size == entry.size
    assert parsed.status == entry.status
    assert parsed.method == entry.method
    assert parsed.user_agent == entry.user_agent
    assert parsed.referer == entry.referer


lengths = st.integers(min_value=0, max_value=32)
prefixes = st.builds(Prefix, addresses, lengths)


@settings(max_examples=150)
@given(prefixes)
def test_dump_format_round_trips(prefix):
    for fmt in (FORMAT_DOTTED_NETMASK, FORMAT_MASK_LENGTH):
        assert parse_entry(render_entry(prefix, fmt)) == prefix


@settings(max_examples=150)
@given(prefixes)
def test_unification_idempotent(prefix):
    def unify(entry):
        return render_entry(parse_entry(entry), FORMAT_DOTTED_NETMASK)

    once = unify(render_entry(prefix, FORMAT_MASK_LENGTH))
    assert unify(once) == once
