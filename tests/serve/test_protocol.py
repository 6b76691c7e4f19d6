"""Unit tests for the serve ndjson wire format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.synth import RouteDelta
from repro.errors import (
    ReproError,
    ServeDisconnectError,
    ServeLineTooLongError,
    ServeProtocolError,
)
from repro.net.ipv4 import parse_ipv4
from repro.net.prefix import Prefix
from repro.serve import protocol
from repro.serve.protocol import LineSplitter, LogEvent, parse_event

#: Log lines that once killed the daemon or were silently coerced: an
#: overflowing size, an address past 2**32 (accepted, then an
#: IndexError at the next flush, or an AddressError in the WAL append),
#: and fields that decoded to client -1 / 1, size -7 / 1 / 1 and url
#: "None".
HOSTILE_LOG_LINES = [
    '{"type": "log", "client": "10.1.0.5", "url": "/h", "size": 1e400}',
    '{"type": "log", "client": 4294967296, "url": "/h"}',
    '{"type": "log", "client": -1, "url": "/h"}',
    '{"type": "log", "client": true, "url": "/h"}',
    '{"type": "log", "client": 167837957.0, "url": "/h"}',
    '{"type": "log", "client": "10.1.0.5", "url": "/h", "size": -7}',
    '{"type": "log", "client": "10.1.0.5", "url": "/h", "size": 1.9}',
    '{"type": "log", "client": "10.1.0.5", "url": "/h", "size": true}',
    '{"type": "log", "client": "10.1.0.5", "url": "/h", "size": NaN}',
    '{"type": "log", "client": "10.1.0.5", "url": "/h", "size": Infinity}',
    '{"type": "log", "client": "10.1.0.5", "url": null}',
]


class TestParseEvent:
    def test_blank_line_is_none(self):
        assert parse_event("") is None
        assert parse_event("   \n") is None

    def test_log_event_with_dotted_quad(self):
        event = parse_event(
            '{"type": "log", "client": "12.65.147.9", "url": "/a", "size": 512}'
        )
        assert isinstance(event, LogEvent)
        assert event.client == parse_ipv4("12.65.147.9")
        assert event.url == "/a"
        assert event.size == 512

    def test_log_event_with_integer_client(self):
        event = parse_event('{"type": "log", "client": 167772161}')
        assert isinstance(event, LogEvent)
        assert event.client == 167772161
        assert event.size == 0

    def test_route_events_decode_to_route_delta(self):
        for op in ("announce", "withdraw"):
            event = parse_event(
                json.dumps(
                    {
                        "type": op,
                        "prefix": "12.65.128.0/19",
                        "origin_asn": 7018,
                        "source": "AADS",
                        "reason": "churn",
                    }
                )
            )
            assert isinstance(event, RouteDelta)
            assert event.op == op
            assert event.prefix == Prefix.from_cidr("12.65.128.0/19")
            assert event.origin_asn == 7018

    def test_log_event_round_trip(self):
        event = LogEvent(client=parse_ipv4("10.1.2.3"), url="/x", size=9)
        assert parse_event(event.to_json()) == event

    @given(
        client=st.integers(0, 2**32 - 1),
        # st.text() reaches quotes, backslashes, control characters,
        # non-ASCII and non-BMP code points; the samples make sure
        # each turns up.
        url=st.one_of(
            st.text(max_size=40),
            st.sampled_from(
                ['/a"b', "/a\\b", "/tab\there\n", "/\x00\x1f\x7f", "/caf\u00e9",
                 "/\U0001f600", "/\u2028", ""]
            ),
        ),
        size=st.one_of(st.integers(0, 2**64), st.sampled_from([0, 2**63])),
    )
    def test_to_json_is_the_sorted_dump_byte_for_byte(self, client, url, size):
        event = LogEvent(client=client, url=url, size=size)
        text = event.to_json()
        assert text == json.dumps(event.to_dict(), sort_keys=True)
        assert parse_event(text) == event

    def test_route_delta_round_trip(self):
        delta = RouteDelta(
            op=RouteDelta.OP_WITHDRAW,
            prefix=Prefix.from_cidr("10.0.0.0/8"),
            source="AADS",
        )
        assert parse_event(delta.to_json()) == delta

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"type": "teleport"}',
            '{"url": "/missing-type"}',
            '{"type": "log"}',
            '{"type": "log", "client": "999.1.2.3"}',
            '{"type": "announce", "prefix": "not-a-cidr"}',
            '{"type": "withdraw"}',
            '{"type": "announce", "prefix": "10.0.0.0/8", "origin_asn": 1e400}',
            *HOSTILE_LOG_LINES,
        ],
    )
    def test_malformed_lines_raise_protocol_error(self, line):
        with pytest.raises(ServeProtocolError):
            parse_event(line)

    def test_nesting_past_the_recursion_limit_is_a_protocol_error(self):
        with pytest.raises(ServeProtocolError, match="not JSON"):
            parse_event('{"type": "log", "client": ' + "[" * 100_000)

    def test_protocol_error_is_repro_and_value_error(self):
        """Taxonomy contract: callers may catch either family."""
        assert issubclass(ServeProtocolError, ReproError)
        assert issubclass(ServeProtocolError, ValueError)


class TestLineSplitter:
    def drain(self, splitter):
        lines = []
        while True:
            line = splitter.next_line()
            if line is None:
                return lines
            lines.append(line)

    def test_reassembles_lines_across_arbitrary_chunks(self):
        splitter = LineSplitter()
        payload = b"alpha\nbravo\ncharlie\n"
        collected = []
        for cut in range(0, len(payload), 3):
            splitter.push(payload[cut : cut + 3])
            collected.extend(self.drain(splitter))
        assert collected == ["alpha", "bravo", "charlie"]
        assert splitter.pending == 0

    def test_partial_frame_stays_pending(self):
        splitter = LineSplitter()
        splitter.push(b'{"type": "log"')
        assert splitter.next_line() is None
        assert splitter.pending == 14
        splitter.push(b"}\n")
        assert splitter.next_line() == '{"type": "log"}'

    def test_flush_returns_unterminated_tail_at_clean_eof(self):
        splitter = LineSplitter()
        splitter.push(b"first\nlast-no-newline")
        assert splitter.next_line() == "first"
        assert splitter.flush() == "last-no-newline"
        assert splitter.flush() is None

    def test_oversized_terminated_line_raises_once_then_continues(self):
        splitter = LineSplitter(max_line_bytes=8)
        splitter.push(b"x" * 20 + b"\nok\n")
        with pytest.raises(ServeLineTooLongError):
            splitter.next_line()
        assert splitter.next_line() == "ok"

    def test_oversized_unterminated_line_raises_once_then_discards(self):
        splitter = LineSplitter(max_line_bytes=8)
        splitter.push(b"y" * 20)
        with pytest.raises(ServeLineTooLongError):
            splitter.next_line()
        # More of the same monster line: silently discarded, no second
        # error, bounded memory.
        splitter.push(b"y" * 50)
        assert splitter.next_line() is None
        assert splitter.pending == 0
        splitter.push(b"y\nafter\n")
        assert splitter.next_line() == "after"

    def test_abandon_with_partial_frame_raises_disconnect(self):
        splitter = LineSplitter()
        splitter.push(b"complete\ntorn-fragme")
        assert splitter.next_line() == "complete"
        with pytest.raises(ServeDisconnectError):
            splitter.abandon()
        # The splitter is clean for the next connection.
        splitter.push(b"fresh\n")
        assert splitter.next_line() == "fresh"

    def test_abandon_with_empty_buffer_is_silent(self):
        splitter = LineSplitter()
        splitter.push(b"done\n")
        assert splitter.next_line() == "done"
        splitter.abandon()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            LineSplitter(max_line_bytes=0)


class TestLogEventTuple:
    def test_keeps_fields_defaults_repr_and_immutability(self):
        event = LogEvent(client=5, url="/x")
        assert (event.client, event.url, event.size) == (5, "/x", 0)
        assert LogEvent(7) == LogEvent(client=7, url="", size=0)
        assert repr(event) == "LogEvent(client=5, url='/x', size=0)"
        with pytest.raises(AttributeError):
            event.size = 1

    def test_is_the_triple_the_store_folds(self):
        event = LogEvent(5, "/x", 9)
        assert event == (5, "/x", 9)
        client, url, size = event
        assert (client, url, size) == (5, "/x", 9)


def _outcome(decode, line):
    """A decoder's whole answer for one line: the event with its type,
    or the protocol error's message."""
    try:
        event = decode(line)
    except ServeProtocolError as exc:
        return ("error", str(exc))
    return ("event", type(event), event)


#: Values a damaged line puts where a field's value was.
_ODD_VALUES = [
    "0", "-0", "007", "-7", "1.0", "1.9", "1e3", "1e400", "-1e400", "NaN",
    "Infinity", "-Infinity", "true", "false", "null", '""', '"7"', "[]",
    "{}", str(2**32), str(2**32 - 1), str(2**64), "1" + "0" * 5000,
    '"10.1.2.3"', '"010.1.2.3"', '"10.1.2"', '"1.2.3.4.5"', '"\\u0031.2.3.4"',
    "\u0661", "1\uff11", '"\u0661.2.3.4"',
]

_URLS = st.one_of(
    st.text(max_size=30),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=30),
    st.sampled_from(["", "/", '/a"b', "/a\\b", "/\t", "/caf\u00e9", "/\ud800"]),
)


#: Number-like tokens, valid JSON or not: signs, leading zeros,
#: fractions, exponents.
_NUMBERS = st.from_regex(
    r"-?[0-9]{1,4}(\.[0-9]{0,2})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
)


def _canonical_with(fields, key, value):
    """The canonical line with ``key``'s value text replaced."""
    parts = [
        f"{json.dumps(k)}: {value if k == key else json.dumps(v)}"
        for k, v in sorted(fields.items())
    ]
    return "{" + ", ".join(parts) + "}"


@st.composite
def damaged_log_lines(draw):
    """A canonical log line, or one of its damaged variants."""
    client = draw(st.integers(0, 2**32 - 1))
    url = draw(_URLS)
    size = draw(st.one_of(st.integers(0, 10**6), st.integers(0, 2**80)))
    canonical = LogEvent(client, url, size).to_json()
    fields = {"client": protocol.format_ipv4(client), "size": size,
              "type": "log", "url": url}
    damage = draw(st.sampled_from([
        "none", "order", "spacing", "compact", "padding", "raw_unicode",
        "escaped_slash", "int_client", "odd_value", "duplicate", "missing",
        "truncate", "mutate", "route",
    ]))
    if damage == "none":
        return canonical
    if damage == "order":
        keys = draw(st.permutations(list(fields)))
        return json.dumps({key: fields[key] for key in keys})
    if damage == "spacing":
        return json.dumps(fields, sort_keys=True, indent=draw(st.sampled_from([None, 0, 1])))
    if damage == "compact":
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))
    if damage == "padding":
        pad = draw(st.sampled_from([" ", "\t", "\r", "\n", "\u2028", "\x85", "\x0c"]))
        return draw(st.sampled_from([pad + canonical, canonical + pad]))
    if damage == "raw_unicode":
        return json.dumps(fields, sort_keys=True, ensure_ascii=False)
    if damage == "escaped_slash":
        return canonical.replace("/", "\\/")
    if damage == "int_client":
        return canonical.replace(
            json.dumps(fields["client"]), str(draw(st.integers(-2, 2**33)))
        )
    if damage == "odd_value":
        key = draw(st.sampled_from(["client", "size", "url", "type"]))
        value = draw(st.one_of(st.sampled_from(_ODD_VALUES), _NUMBERS))
        return _canonical_with(fields, key, value)
    if damage == "duplicate":
        key = draw(st.sampled_from(sorted(fields)))
        value = draw(st.sampled_from(_ODD_VALUES))
        return canonical[:-1] + f", {json.dumps(key)}: {value}}}"
    if damage == "missing":
        key = draw(st.sampled_from(sorted(fields)))
        return json.dumps(
            {k: v for k, v in fields.items() if k != key}, sort_keys=True
        )
    if damage == "truncate":
        return canonical[: draw(st.integers(0, len(canonical)))]
    if damage == "mutate":
        at = draw(st.integers(0, len(canonical) - 1))
        char = draw(st.sampled_from(list('0 9.-"\\{}:,a\x00\x1f\u00e9')))
        return canonical[:at] + char + canonical[at + 1:]
    return RouteDelta(
        op=RouteDelta.OP_ANNOUNCE,
        prefix=Prefix.from_cidr("12.65.128.0/19"),
        origin_asn=draw(st.integers(0, 2**32)),
        source="AADS",
    ).to_json()


class TestCanonicalFastPath:
    """``parse_event`` against the json-only reference it shortcuts."""

    @settings(max_examples=600)
    @given(line=damaged_log_lines())
    def test_equals_the_json_reference_on_every_line(self, line):
        assert _outcome(parse_event, line) == _outcome(
            protocol._decode_json, line
        )

    @pytest.mark.parametrize("key", ["client", "size", "url", "type"])
    def test_equals_the_json_reference_on_odd_values(self, key):
        fields = {"client": "10.1.0.5", "size": 12, "type": "log", "url": "/u"}
        for value in _ODD_VALUES:
            line = _canonical_with(fields, key, value)
            assert _outcome(parse_event, line) == _outcome(
                protocol._decode_json, line
            ), line

    @given(
        client=st.integers(0, 2**32 - 1),
        url=st.text(
            st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                          blacklist_characters='"\\'),
            max_size=40,
        ),
        size=st.integers(0, 2**64),
    )
    def test_canonical_lines_never_reach_json(self, client, url, size):
        def refuse(line):
            raise AssertionError(f"fell back to json: {line!r}")

        event = LogEvent(client, url, size)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(protocol, "_decode_json", refuse)
            assert parse_event(event.to_json()) == event

    @pytest.mark.parametrize("line", HOSTILE_LOG_LINES)
    def test_hostile_lines_fail_alike(self, line):
        decoded = _outcome(parse_event, line)
        assert decoded[0] == "error"
        assert decoded == _outcome(protocol._decode_json, line)


class _ModelSplitter:
    """The line-at-a-time splitter the bulk cutter replaced: the model
    its behaviour is checked against, kept verbatim."""

    def __init__(self, max_line_bytes):
        self.max_line_bytes = max_line_bytes
        self._buffer = bytearray()
        self._discarding = False

    @property
    def pending(self):
        return len(self._buffer)

    def push(self, chunk):
        self._buffer.extend(chunk)

    def next_line(self):
        while True:
            buffer = self._buffer
            newline = buffer.find(b"\n")
            if self._discarding:
                if newline < 0:
                    buffer.clear()
                    return None
                del buffer[: newline + 1]
                self._discarding = False
                continue
            if newline < 0:
                if len(buffer) > self.max_line_bytes:
                    dropped = len(buffer)
                    buffer.clear()
                    self._discarding = True
                    raise ServeLineTooLongError(
                        f"event line exceeds {self.max_line_bytes} bytes "
                        f"({dropped} buffered with no newline in sight) — "
                        "line discarded"
                    )
                return None
            if newline > self.max_line_bytes:
                del buffer[: newline + 1]
                raise ServeLineTooLongError(
                    f"event line of {newline} bytes exceeds the "
                    f"{self.max_line_bytes}-byte budget — line discarded"
                )
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            return line.decode("utf-8", errors="replace")

    def flush(self):
        if self._discarding or not self._buffer:
            self._buffer.clear()
            self._discarding = False
            return None
        line = bytes(self._buffer).decode("utf-8", errors="replace")
        self._buffer.clear()
        return line

    def abandon(self):
        pending = len(self._buffer)
        discarding = self._discarding
        self._buffer.clear()
        self._discarding = False
        if pending or discarding:
            raise ServeDisconnectError(
                f"client vanished mid-frame ({pending} bytes of an "
                "unterminated event line buffered) — partial frame "
                "discarded"
            )


_CHUNKS = st.lists(
    st.sampled_from(
        [b"\n", b"\n\n", b"a", b"line", b"x" * 40, b"\xff", b"\xe2\x82",
         b"\xac", b"\xc3\xa9", b"\xf0\x9f\x98", b"\r\n", b"{}"]
    ),
    max_size=12,
).map(b"".join)

_SPLITTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _CHUNKS),
        st.tuples(st.sampled_from(["next", "next", "next", "flush", "abandon"])),
    ),
    max_size=40,
)


def _step(splitter, op):
    """One operation's outcome, exceptions included, and the pending
    byte count after it."""
    try:
        if op[0] == "push":
            result = splitter.push(op[1])
        elif op[0] == "next":
            result = splitter.next_line()
        elif op[0] == "flush":
            result = splitter.flush()
        else:
            result = splitter.abandon()
    except (ServeLineTooLongError, ServeDisconnectError) as exc:
        result = (type(exc), str(exc))
    return result, splitter.pending


class TestSplitterModel:
    @settings(max_examples=400)
    @given(budget=st.integers(1, 64), ops=_SPLITTER_OPS)
    def test_equals_the_line_at_a_time_model(self, budget, ops):
        splitter, model = LineSplitter(budget), _ModelSplitter(budget)
        for op in ops:
            assert _step(splitter, op) == _step(model, op)
        # Drained to the end, both give the same lines and errors.
        for _ in range(64):
            assert _step(splitter, ("next",)) == _step(model, ("next",))
        assert _step(splitter, ("flush",)) == _step(model, ("flush",))
