"""Unit tests for the serve ndjson wire format."""

import json

import pytest
from hypothesis import given
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
from repro.serve.protocol import LineSplitter, LogEvent, parse_event


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
        ],
    )
    def test_malformed_lines_raise_protocol_error(self, line):
        with pytest.raises(ServeProtocolError):
            parse_event(line)

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
