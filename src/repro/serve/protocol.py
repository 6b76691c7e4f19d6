"""The serve stream's wire format: one JSON object per line (ndjson).

Three event types flow on one stream, so routing changes are ordered
relative to the requests around them — the property the incremental
reclustering relies on:

``{"type": "log", "client": "12.65.147.9", "url": "/a", "size": 1024}``
    one weblog request; ``client`` is dotted-quad text (or a raw
    integer address in ``[0, 2**32)``), ``url`` a string (default
    ``""``) and ``size`` a non-negative integer (default 0, a 304, like
    CLF's "-").

``{"type": "announce", "prefix": "12.65.128.0/19", "origin_asn": 7018,
"source": "AADS", "reason": "churn"}``
    a route appeared (or re-appeared, or changed origin).

``{"type": "withdraw", "prefix": "12.65.128.0/19", ...}``
    a route disappeared.

Route events are exactly the JSON form of
:class:`~repro.bgp.table.RouteDelta`, so ``repro-bgp-synth`` output
pipes straight into ``repro-engine serve`` with no translation.

Decoding has one fast path and one reference.  Nearly every line of a
stream is a log event exactly as :meth:`LogEvent.to_json` writes it —
``repro-bgp-synth --stream``, the benchmark's stream and every WAL
frame are that text — so :func:`parse_event` first tries one anchored
match of that canonical line (keys sorted, one space after ``:`` and
``,``, ``size`` in JSON integer grammar, a ``url`` with no ``"``,
``\\`` or control character, so its text *is* its value).  Every other
line — route events, other key orders or spacing, escapes, anything
malformed — goes through ``json.loads`` and field checks, which define
the result: the fast path returns exactly what that path returns, and
leaves every error to it.

Malformed lines raise :class:`~repro.errors.ServeProtocolError` and
nothing else; the daemon counts-and-skips them under its
``--max-errors`` budget, the same hygiene the batch pipeline applies
to malformed CLF lines.  A log event's fields are checked, never
coerced: a ``client`` that is a bool, a float or an integer outside
``[0, 2**32)``, a ``size`` that is a bool, a float (``NaN`` and
``Infinity`` included) or negative, and a ``url`` that is not a string
are errors, and so is any other exception raised while decoding an
event (a ``1e400`` that overflows, JSON nested past the recursion
limit).

:class:`LogEvent` is a :class:`~typing.NamedTuple`, so a request is the
very ``(client, url, size)`` triple the cluster store folds — and it
compares equal to a plain tuple of the same three values.
"""

from __future__ import annotations

import json
import re
from collections import deque
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Union

from repro.bgp.table import RouteDelta
from repro.errors import (
    ServeDisconnectError,
    ServeLineTooLongError,
    ServeProtocolError,
)
from repro.net.ipv4 import MAX_ADDRESS, format_ipv4, parse_ipv4

__all__ = [
    "EVENT_LOG",
    "EVENT_ANNOUNCE",
    "EVENT_WITHDRAW",
    "DEFAULT_MAX_LINE_BYTES",
    "LogEvent",
    "ServeEvent",
    "LineSplitter",
    "parse_event",
]

#: Default per-line byte budget for :class:`LineSplitter`.  Generous —
#: real event lines are well under 200 bytes — but finite, so a client
#: that never sends a newline cannot grow daemon memory without bound.
DEFAULT_MAX_LINE_BYTES = 1 << 16

EVENT_LOG = "log"
EVENT_ANNOUNCE = RouteDelta.OP_ANNOUNCE
EVENT_WITHDRAW = RouteDelta.OP_WITHDRAW

#: A stream repeats its clients (a few thousand addresses in hundreds
#: of thousands of requests), so both directions of the address ↔ text
#: conversion are remembered, bounded: :func:`parse_event` reads the
#: text, :meth:`LogEvent.to_json` writes it back for the WAL.
_CLIENT_MEMO = 1 << 16
_client_address = lru_cache(maxsize=_CLIENT_MEMO)(parse_ipv4)
_client_text = lru_cache(maxsize=_CLIENT_MEMO)(format_ipv4)

#: The line :meth:`LogEvent.to_json` writes, as one anchored pattern.
#: ``[0-9]`` rather than ``\d``: JSON digits are ASCII.
_CANONICAL_LOG = re.compile(
    r'\{"client": "([0-9.]+)", "size": (0|[1-9][0-9]*), '
    r'"type": "log", "url": "([^"\\\x00-\x1f]*)"\}'
).fullmatch


class LogEvent(NamedTuple):
    """One weblog request on the stream: the ``(client, url, size)``
    projection the cluster accumulators need."""

    client: int
    url: str = ""
    size: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": EVENT_LOG,
            "client": format_ipv4(self.client),
            "url": self.url,
            "size": self.size,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, formatted
        directly: the WAL pays this once per event, and only ``url``
        can hold anything that needs escaping — json's own C string
        encoder writes it, the bytes ``json.dumps(url)`` gives."""
        client, url, size = self
        return (
            f'{{"client": "{_client_text(client)}", "size": {size:d}, '
            f'"type": "log", "url": {encode_basestring_ascii(url)}}}'
        )


_new_tuple = tuple.__new__

#: Anything the daemon's :meth:`~repro.serve.daemon.ServeDaemon.feed`
#: accepts: a request or a routing delta.
ServeEvent = Union[LogEvent, RouteDelta]


class LineSplitter:
    """Reassembles ndjson lines from arbitrary byte chunks, bounded.

    Socket reads hand the serve loop whatever the kernel had — half a
    line, three lines and a fragment — so the loop needs stateful
    splitting.  :meth:`push` buffers a chunk; :meth:`next_line` yields
    one complete line at a time (``None`` when more bytes are needed).
    Lines are cut in bulk: when none is left to hand out, every
    complete line in the buffer is cut and decoded at once and queued.
    Queued lines still count as buffered for :attr:`pending`,
    :meth:`flush` and :meth:`abandon`.

    The budget is ``max_line_bytes`` per line: a line that exceeds it
    raises :class:`~repro.errors.ServeLineTooLongError` *once*, in its
    turn, the oversized line's bytes are discarded through its
    terminating newline (whenever that arrives), and splitting
    continues with the next line — one counted error per hostile line,
    never unbounded memory, never a dead connection.
    """

    def __init__(self, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES) -> None:
        if max_line_bytes < 1:
            raise ValueError(
                f"max_line_bytes must be >= 1: {max_line_bytes!r}"
            )
        self.max_line_bytes = max_line_bytes
        self._buffer = bytearray()
        self._discarding = False
        #: Lines cut but not handed out yet; ``None`` marks an
        #: oversized line, whose byte count waits in ``_too_long``.
        self._lines: Deque[Optional[str]] = deque()
        self._too_long: Deque[int] = deque()
        #: The bytes the last cut decoded (newlines between lines), so
        #: queued lines can be given back byte for byte.
        self._block = b""

    @property
    def pending(self) -> int:
        """Bytes of lines not yet handed out, still buffered — non-zero
        at connection teardown means the peer vanished mid-frame."""
        return len(self._queued_bytes()) + len(self._buffer)

    def push(self, chunk: bytes) -> None:
        """Buffer one received chunk (never raises; the budget check
        happens in :meth:`next_line`, where the error can be counted)."""
        self._buffer.extend(chunk)

    def next_line(self) -> Optional[str]:
        """The next complete line, newline stripped; ``None`` when the
        buffer holds no complete line yet.

        Raises :class:`ServeLineTooLongError` when the line under
        assembly exceeds the budget — whether its newline has arrived
        or not — after discarding the offending bytes.
        """
        lines = self._lines
        if not lines and not self._cut():
            return None
        line = lines.popleft()
        if line is None:
            raise ServeLineTooLongError(
                f"event line of {self._too_long.popleft()} bytes exceeds "
                f"the {self.max_line_bytes}-byte budget — line discarded"
            )
        return line

    def _cut(self) -> bool:
        """Queue every complete line in the buffer: one ``rfind``, one
        decode, one split.  False when there is no complete line; an
        unterminated tail over the budget is dropped and raises."""
        buffer = self._buffer
        if self._discarding:
            newline = buffer.find(b"\n")
            if newline < 0:
                # Still inside the oversized line: drop what we have
                # and keep waiting for its terminator.
                buffer.clear()
                return False
            del buffer[: newline + 1]
            self._discarding = False
        end = buffer.rfind(b"\n")
        budget = self.max_line_bytes
        if end < 0:
            if len(buffer) > budget:
                dropped = len(buffer)
                buffer.clear()
                self._discarding = True
                raise ServeLineTooLongError(
                    f"event line exceeds {budget} bytes "
                    f"({dropped} buffered with no newline in sight) — "
                    "line discarded"
                )
            return False
        block = bytes(buffer[:end])
        del buffer[: end + 1]
        self._block = block
        # UTF-8 never uses the newline byte inside a sequence, so one
        # decode of the block splits into what decoding line by line
        # would give.
        lines: List[Optional[str]] = list(
            block.decode("utf-8", errors="replace").split("\n")
        )
        if end > budget:
            # Only a block longer than the budget can hold an oversized
            # line; it keeps its place in the queue as a marker.
            pieces = block.split(b"\n")
            if max(map(len, pieces)) > budget:
                for index, piece in enumerate(pieces):
                    if len(piece) > budget:
                        lines[index] = None
                        self._too_long.append(len(piece))
        self._lines.extend(lines)
        return True

    def _queued_bytes(self) -> bytes:
        """The bytes of the queued lines, each with its newline."""
        count = len(self._lines)
        if not count:
            return b""
        return b"\n".join(self._block.split(b"\n")[-count:]) + b"\n"

    def _reset(self) -> None:
        self._buffer.clear()
        self._lines.clear()
        self._too_long.clear()
        self._block = b""
        self._discarding = False

    def flush(self) -> Optional[str]:
        """Everything still buffered as one final line at a *clean* end
        of stream, or ``None`` — files legitimately end without a
        trailing newline.  Callers seeing an unclean teardown call
        :meth:`abandon` instead; a partial frame from a vanished peer is
        an error, not a line."""
        rest = self._queued_bytes() + self._buffer
        discarding = self._discarding
        self._reset()
        if discarding or not rest:
            return None
        return rest.decode("utf-8", errors="replace")

    def abandon(self) -> None:
        """Tear down after an *unclean* end of stream (reset, timeout,
        injected disconnect).  Always leaves the splitter clean for the
        next connection; raises :class:`~repro.errors.ServeDisconnectError`
        if a partial frame was buffered, so the serve loop can count the
        torn frame under its error budget."""
        pending = self.pending
        discarding = self._discarding
        self._reset()
        if pending or discarding:
            raise ServeDisconnectError(
                f"client vanished mid-frame ({pending} bytes of an "
                "unterminated event line buffered) — partial frame "
                "discarded"
            )


def parse_event(line: str) -> Optional[ServeEvent]:
    """Decode one stream line; blank lines decode to ``None``.

    Raises :class:`ServeProtocolError` for anything that is not a JSON
    object with a known ``type`` and well-formed fields.  A canonical
    log line takes one anchored match; everything else, errors
    included, is :func:`_decode_json`'s.
    """
    match = _CANONICAL_LOG(line)
    if match is not None:
        client, size, url = match.groups()
        try:
            # ``tuple.__new__`` skips the NamedTuple's Python-level
            # ``__new__``; the three fields are all there is to it.
            fields = (_client_address(client), url, int(size))
            return _new_tuple(LogEvent, fields)
        except ValueError:
            pass  # a bad address or an oversized int: the reference raises
    return _decode_json(line)


def _decode_json(line: str) -> Optional[ServeEvent]:
    """The reference decoder: ``json.loads`` plus field checks."""
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ServeProtocolError(
            f"event line is not JSON: {text[:80]!r} ({exc})"
        ) from exc
    if not isinstance(data, dict):
        raise ServeProtocolError(
            f"event must be a JSON object, got {type(data).__name__}: "
            f"{text[:80]!r}"
        )
    kind = data.get("type")
    if kind == EVENT_LOG:
        try:
            return _log_event(data)
        except Exception as exc:
            raise ServeProtocolError(
                f"bad log event: {text[:80]!r} ({exc})"
            ) from exc
    if kind in (EVENT_ANNOUNCE, EVENT_WITHDRAW):
        try:
            return RouteDelta.from_dict(data)
        except Exception as exc:
            raise ServeProtocolError(
                f"bad route event: {text[:80]!r} ({exc})"
            ) from exc
    raise ServeProtocolError(
        f"unknown event type {kind!r}: {text[:80]!r}"
    )


def _log_event(data: Dict[str, Any]) -> LogEvent:
    """A decoded ``log`` object's fields, checked and never coerced."""
    client = data["client"]
    # ``type(...) is int`` keeps bools (an int subclass) out.
    if isinstance(client, str):
        address = _client_address(client)
    elif type(client) is int and 0 <= client <= MAX_ADDRESS:
        address = client
    else:
        raise ValueError(
            f"client must be a dotted quad or an integer in [0, 2**32): "
            f"{client!r}"
        )
    url = data.get("url", "")
    if not isinstance(url, str):
        raise ValueError(f"url must be a string: {url!r}")
    size = data.get("size", 0)
    if type(size) is not int or size < 0:
        raise ValueError(f"size must be a non-negative integer: {size!r}")
    return LogEvent(address, url, size)
