"""The serve stream's wire format: one JSON object per line (ndjson).

Three event types flow on one stream, so routing changes are ordered
relative to the requests around them — the property the incremental
reclustering relies on:

``{"type": "log", "client": "12.65.147.9", "url": "/a", "size": 1024}``
    one weblog request; ``client`` is dotted-quad text (or a raw
    integer address), ``size`` defaults to 0 (a 304, like CLF's "-").

``{"type": "announce", "prefix": "12.65.128.0/19", "origin_asn": 7018,
"source": "AADS", "reason": "churn"}``
    a route appeared (or re-appeared, or changed origin).

``{"type": "withdraw", "prefix": "12.65.128.0/19", ...}``
    a route disappeared.

Route events are exactly the JSON form of
:class:`~repro.bgp.synth.RouteDelta`, so ``repro-bgp-synth`` output
pipes straight into ``repro-engine serve`` with no translation.

Malformed lines raise :class:`~repro.errors.ServeProtocolError`; the
daemon counts-and-skips them under its ``--max-errors`` budget, the
same hygiene the batch pipeline applies to malformed CLF lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Union

from repro.bgp.synth import RouteDelta
from repro.errors import (
    ServeDisconnectError,
    ServeLineTooLongError,
    ServeProtocolError,
)
from repro.net.ipv4 import AddressError, format_ipv4, parse_ipv4

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


@dataclass(frozen=True)
class LogEvent:
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
        can hold anything that needs escaping."""
        return '{"client": "%s", "size": %d, "type": "log", "url": %s}' % (
            _client_text(self.client), self.size, json.dumps(self.url),
        )


#: Anything the daemon's :meth:`~repro.serve.daemon.ServeDaemon.feed`
#: accepts: a request or a routing delta.
ServeEvent = Union[LogEvent, RouteDelta]


class LineSplitter:
    """Reassembles ndjson lines from arbitrary byte chunks, bounded.

    Socket reads hand the serve loop whatever the kernel had — half a
    line, three lines and a fragment — so the loop needs stateful
    splitting.  :meth:`push` buffers a chunk; :meth:`next_line` yields
    one complete line at a time (``None`` when more bytes are needed).

    The buffer is bounded by ``max_line_bytes``: a line that exceeds it
    raises :class:`~repro.errors.ServeLineTooLongError` *once*, the
    oversized line's bytes are discarded through its terminating
    newline (whenever that arrives), and splitting continues with the
    next line — one counted error per hostile line, never unbounded
    memory, never a dead connection.
    """

    def __init__(self, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES) -> None:
        if max_line_bytes < 1:
            raise ValueError(
                f"max_line_bytes must be >= 1: {max_line_bytes!r}"
            )
        self.max_line_bytes = max_line_bytes
        self._buffer = bytearray()
        self._discarding = False

    @property
    def pending(self) -> int:
        """Bytes of an incomplete line still buffered — non-zero at
        connection teardown means the peer vanished mid-frame."""
        return len(self._buffer)

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
        while True:
            buffer = self._buffer
            newline = buffer.find(b"\n")
            if self._discarding:
                if newline < 0:
                    # Still inside the oversized line: drop what we have
                    # and keep waiting for its terminator.
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

    def flush(self) -> Optional[str]:
        """The final unterminated line at a *clean* end of stream, or
        ``None`` — files legitimately end without a trailing newline.
        Callers seeing an unclean teardown call :meth:`abandon` instead;
        a partial frame from a vanished peer is an error, not a line."""
        if self._discarding or not self._buffer:
            self._buffer.clear()
            self._discarding = False
            return None
        line = bytes(self._buffer).decode("utf-8", errors="replace")
        self._buffer.clear()
        return line

    def abandon(self) -> None:
        """Tear down after an *unclean* end of stream (reset, timeout,
        injected disconnect).  Always leaves the splitter clean for the
        next connection; raises :class:`~repro.errors.ServeDisconnectError`
        if a partial frame was buffered, so the serve loop can count the
        torn frame under its error budget."""
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


def parse_event(line: str) -> Optional[ServeEvent]:
    """Decode one stream line; blank lines decode to ``None``.

    Raises :class:`ServeProtocolError` for anything that is not a JSON
    object with a known ``type`` and well-formed fields.
    """
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text)
    except ValueError as exc:
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
            client = data["client"]
            address = (
                _client_address(client) if isinstance(client, str)
                else int(client)
            )
            return LogEvent(
                client=address,
                url=str(data.get("url", "")),
                size=int(data.get("size", 0)),
            )
        except (AddressError, KeyError, TypeError, ValueError) as exc:
            raise ServeProtocolError(
                f"bad log event: {text[:80]!r} ({exc})"
            ) from exc
    if kind in (EVENT_ANNOUNCE, EVENT_WITHDRAW):
        try:
            return RouteDelta.from_dict(data)
        except (AddressError, KeyError, TypeError, ValueError) as exc:
            raise ServeProtocolError(
                f"bad route event: {text[:80]!r} ({exc})"
            ) from exc
    raise ServeProtocolError(
        f"unknown event type {kind!r}: {text[:80]!r}"
    )
