"""Prefix/netmask textual formats and unification (§3.1.2).

Routing-table dumps circa 1999 spelled network entries in three ways:

(i)   ``x1.x2.x3.x4/k1.k2.k3.k4`` — prefix and dotted netmask, with
      trailing zero octets dropped from both (``151.198/255.255``);
(ii)  ``x1.x2.x3.x4/l`` — prefix and mask length (``12.65.128.0/19``);
(iii) ``x1.x2.x3.0`` — bare classful network; the mask is implied by
      the address class (8, 16, or 24 bits).

The paper unifies everything into format (i).  This module parses all
three, renders format (i), and guesses the format of a line so mixed
dumps can be ingested.

Real snapshots are dirty — headers, truncated lines, router chatter —
and the paper's collection scripts tolerated them (§3.1.1).
:func:`iter_dump_routes` is the streaming reader with the same
count-and-skip contract as ``weblog.parser.iter_clf_entries``: bad
lines are tallied in a :class:`DumpReport` instead of aborting the
load, ``max_errors`` guards against files that are not dumps at all,
and ``strict=True`` restores raise-on-first-error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.net.ipv4 import (
    AddressError,
    classful_prefix_length,
    netmask_to_length,
    parse_ipv4,
)
from repro.net.prefix import Prefix

__all__ = [
    "FORMAT_DOTTED_NETMASK",
    "FORMAT_MASK_LENGTH",
    "FORMAT_CLASSFUL",
    "parse_entry",
    "render_entry",
    "detect_format",
    "pad_dropped_zeroes",
    "DumpReport",
    "DumpLimitError",
    "iter_dump_routes",
]

FORMAT_DOTTED_NETMASK = "dotted_netmask"  # format (i)
FORMAT_MASK_LENGTH = "mask_length"        # format (ii)
FORMAT_CLASSFUL = "classful"              # format (iii)

_ALL_FORMATS = (FORMAT_DOTTED_NETMASK, FORMAT_MASK_LENGTH, FORMAT_CLASSFUL)


def pad_dropped_zeroes(text: str) -> str:
    """Restore trailing zero octets dropped from a dotted quad.

    >>> pad_dropped_zeroes("151.198")
    '151.198.0.0'
    """
    stripped = text.strip()
    if not stripped:
        raise AddressError("empty address field")
    count = stripped.count(".") + 1
    if count > 4:
        raise AddressError(f"too many octets: {text!r}")
    return stripped + ".0" * (4 - count)


def detect_format(entry: str) -> str:
    """Guess which of the three formats ``entry`` uses.

    A slash whose right side contains a dot is format (i); a slash with
    a bare integer is format (ii); no slash is format (iii).
    """
    entry = entry.strip()
    left, sep, right = entry.partition("/")
    if not sep:
        return FORMAT_CLASSFUL
    if "." in right:
        return FORMAT_DOTTED_NETMASK
    return FORMAT_MASK_LENGTH


def parse_entry(entry: str, fmt: Optional[str] = None) -> Prefix:
    """Parse one prefix entry in any of the three formats.

    ``fmt`` forces a specific format; by default it is detected.  The
    result is a canonical :class:`Prefix` (format unification).
    """
    entry = entry.strip()
    fmt = fmt or detect_format(entry)
    if fmt not in _ALL_FORMATS:
        raise AddressError(f"unknown prefix format: {fmt!r}")

    if fmt == FORMAT_CLASSFUL:
        address = parse_ipv4(pad_dropped_zeroes(entry))
        return Prefix(address, classful_prefix_length(address))

    left, sep, right = entry.partition("/")
    if not sep:
        raise AddressError(f"expected '/' in {fmt} entry: {entry!r}")
    address = parse_ipv4(pad_dropped_zeroes(left))

    if fmt == FORMAT_MASK_LENGTH:
        if not right.isdigit():
            raise AddressError(f"non-numeric mask length: {entry!r}")
        return Prefix(address, int(right))

    netmask = pad_dropped_zeroes(right)
    return Prefix(address, netmask_to_length(netmask))


def render_entry(prefix: Prefix, fmt: str = FORMAT_DOTTED_NETMASK) -> str:
    """Render ``prefix`` in the requested textual format.

    Format (i) is the paper's chosen standard; format (iii) refuses
    prefixes whose length does not match their address class (they have
    no classful spelling).
    """
    if fmt == FORMAT_DOTTED_NETMASK:
        return prefix.with_netmask
    if fmt == FORMAT_MASK_LENGTH:
        return prefix.cidr
    if fmt == FORMAT_CLASSFUL:
        if prefix.length != classful_prefix_length(prefix.network):
            raise AddressError(
                f"{prefix} is not a classful network; cannot render bare"
            )
        from repro.net.ipv4 import format_ipv4

        return format_ipv4(prefix.network)
    raise AddressError(f"unknown prefix format: {fmt!r}")


# -- streaming dump reading -----------------------------------------------


class DumpLimitError(ValueError):
    """Raised when malformed dump lines exceed a reader's ``max_errors``."""


@dataclass
class DumpReport:
    """Counts from one dump-reading pass (routing-data hygiene).

    ``skipped`` covers blank lines and ``#`` comments — expected
    structure, not damage; only ``malformed`` lines count against a
    ``max_errors`` budget.
    """

    total_lines: int = 0
    parsed: int = 0
    malformed: int = 0
    skipped: int = 0


def iter_dump_routes(
    lines: Iterable[str],
    report: Optional[DumpReport] = None,
    max_errors: Optional[int] = None,
    strict: bool = False,
) -> Iterator[Tuple[Prefix, List[str]]]:
    """Stream ``(prefix, fields)`` pairs out of routing-dump ``lines``.

    ``fields`` is the whitespace/tab-split line with the prefix text in
    ``fields[0]`` — callers pull next hop and AS path from the rest.
    Malformed lines (unparseable prefix in any of the three formats)
    are counted-and-skipped in ``report``; when more than ``max_errors``
    of them accumulate the stream raises :class:`DumpLimitError`
    (``max_errors=0`` means one bad line is fatal, ``None`` — the
    default — never trips).  ``strict=True`` re-raises the first
    parse error verbatim, the historical loader behaviour.
    """
    report = report if report is not None else DumpReport()
    for raw in lines:
        report.total_lines += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            report.skipped += 1
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        try:
            prefix = parse_entry(fields[0])
        except (AddressError, ValueError) as exc:
            if strict:
                raise
            report.malformed += 1
            if max_errors is not None and report.malformed > max_errors:
                raise DumpLimitError(
                    f"{report.malformed} malformed dump lines exceed the "
                    f"max_errors={max_errors} guard "
                    f"(line {report.total_lines}: {line[:80]!r})"
                ) from exc
            continue
        report.parsed += 1
        yield prefix, fields
