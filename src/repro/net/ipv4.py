"""IPv4 address primitives.

The paper's pipeline manipulates millions of IPv4 addresses (clients
extracted from server logs, prefixes extracted from routing tables), so
this module represents addresses as plain Python ``int`` values in
``[0, 2**32)`` and provides conversion helpers.  Keeping addresses as
integers makes longest-prefix matching, masking, and sorting cheap and
allocation-free compared to wrapping each address in an object.

All functions validate their inputs and raise :class:`AddressError` on
malformed data — server logs in the wild contain garbage client fields
and routing-table dumps contain truncated lines, and the pipeline needs
to reject those records loudly rather than mis-cluster them.
"""

from __future__ import annotations

__all__ = [
    "AddressError",
    "MAX_ADDRESS",
    "parse_ipv4",
    "format_ipv4",
    "netmask_to_length",
    "length_to_netmask",
    "mask_bits",
    "classful_prefix_length",
    "address_class",
    "first_octet",
]

#: Largest representable IPv4 address (255.255.255.255) as an integer.
MAX_ADDRESS = (1 << 32) - 1

# Precomputed masks: _MASKS[l] has the top ``l`` bits set.
_MASKS = tuple(((1 << 32) - 1) ^ ((1 << (32 - length)) - 1) for length in range(33))

# Reverse map from netmask integer to prefix length, for contiguous masks.
_MASK_TO_LENGTH = {mask: length for length, mask in enumerate(_MASKS)}

#: The canonical spelling of every octet value — exactly the ASCII
#: octets the strict parser accepts — so a well-formed quad costs four
#: dict probes.
_OCTETS = {str(octet): octet for octet in range(256)}


class AddressError(ValueError):
    """Raised when an IPv4 address, netmask, or prefix is malformed."""


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer address.

    Strict parser: exactly four decimal octets in ``[0, 255]`` separated
    by dots, with no leading/trailing whitespace and no leading zeros
    longer than the value requires (``012`` is rejected; some log
    processors interpret such octets as octal, which silently corrupts
    client identities).

    >>> parse_ipv4("12.65.147.94")
    205558622
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"expected 4 octets in IPv4 address: {text!r}")
    try:
        return (
            (_OCTETS[parts[0]] << 24) | (_OCTETS[parts[1]] << 16)
            | (_OCTETS[parts[2]] << 8) | _OCTETS[parts[3]]
        )
    except KeyError:
        pass  # not four canonical octets: the checks below say which
    value = 0
    for part in parts:
        if not part or not part.isdigit():
            raise AddressError(f"non-numeric octet in IPv4 address: {text!r}")
        if len(part) > 1 and part[0] == "0":
            raise AddressError(f"leading zero in IPv4 octet: {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(address: int) -> str:
    """Render integer ``address`` as a dotted quad.

    >>> format_ipv4(205558622)
    '12.65.147.94'
    """
    if not 0 <= address <= MAX_ADDRESS:
        raise AddressError(f"address out of range: {address!r}")
    return "%d.%d.%d.%d" % (
        address >> 24, (address >> 16) & 0xFF, (address >> 8) & 0xFF,
        address & 0xFF,
    )


def mask_bits(length: int) -> int:
    """Return the integer netmask with the top ``length`` bits set.

    >>> format_ipv4(mask_bits(19))
    '255.255.224.0'
    """
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length!r}")
    return _MASKS[length]


def length_to_netmask(length: int) -> str:
    """Render prefix ``length`` as a dotted-quad netmask string."""
    return format_ipv4(mask_bits(length))


def netmask_to_length(netmask: str) -> int:
    """Parse a dotted-quad ``netmask`` into a prefix length.

    Only contiguous (CIDR-legal) masks are accepted; a mask like
    ``255.0.255.0`` raises :class:`AddressError` because no prefix
    length reproduces it.

    >>> netmask_to_length("255.255.224.0")
    19
    """
    value = parse_ipv4(netmask)
    try:
        return _MASK_TO_LENGTH[value]
    except KeyError:
        raise AddressError(f"non-contiguous netmask: {netmask!r}") from None


def first_octet(address: int) -> int:
    """Return the high octet of ``address`` (drives classful logic)."""
    if not 0 <= address <= MAX_ADDRESS:
        raise AddressError(f"address out of range: {address!r}")
    return (address >> 24) & 0xFF


def address_class(address: int) -> str:
    """Return the historical address class of ``address``.

    One of ``"A"`` (0.x–127.x), ``"B"`` (128.x–191.x), ``"C"``
    (192.x–223.x), ``"D"`` (multicast), or ``"E"`` (reserved).  The
    paper's classful baseline (§2) groups clients by these boundaries.
    """
    octet = first_octet(address)
    if octet < 128:
        return "A"
    if octet < 192:
        return "B"
    if octet < 224:
        return "C"
    if octet < 240:
        return "D"
    return "E"


def classful_prefix_length(address: int) -> int:
    """Return the classful network prefix length for ``address``.

    8 for Class A, 16 for Class B, 24 for Class C.  Class D/E addresses
    have no classful network; they raise :class:`AddressError` (they
    never appear as unicast web clients).
    """
    cls = address_class(address)
    if cls == "A":
        return 8
    if cls == "B":
        return 16
    if cls == "C":
        return 24
    raise AddressError(
        f"no classful network for class-{cls} address {format_ipv4(address)}"
    )
