"""Route aggregation.

CIDR route aggregation (paper §2, footnote 2) shrinks a routing table by
replacing adjacent blocks that share a routing decision with their
common supernet.  The BGP snapshot synthesiser uses this to model
vantage points whose view of the network is coarser than the true
allocation — exactly the phenomenon the paper identifies as the main
source of too-large clusters.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Tuple, TypeVar

from repro.net.prefix import Prefix

__all__ = ["aggregate_prefixes", "aggregate_routes"]

V = TypeVar("V")


def aggregate_prefixes(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Aggregate ``prefixes`` maximally, ignoring route attributes.

    Sibling blocks merge into their parent; the merge cascades until no
    two siblings remain.  Blocks already covered by a shorter surviving
    block are dropped.  The result is the minimal prefix set covering
    exactly the same address space, in address order.
    """
    return [p for p, _ in aggregate_routes((p, None) for p in prefixes)]


def aggregate_routes(
    routes: Iterable[Tuple[Prefix, V]],
    key: Callable[[V], Hashable] = lambda value: value,
) -> List[Tuple[Prefix, V]]:
    """Aggregate ``(prefix, value)`` routes whose ``key(value)`` agrees.

    Mirrors BGP aggregation: two sibling prefixes combine only when they
    carry the same routing decision (same next hop / AS path, as
    projected by ``key``).  When duplicates of a prefix appear, the last
    value wins.  Covered prefixes with the same key as their cover are
    dropped; covered prefixes with a different key survive (they are
    more-specific exceptions, as in real tables).
    """
    by_prefix: Dict[Prefix, V] = {}
    for prefix, value in routes:
        by_prefix[prefix] = value

    # Repeatedly merge sibling pairs with equal keys, longest first so
    # merges cascade upward in one pass per length.
    changed = True
    while changed:
        changed = False
        for prefix in sorted(by_prefix, key=lambda p: -p.length):
            if prefix not in by_prefix or prefix.length == 0:
                continue
            sibling = prefix.sibling()
            if sibling is None or sibling not in by_prefix:
                continue
            if key(by_prefix[prefix]) != key(by_prefix[sibling]):
                continue
            parent = prefix.parent()
            value = by_prefix[prefix]
            del by_prefix[prefix]
            del by_prefix[sibling]
            # A pre-existing parent entry keeps its own value.
            by_prefix.setdefault(parent, value)
            changed = True

    return _drop_redundant_covered(by_prefix, key)


def _drop_redundant_covered(
    by_prefix: Dict[Prefix, V], key: Callable[[V], Hashable]
) -> List[Tuple[Prefix, V]]:
    """Drop entries covered by a shorter entry with the same key."""
    ordered = sorted(by_prefix.items(), key=lambda kv: kv[0].sort_key())
    kept: List[Tuple[Prefix, V]] = []
    cover_stack: List[Tuple[Prefix, V]] = []
    for prefix, value in ordered:
        while cover_stack and not cover_stack[-1][0].contains_prefix(prefix):
            cover_stack.pop()
        if cover_stack and key(cover_stack[-1][1]) == key(value):
            continue
        kept.append((prefix, value))
        cover_stack.append((prefix, value))
    return kept
