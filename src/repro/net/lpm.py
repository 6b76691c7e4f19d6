"""Alternative longest-prefix-match engines.

The production lookup tables are the engine's
:class:`~repro.engine.fastpath.StrideLpm` and
:class:`~repro.engine.packed.PackedLpm`; the radix trie in
:mod:`repro.net.radix` is the paper's baseline matcher.  The engines
here exist as correctness oracles and as ablation baselines for the
LPM benchmark (see ``benchmarks/test_bench_lpm.py``):

* :class:`LinearLpm` — scan every entry, keep the longest match.  O(n)
  per lookup; trivially correct, used to cross-check the trie in
  property-based tests.
* :class:`SortedLpm` — one hash table per prefix length, probed from
  /32 downward.  This is the classic "binary-search-free" software LPM;
  O(32) dictionary probes per lookup regardless of table size.
"""

from __future__ import annotations

import hashlib
from typing import (
    Any,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.net.ipv4 import mask_bits
from repro.net.prefix import Prefix

__all__ = ["LinearLpm", "SortedLpm", "LpmEngine", "build_engine"]

V = TypeVar("V")


class LpmEngine(Generic[V]):
    """Interface shared by all LPM engines (duck-typed, documented here).

    Engines provide ``insert(prefix, value)``, ``longest_match(address)``
    returning ``Optional[(Prefix, value)]``, ``__len__``, and ``items()``.

    Mutable engines additionally expose the streaming engine's batch
    LookupTable surface through :class:`_IndexedBatchMixin` —
    ``lookup_many`` (entry indices), ``prefix(i)`` / ``value(i)``,
    ``lookup``, ``match_index``, and ``digest`` — so a
    :func:`build_engine` result of any kind drops into
    :class:`~repro.engine.state.ClusterStore` and
    :class:`~repro.engine.shard.ShardedClusterEngine` unchanged.
    """

    def insert(self, prefix: Prefix, value: V) -> None:
        raise NotImplementedError

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        raise NotImplementedError


class _IndexedBatchMixin:
    """The packed-table batch API on top of a mutable LPM engine.

    Entry indices refer to a lazily built, ``sort_key``-ordered
    snapshot of the entry set — the same index space
    :meth:`PackedLpm.from_items` compiles from identical entries, so
    indices, ``prefix(i)`` and ``value(i)`` agree across every engine
    kind.  Mutation (``insert`` / ``delete``) invalidates the
    snapshot; these engines are correctness oracles, so the rebuild
    cost is irrelevant next to API parity.
    """

    #: Lazily built (prefixes, values, prefix→index) snapshot; host
    #: classes call :meth:`_invalidate_index` on mutation.
    _indexed: Optional[Tuple[Tuple[Prefix, ...], Tuple[Any, ...], Dict[Prefix, int]]] = None

    # Provided by the host engine class (duck-typed mixin contract).
    def items(self) -> Iterator[Tuple[Prefix, Any]]:
        raise NotImplementedError

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        raise NotImplementedError

    def _indexed_snapshot(
        self,
    ) -> Tuple[Tuple[Prefix, ...], Tuple[Any, ...], Dict[Prefix, int]]:
        cache = getattr(self, "_indexed", None)
        if cache is None:
            pairs = list(self.items())
            cache = self._indexed = (
                tuple(prefix for prefix, _ in pairs),
                tuple(value for _, value in pairs),
                {prefix: i for i, (prefix, _) in enumerate(pairs)},
            )
        return cache

    def _invalidate_index(self) -> None:
        self._indexed = None

    def prefix(self, index: int) -> Prefix:
        """The prefix of entry ``index`` (as returned by lookups)."""
        return self._indexed_snapshot()[0][index]

    def value(self, index: int) -> Any:
        """The value of entry ``index`` (as returned by lookups)."""
        return self._indexed_snapshot()[1][index]

    def match_index(self, address: int) -> int:
        """Entry index of the longest matching prefix, or -1 on miss."""
        match = self.longest_match(address)
        if match is None:
            return -1
        return self._indexed_snapshot()[2][match[0]]

    def lookup_many(self, addresses: Iterable[int]) -> List[int]:
        """Batch lookup: entry index per address (-1 on miss)."""
        match_index = self.match_index
        return [match_index(address) for address in addresses]

    def lookup(self, address: int) -> Any:
        """Return the matched entry's value, or None on miss."""
        match = self.longest_match(address)
        if match is None:
            return None
        return match[1]

    def digest(self) -> str:
        """Stable prefix-set fingerprint (same algorithm and value as
        :meth:`PackedLpm.digest` over the same entries)."""
        hasher = hashlib.sha256()
        for prefix in self._indexed_snapshot()[0]:
            hasher.update(prefix.network.to_bytes(4, "big"))
            hasher.update(bytes((prefix.length,)))
        return hasher.hexdigest()


class LinearLpm(_IndexedBatchMixin, LpmEngine[V]):
    """Brute-force matcher: linear scan over all entries."""

    def __init__(self) -> None:
        self._entries: Dict[Prefix, V] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, prefix: Prefix, value: V) -> None:
        self._entries[prefix] = value
        self._invalidate_index()

    def delete(self, prefix: Prefix) -> bool:
        self._invalidate_index()
        return self._entries.pop(prefix, _MISSING) is not _MISSING

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        best: Optional[Prefix] = None
        for prefix in self._entries:
            if prefix.contains_address(address):
                if best is None or prefix.length > best.length:
                    best = prefix
        if best is None:
            return None
        return best, self._entries[best]

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        return iter(sorted(self._entries.items(), key=lambda kv: kv[0].sort_key()))


class SortedLpm(_IndexedBatchMixin, LpmEngine[V]):
    """Per-length hash tables probed from most to least specific.

    Lookup masks the address at each populated length, longest first,
    and returns on the first hit — mirroring how several software
    routers implement LPM without a trie.
    """

    def __init__(self) -> None:
        self._by_length: Dict[int, Dict[int, V]] = {}
        self._lengths_desc: List[int] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._lengths_desc = sorted(self._by_length, reverse=True)
        if prefix.network not in bucket:
            self._size += 1
        bucket[prefix.network] = value
        self._invalidate_index()

    def delete(self, prefix: Prefix) -> bool:
        bucket = self._by_length.get(prefix.length)
        if bucket is None or prefix.network not in bucket:
            return False
        del bucket[prefix.network]
        self._size -= 1
        if not bucket:
            del self._by_length[prefix.length]
            self._lengths_desc = sorted(self._by_length, reverse=True)
        self._invalidate_index()
        return True

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        for length in self._lengths_desc:
            network = address & mask_bits(length)
            bucket = self._by_length[length]
            if network in bucket:
                return Prefix(network, length), bucket[network]
        return None

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        pairs = [
            (Prefix(network, length), value)
            for length, bucket in self._by_length.items()
            for network, value in bucket.items()
        ]
        return iter(sorted(pairs, key=lambda kv: kv[0].sort_key()))


def build_engine(kind: str, entries: Iterable[Tuple[Prefix, V]]) -> Any:
    """Construct an LPM structure of ``kind`` over ``entries``.

    Mutable kinds — ``"radix"``, ``"linear"``, ``"sorted"`` — insert
    entry by entry; the immutable engine tables — ``"packed"``,
    ``"stride"`` — compile the whole set at once
    (:mod:`repro.engine.packed` / :mod:`repro.engine.fastpath`).
    Every kind answers ``longest_match`` identically and carries the
    streaming engine's batch LookupTable surface, so results are
    interchangeable everywhere a table is duck-typed.
    """
    if kind in ("packed", "stride"):
        # Imported lazily: repro.engine depends on repro.net, not
        # vice versa, and the oracles must not drag the engine in.
        if kind == "packed":
            from repro.engine.packed import PackedLpm as table_cls
        else:
            from repro.engine.fastpath import StrideLpm as table_cls
        return table_cls.from_items(entries)
    from repro.net.radix import RadixTree

    engines = {"radix": RadixTree, "linear": LinearLpm, "sorted": SortedLpm}
    try:
        engine: LpmEngine[V] = engines[kind]()
    except KeyError:
        raise ValueError(f"unknown LPM engine kind: {kind!r}") from None
    for prefix, value in entries:
        engine.insert(prefix, value)
    return engine


_MISSING = object()
