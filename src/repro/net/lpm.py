"""Independent longest-prefix-match oracles.

The production lookup table is the engine's
:class:`~repro.engine.fastpath.StrideLpm`; the radix trie in
:mod:`repro.net.radix` is the paper's baseline matcher.  The two
matchers here share no code with either and exist to check them, and as
ablation baselines for the LPM benchmark (see
``benchmarks/test_bench_lpm.py``):

* :class:`LinearLpm` — scan every entry, keep the longest match.  O(n)
  per lookup; trivially correct, used to cross-check the trie in
  property-based tests.
* :class:`SortedLpm` — one hash table per prefix length, probed from
  /32 downward.  This is the classic "binary-search-free" software LPM;
  O(32) dictionary probes per lookup regardless of table size.

Both offer ``insert``, ``delete``, ``longest_match`` (``Optional[(Prefix,
value)]``), ``items`` (in ``Prefix.sort_key`` order) and ``len``.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.ipv4 import mask_bits
from repro.net.prefix import Prefix

__all__ = ["LinearLpm", "SortedLpm"]

V = TypeVar("V")


class LinearLpm(Generic[V]):
    """Brute-force matcher: linear scan over all entries."""

    def __init__(self) -> None:
        self._entries: Dict[Prefix, V] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, prefix: Prefix, value: V) -> None:
        self._entries[prefix] = value

    def delete(self, prefix: Prefix) -> bool:
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


class SortedLpm(Generic[V]):
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

    def delete(self, prefix: Prefix) -> bool:
        bucket = self._by_length.get(prefix.length)
        if bucket is None or prefix.network not in bucket:
            return False
        del bucket[prefix.network]
        self._size -= 1
        if not bucket:
            del self._by_length[prefix.length]
            self._lengths_desc = sorted(self._by_length, reverse=True)
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


_MISSING = object()
