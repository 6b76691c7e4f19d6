"""Array-packed longest-prefix-match table, compiled once and patched
in place.

The radix trie (:class:`repro.net.radix.RadixTree`) is the right
structure for a table that changes entry by entry; the clustering
engine's table changes rarely (snapshot swaps, live BGP deltas), so it
can be *compiled*: the prefix set is flattened into the disjoint
address intervals it induces (nested prefixes project onto their
most-specific covering entry), and a lookup becomes one binary search
over a flat integer array instead of a pointer-chasing trie walk.

Route churn is applied *in place* with :meth:`PackedLpm.apply_delta`:
a batch of announcements/withdrawals splices the interval layout only
inside the affected address windows and rewrites nothing outside
them, so a patch costs what the delta touches, not what the table
holds.  Each successful patch bumps an epoch counter, and the returned
:class:`PatchResult` carries the windows downstream caches
(:class:`~repro.engine.fastpath.MemoizedLookup`, cluster assignments)
use for selective invalidation.

Layout — parallel, flat sequences:

* ``_starts`` — ``array('Q')`` of interval start addresses, ascending;
  interval *i* covers ``[_starts[i], _starts[i+1])``.
* ``_owners`` — ``array('q')`` mapping interval *i* to the *handle* of
  its most-specific covering entry, or ``-1`` for uncovered gaps.
* ``_prefixes`` / ``_values`` — the entry columns, indexed by handle:
  each entry's :class:`~repro.net.prefix.Prefix` and attached value.

A handle is a table-local, stable name for one entry: it is what
lookups return and what ``prefix()`` / ``value()`` take, and a patch
never renumbers a surviving entry.  A compiled table numbers its
entries densely in routing-table order (handle == sorted rank); a
patched one appends announced entries (or reuses a withdrawn entry's
freed handle), tombstones withdrawn ones with ``None``, and keeps the
sorted order on the side.  Handles of two table objects are therefore
not comparable — resolve them to prefixes first.  Renumbered to the
canonical dense form, a patched table's columns equal a from-scratch
compile of the same routes (:meth:`PackedLpm.verify_patched` enforces
the equivalence).

Batch lookups (:meth:`lookup_many`) do one ``bisect`` call — C code —
per address, which is what lets the engine outrun the per-entry trie
loop.  :class:`~repro.engine.fastpath.StrideLpm`, the table the CLIs
compile, indexes these intervals; this layout is its base and the
sanitizer's bisect reference.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.errors import SanitizeError
from repro.net.ipv4 import MAX_ADDRESS
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.bgp.table import MergedPrefixTable

#: The interval layout and entry columns in the canonical dense
#: numbering: what a from-scratch compile of the same routes holds.
_PackedColumns = Tuple[
    "array[int]", "array[int]", Tuple[Prefix, ...], Tuple[Any, ...]
]

#: The sorted view of a patched table: the live entries' order keys,
#: ascending, and their handles in the same order.
_SortedView = Tuple["array[int]", "array[int]"]

#: The two prefix fields :meth:`PackedLpm.digest` hashes.
_NETWORK = attrgetter("network")
_LENGTH = attrgetter("length")

__all__ = ["PackedLpm", "PatchResult", "merge_windows"]


@dataclass(frozen=True)
class PatchResult:
    """Outcome of one :meth:`PackedLpm.apply_delta` batch.

    ``windows`` are the merged, sorted, inclusive address ranges whose
    longest-match answer *may* have changed — the selective-invalidation
    contract for :class:`~repro.engine.fastpath.MemoizedLookup` and
    :meth:`~repro.engine.state.ClusterStore.reassign_clients`: any
    address outside every window resolves to the same entry handle, and
    so the same prefix, as before.  No windows means no structural
    change happened (value-only updates, noop withdrawals).
    """

    epoch: int
    announced: int
    withdrawn: int
    value_updates: int
    noop_withdrawals: int
    windows: Tuple[Tuple[int, int], ...]

    @property
    def structural(self) -> bool:
        """True when entries were inserted or withdrawn."""
        return bool(self.windows)


def merge_windows(
    spans: Iterable[Tuple[int, int]]
) -> Tuple[Tuple[int, int], ...]:
    """Merge inclusive address ranges into sorted disjoint windows.

    Adjacent ranges coalesce too (``[a, b] + [b+1, c] -> [a, c]``), so
    the result is the minimal window set for a given delta batch.
    """
    merged: List[Tuple[int, int]] = []
    for low, high in sorted(spans):
        if merged and low <= merged[-1][1] + 1:
            if high > merged[-1][1]:
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return tuple(merged)


def _order_key(network: int, length: int) -> int:
    """``Prefix.sort_key`` order as one int, so the sorted view is a
    flat array that ``bisect`` searches without calling into Python."""
    return (network << 6) | length


class PackedLpm:
    """LPM table over disjoint address intervals.

    Build with :meth:`from_items` or :meth:`from_merged`; the
    constructor itself takes an already
    deduplicated, ``sort_key``-ordered entry list.  Lookups return
    entry handles (see the module docstring); :meth:`apply_delta`
    patches the routes in place.
    """

    __slots__ = (
        "_starts", "_owners", "_prefixes", "_values", "_epoch",
        "_deltas_applied", "_sorted", "_free",
    )

    def __init__(self, entries: Sequence[Tuple[Prefix, Any]]) -> None:
        self._epoch = 0
        self._deltas_applied = 0
        prefixes = tuple(p for p, _ in entries)
        #: The entry columns: dense sorted tuples as compiled; lists
        #: with ``None`` tombstones once patched.
        self._prefixes: Sequence[Optional[Prefix]] = prefixes
        self._values: Sequence[Any] = tuple(v for _, v in entries)
        #: None while handles are the dense sorted ranks (never patched).
        self._sorted: Optional[_SortedView] = None
        #: Handles of withdrawn entries, reused by later announces.
        self._free: List[int] = []
        starts = array("Q", [0])
        owners = array("q", [-1])

        def push(addr: int, owner: int) -> None:
            if starts[-1] == addr:
                owners[-1] = owner
                if len(owners) >= 2 and owners[-2] == owner:
                    starts.pop()
                    owners.pop()
            elif owners[-1] != owner:
                starts.append(addr)
                owners.append(owner)

        # The open (enclosing) entries, innermost last, and the last
        # address each one covers, as plain ints.
        stack: List[int] = []
        ends: List[int] = []
        for index, prefix in enumerate(prefixes):
            network = prefix.network
            while ends and ends[-1] < network:
                stack.pop()
                push(ends.pop() + 1, stack[-1] if stack else -1)
            push(network, index)
            stack.append(index)
            ends.append(network | ((1 << (32 - prefix.length)) - 1))
        while stack:
            stack.pop()
            boundary = ends.pop() + 1
            if boundary <= MAX_ADDRESS:
                push(boundary, stack[-1] if stack else -1)
        self._starts = starts
        self._owners = owners

    # -- construction ----------------------------------------------------

    @classmethod
    def from_items(cls, items: Iterable[Tuple[Prefix, Any]]) -> "PackedLpm":
        """Compile from ``(prefix, value)`` pairs (later duplicates win,
        matching :meth:`RadixTree.insert` overwrite semantics)."""
        unique = dict(items)
        ordered = sorted(unique.items(), key=lambda kv: kv[0].sort_key())
        return cls(ordered)

    @classmethod
    def from_merged(cls, table: "MergedPrefixTable") -> "PackedLpm":
        """Compile from a :class:`~repro.bgp.table.MergedPrefixTable`.

        Values are the table's :class:`~repro.bgp.table.LookupResult`
        objects, so :meth:`lookup` is a drop-in for
        ``MergedPrefixTable.lookup`` (same return type, same None-on-miss
        contract) — including as the table of a
        :class:`~repro.core.realtime.RealTimeClusterer`.
        """
        return cls(table.export_entries())

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._prefixes) - len(self._free)

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def num_intervals(self) -> int:
        """Number of disjoint address intervals in the packed layout."""
        return len(self._starts)

    @property
    def epoch(self) -> int:
        """Generation counter: bumped by every :meth:`apply_delta` that
        changed anything.  Caches keyed on lookup results (memos,
        cluster assignments) compare epochs to detect a table that
        mutated underneath them."""
        return self._epoch

    @property
    def deltas_applied(self) -> int:
        """Total route events (announce/withdraw) applied in place over
        this table's lifetime (noop withdrawals excluded)."""
        return self._deltas_applied

    def items(self) -> Iterable[Tuple[Prefix, Any]]:
        """Iterate ``(prefix, value)`` entries in address order."""
        return zip(*self._sorted_entries())

    def prefix(self, index: int) -> Prefix:
        """The prefix of entry ``index`` (as returned by lookups)."""
        prefix = self._prefixes[index]
        if prefix is None:
            raise self._tombstone_error(index)
        return prefix

    def value(self, index: int) -> Any:
        """The value of entry ``index`` (as returned by lookups)."""
        if self._prefixes[index] is None:
            raise self._tombstone_error(index)
        return self._values[index]

    def _tombstone_error(self, index: int) -> SanitizeError:
        return SanitizeError(
            f"entry handle {index} was withdrawn at or before epoch "
            f"{self._epoch}: a handle outlived the patch that freed it "
            "(caches must drop handles inside PatchResult.windows)"
        )

    def digest(self) -> str:
        """Stable fingerprint of the prefix set (checkpoint safety check).

        Two tables holding the same prefixes — whatever the source
        structure, compiled or patched — share a digest; values are
        excluded on purpose so a re-merged table with identical routes
        still matches.
        """
        # Five bytes per prefix: the network big-endian, then the
        # length.  The networks are packed in one struct call and
        # interleaved with the lengths by slice assignment.
        prefixes = self._sorted_entries()[0]
        count = len(prefixes)
        networks = struct.pack(f">{count}I", *map(_NETWORK, prefixes))
        record = bytearray(5 * count)
        for byte in range(4):
            record[byte::5] = networks[byte::4]
        record[4::5] = bytes(map(_LENGTH, prefixes))
        return hashlib.sha256(record).hexdigest()

    # -- canonical numbering ---------------------------------------------

    def _sorted_entries(self) -> Tuple[Tuple[Prefix, ...], Tuple[Any, ...]]:
        """The live entry columns in routing-table order — the columns
        a from-scratch compile of the current routes would hold."""
        if self._sorted is None:
            prefixes, values = self._prefixes, self._values
        else:
            handles = self._sorted[1]
            prefixes = tuple(map(self._prefixes.__getitem__, handles))
            values = tuple(map(self._values.__getitem__, handles))
        # Never-patched columns are the compiled tuples themselves, and
        # the sorted view lists live entries only, never a tombstone.
        return (
            cast(Tuple[Prefix, ...], prefixes),
            cast(Tuple[Any, ...], values),
        )

    def _ranks(self) -> Optional[Dict[int, int]]:
        """Handle -> canonical (dense sorted) index, or None when the
        handles already are the canonical numbering.  The two negative
        owner sentinels (-1 gap, -2 stride-indirect) map to themselves,
        so ``map(ranks.__getitem__, owners)`` renumbers a whole owner
        column without a Python-level loop."""
        if self._sorted is None:
            return None
        handles = self._sorted[1]
        ranks = dict(zip(handles, range(len(handles))))
        ranks[-1] = -1
        ranks[-2] = -2
        return ranks

    def _packed_columns(
        self, ranks: Optional[Dict[int, int]]
    ) -> _PackedColumns:
        """The packed layout renumbered through ``ranks`` (see
        :meth:`_ranks`; None when there is nothing to renumber)."""
        prefixes, values = self._sorted_entries()
        owners = self._owners
        if ranks is not None:
            owners = array("q", map(ranks.__getitem__, owners))
        return self._starts, owners, prefixes, values

    # -- lookups ---------------------------------------------------------

    def match_index(self, address: int) -> int:
        """Entry index of the longest matching prefix, or -1 on miss."""
        return self._owners[bisect_right(self._starts, address) - 1]

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        """Router-style lookup with the :class:`RadixTree` contract."""
        owner = self._owners[bisect_right(self._starts, address) - 1]
        if owner < 0:
            return None
        return self.prefix(owner), self._values[owner]

    def lookup(self, address: int) -> Any:
        """Return the matched entry's value, or None on miss.

        Mirrors ``MergedPrefixTable.lookup`` when compiled via
        :meth:`from_merged`.
        """
        owner = self._owners[bisect_right(self._starts, address) - 1]
        if owner < 0:
            return None
        return self._values[owner]

    def lookup_many(self, addresses: Iterable[int]) -> List[int]:
        """Batch lookup: entry index per address (-1 on miss).

        The hot path of the engine: everything inside the comprehension
        is a C-level call, so per-address cost is one binary search with
        no Python-object churn.
        """
        starts = self._starts
        owners = self._owners
        search = bisect_right
        return [owners[search(starts, address) - 1] for address in addresses]

    # -- in-place patching -----------------------------------------------

    def apply_delta(
        self,
        announce: Sequence[Tuple[Prefix, Any]] = (),
        withdraw: Sequence[Prefix] = (),
    ) -> PatchResult:
        """Apply one batch of BGP route deltas *in place*.

        ``announce`` upserts entries (an already-present prefix becomes
        a value update — no structural change); ``withdraw`` removes
        entries (absent prefixes are counted as noops, the idempotent
        re-withdrawals live BGP feeds produce).  A prefix both announced
        and withdrawn in the same batch is a caller error — event
        streams must coalesce to one final operation per prefix first.

        Only the address windows of the inserted and withdrawn prefixes
        are rewritten: a withdrawal relabels its own pieces to the most
        specific remaining cover, an insert takes over every piece a
        less specific entry (or no one) owned, and adjacent pieces that
        end up with one owner coalesce.  Surviving entries keep their
        handles, so nothing outside the windows — no interval, no cached
        lookup result — needs touching.  The interval boundaries are
        exactly those of a from-scratch compile at the new routing
        state and the owners differ from it only by the handle ->
        sorted-rank renumbering; :meth:`verify_patched` checks that.

        Returns a :class:`PatchResult` carrying the affected address
        windows that downstream caches need for selective invalidation.
        """
        keys, handles = self._sorted_view()

        updates: Dict[int, Any] = {}
        inserts: Dict[Prefix, Any] = {}
        for prefix, value in announce:
            handle = self._handle_of(prefix.network, prefix.length)
            if handle >= 0:
                updates[handle] = value
            else:
                inserts[prefix] = value
        removed: Dict[int, Prefix] = {}
        noop_withdrawals = 0
        for prefix in withdraw:
            handle = self._handle_of(prefix.network, prefix.length)
            if prefix in inserts or handle in updates:
                raise ValueError(
                    f"prefix {prefix.cidr} both announced and withdrawn in "
                    "one delta batch — coalesce the event stream first"
                )
            if handle >= 0:
                removed[handle] = prefix
            else:
                noop_withdrawals += 1

        # Handles and intervals are untouched by a value update, so no
        # cache needs invalidating for it (memo entries store handles
        # and values are fetched through the table on use).
        prefixes = cast(List[Optional[Prefix]], self._prefixes)
        values = cast(List[Any], self._values)
        for handle, value in updates.items():
            values[handle] = value

        # Withdrawals: drop the entries from the sorted view first, so
        # the cover probe sees the remaining routes only, then relabel
        # each merged window in one pass.
        for handle, prefix in removed.items():
            spot = bisect_left(keys, _order_key(prefix.network, prefix.length))
            del keys[spot]
            del handles[spot]
            prefixes[handle] = None
            values[handle] = None
        spans = [
            (prefix.network, prefix.last_address)
            for prefix in removed.values()
        ]
        relabel = {
            handle: self._cover_of(prefix)
            for handle, prefix in removed.items()
        }
        for low, high in merge_windows(spans):
            self._relabel_window(low, high, relabel)

        # Inserts go in sorted order, so a same-batch cover is always
        # spliced before the specifics it contains.
        free = self._free
        for prefix in sorted(inserts):
            if free:
                handle = free.pop()
                prefixes[handle] = prefix
                values[handle] = inserts[prefix]
            else:
                handle = len(prefixes)
                prefixes.append(prefix)
                values.append(inserts[prefix])
            key = _order_key(prefix.network, prefix.length)
            spot = bisect_left(keys, key)
            keys.insert(spot, key)
            handles.insert(spot, handle)
            self._splice_insert(handle, prefix)
            spans.append((prefix.network, prefix.last_address))
        # Freed only now: no insert of this batch may take a handle the
        # layout was still carrying when the batch began.
        free.extend(removed)

        changed = len(updates) + len(inserts) + len(removed)
        if changed:
            self._epoch += 1
            self._deltas_applied += changed
        return PatchResult(
            epoch=self._epoch,
            announced=len(updates) + len(inserts),
            withdrawn=len(removed),
            value_updates=len(updates),
            noop_withdrawals=noop_withdrawals,
            windows=merge_windows(spans),
        )

    def _sorted_view(self) -> _SortedView:
        """The sorted view, materialised — with the entry columns turned
        into lists — on the first patch: a table that is never patched
        never pays for either."""
        view = self._sorted
        if view is None:
            view = (
                array("Q", [
                    _order_key(prefix.network, prefix.length)
                    for prefix in self._sorted_entries()[0]
                ]),
                array("q", range(len(self._prefixes))),
            )
            self._prefixes = list(self._prefixes)
            self._values = list(self._values)
            self._sorted = view
        return view

    def _handle_of(self, network: int, length: int) -> int:
        """Handle of the live entry ``network/length``, or -1."""
        keys, handles = self._sorted_view()
        key = _order_key(network, length)
        spot = bisect_left(keys, key)
        if spot < len(keys) and keys[spot] == key:
            return handles[spot]
        return -1

    def _cover_of(self, prefix: Prefix) -> int:
        """Handle of the most specific live strict cover of ``prefix``
        (its longest match once it is withdrawn), or -1: one probe per
        possible ancestor, at most 32."""
        for length in range(prefix.length - 1, -1, -1):
            shift = 32 - length
            handle = self._handle_of(prefix.network >> shift << shift, length)
            if handle >= 0:
                return handle
        return -1

    def _relabel_window(
        self, low: int, high: int, relabel: Dict[int, int]
    ) -> None:
        """Rewrite the owners of intervals inside ``[low, high]`` through
        ``relabel`` and coalesce equal neighbours, including the one
        interval on either side of the window.  ``low`` is the network
        of a prefix the layout carried, so an interval starts there."""
        starts = self._starts
        owners = self._owners
        left = bisect_left(starts, low)
        stop = bisect_right(starts, high)
        piece_starts: List[int] = []
        piece_owners: List[int] = []
        last = owners[left - 1] if left else None
        for segment in range(left, stop):
            owner = owners[segment]
            owner = relabel.get(owner, owner)
            if owner != last:
                piece_starts.append(starts[segment])
                piece_owners.append(owner)
                last = owner
        if stop < len(starts) and owners[stop] == last:
            stop += 1
        starts[left:stop] = array("Q", piece_starts)
        owners[left:stop] = array("q", piece_owners)

    def _splice_insert(self, handle: int, prefix: Prefix) -> None:
        """Splice a new entry into its address window, taking over every
        piece owned by a less specific entry (or by no one) and leaving
        nested more-specific entries alone."""
        starts = self._starts
        owners = self._owners
        low = prefix.network
        high = prefix.last_address
        left = bisect_right(starts, low) - 1
        right = bisect_right(starts, high) - 1
        piece_starts: List[int] = []
        piece_owners: List[int] = []
        if starts[left] < low:
            piece_starts.append(starts[left])
            piece_owners.append(owners[left])
        for segment in range(left, right + 1):
            owner = owners[segment]
            if owner < 0 or self.prefix(owner).length < prefix.length:
                owner = handle
            if piece_owners and piece_owners[-1] == owner:
                continue
            piece_starts.append(max(starts[segment], low))
            piece_owners.append(owner)
        if high < MAX_ADDRESS:
            boundary = (
                starts[right + 1]
                if right + 1 < len(starts)
                else MAX_ADDRESS + 1
            )
            if boundary > high + 1 and piece_owners[-1] != owners[right]:
                piece_starts.append(high + 1)
                piece_owners.append(owners[right])
        starts[left:right + 1] = array("Q", piece_starts)
        owners[left:right + 1] = array("q", piece_owners)

    def restore_generation(self, epoch: int, deltas_applied: int) -> None:
        """Adopt another table's generation counters.

        The serve daemon's rebuild fallback compiles a fresh table (so
        its counters restart at zero) to *replace* a long-patched one;
        carrying the old generation forward keeps epoch monotonicity —
        which is what memo safety nets and checkpoints key on.
        """
        self._epoch = epoch
        self._deltas_applied = deltas_applied

    def verify_patched(self) -> None:
        """Equivalence gate: the patched layout, renumbered from handles
        to canonical sorted ranks, must be bit-identical to a
        from-scratch compile of the current entry set.

        Raises :class:`~repro.errors.SanitizeError` on any divergence —
        an incremental patch that drifts from the rebuild it promises to
        equal is silent corruption, never a recoverable condition.
        """
        ranks = self._ranks()
        starts, owners, prefixes, values = self._packed_columns(ranks)
        rebuilt = type(self)(list(zip(prefixes, values)))
        if rebuilt._starts != starts or rebuilt._owners != owners:
            raise SanitizeError(
                "patched PackedLpm diverged from a from-scratch rebuild: "
                f"{len(starts)} intervals in the patched layout vs "
                f"{len(rebuilt._starts)} rebuilt "
                f"(epoch {self._epoch}, {len(prefixes)} entries)"
            )
        if self._sorted is not None:
            in_order = array("Q", sorted({
                _order_key(prefix.network, prefix.length)
                for prefix in prefixes
            }))
            if self._sorted[0] != in_order or len(self) != len(in_order):
                raise SanitizeError(
                    "patched PackedLpm's sorted view diverged from its "
                    f"entry columns at epoch {self._epoch}: "
                    f"{len(self._sorted[0])} keys, {len(self)} live of "
                    f"{len(self._prefixes)} handles"
                )
        if rebuilt.digest() != self.digest():
            raise SanitizeError(
                "patched PackedLpm digest diverged from a from-scratch "
                f"rebuild at epoch {self._epoch}"
            )
        self._verify_overlay(rebuilt, ranks)

    def _verify_overlay(
        self, rebuilt: "PackedLpm", ranks: Optional[Dict[int, int]]
    ) -> None:
        """:meth:`verify_patched`'s hook for a subclass's index over the
        intervals, compared against the same one rebuild (``rebuilt`` is
        of ``type(self)``, ``ranks`` this table's :meth:`_ranks`).  The
        plain packed layout has none."""
