"""The engine's fast path: the production stride-indexed LPM table,
memoized resolution, and a flat-buffer batch form.

* :class:`StrideLpm` — the table :func:`build_lpm_table` and both CLIs
  compile: a :class:`~repro.engine.packed.PackedLpm` whose top 16
  address bits index a flat 2^16-entry slot table.  A slot covered by a
  single interval (every prefix ≤ /16, and any /16 block no longer
  prefix punches into) resolves in **one array index** — no search at
  all.  Slots that longer prefixes subdivide point at a small per-slot
  run of the interval layout, and the binary search shrinks from the
  whole table to that run.  Same lookup results, entry handles and
  ``digest()`` as the packed layout it indexes.
* :class:`MemoizedLookup` — an exact-IP memo in front of the table
  (``--memo-size``), exploiting the heavy-tailed client repetition of
  web logs: a client seen before costs one dict probe instead of an
  LPM search.  The memo is bounded (cleared when full) and its
  hit/miss/eviction counts flow into
  :class:`~repro.engine.metrics.EngineMetrics`.
* :class:`PackedBatch` — one shard's batch as flat buffers: a flat
  ``array('Q')`` of client addresses, a flat ``array('Q')`` of
  response sizes, and URLs interned into a per-batch string table
  referenced by ``array('L')`` ids;
  :meth:`~repro.engine.state.ClusterStore.apply_packed` folds it
  without materialising per-entry objects.

Correctness is pinned by tests: the stride table with and without the
memo produces clusters bit-identical to
:func:`repro.core.clustering.cluster_log`, including under fault plans
and across checkpoint/resume.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.analysis import sanitize as _sanitize
from repro.engine.packed import PackedLpm, PatchResult
from repro.errors import SanitizeError
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.bgp.table import MergedPrefixTable

#: One indirect slot's interval run: (starts, owners) as plain lists.
_SlotRun = Tuple[List[int], List[int]]

__all__ = [
    "StrideLpm",
    "MemoizedLookup",
    "PackedBatch",
    "build_lpm_table",
]

#: Number of low bits *not* covered by the stride index.
_STRIDE_SHIFT = 16
_NUM_SLOTS = 1 << 16

#: Slot sentinel: "consult the per-slot run" (any value ≥ -1 is a
#: direct answer — an entry handle, or -1 for an uncovered gap).
_INDIRECT = -2


class StrideLpm(PackedLpm):
    """Stride-16 direct-index LPM over the packed interval layout.

    Construction first compiles the same disjoint-interval layout as
    :class:`PackedLpm` (so ``digest``, ``items``, ``prefix``, ``value``
    and the entry handles lookups return are identical), then overlays
    the stride index in one monotone walk over the intervals:

    * ``_slots[s]`` — the answer for every address whose top 16 bits
      equal ``s`` when one interval covers the whole /16 block (every
      prefix ≤ /16 that no longer prefix punches into, and every
      uncovered gap) — an entry handle, or -1 for a miss — else the
      ``_INDIRECT`` sentinel;
    * ``_runs[s]`` — for indirect slots, the slot's own
      ``(starts, owners)`` interval run as two plain int lists, the
      first start clamped to the slot base so ``bisect_right`` can
      never land before the run.  Lists, not shared arrays: a bisect
      over a small int list compares already-boxed ints, where an
      ``array`` view would re-box an item per comparison.

    The hot path (:meth:`lookup_many`) therefore degenerates to one
    shift + one array index for every address in a direct slot, and a
    binary search over the handful of intervals inside one /16 block
    otherwise — against the full-table search :class:`PackedLpm` pays
    for every address.
    """

    __slots__ = ("_slots", "_runs")

    def __init__(self, entries: Sequence[Tuple[Prefix, Any]]) -> None:
        super().__init__(entries)
        self._slots = array("q", [0]) * _NUM_SLOTS
        self._runs: List[Optional[_SlotRun]] = [None] * _NUM_SLOTS
        self._rebuild_slots(0, _NUM_SLOTS - 1)

    # -- introspection ---------------------------------------------------

    @property
    def num_direct_slots(self) -> int:
        """How many of the 2^16 slots resolve without any search."""
        return sum(1 for owner in self._slots if owner >= -1)

    # -- in-place patching -----------------------------------------------

    def apply_delta(
        self,
        announce: Sequence[Tuple[Prefix, Any]] = (),
        withdraw: Sequence[Prefix] = (),
    ) -> PatchResult:
        """Patch the packed layout, then repair the stride overlay.

        Outside the patch's address windows neither an interval's
        clipping to its slot nor an entry's handle changes, so those
        slots and runs stand as they are.  Slots overlapping a window
        are rebuilt from the patched intervals with the same monotone
        walk compilation uses, which keeps the overlay equal to a
        from-scratch :class:`StrideLpm` (the :meth:`verify_patched`
        gate compares ``_slots`` and ``_runs`` too).
        """
        result = super().apply_delta(announce, withdraw)
        for low, high in result.windows:
            self._rebuild_slots(low >> _STRIDE_SHIFT, high >> _STRIDE_SHIFT)
        return result

    def _rebuild_slots(self, first_slot: int, last_slot: int) -> None:
        """Recompile slots ``first_slot..last_slot`` (inclusive) from the
        current intervals in one monotone walk, seeded by one bisect —
        over every slot at construction, over a patch's windows after."""
        starts = self._starts
        owners = self._owners
        num_intervals = len(starts)
        slots = self._slots
        runs = self._runs
        runs[first_slot:last_slot + 1] = [None] * (last_slot + 1 - first_slot)
        index = bisect_right(starts, first_slot << _STRIDE_SHIFT) - 1
        for slot in range(first_slot, last_slot + 1):
            base = slot << _STRIDE_SHIFT
            end = base + _NUM_SLOTS
            while index + 1 < num_intervals and starts[index + 1] <= base:
                index += 1
            last = index
            while last + 1 < num_intervals and starts[last + 1] < end:
                last += 1
            if last == index:
                slots[slot] = owners[index]
            else:
                slots[slot] = _INDIRECT
                run_starts = [base]
                run_starts.extend(starts[index + 1:last + 1])
                runs[slot] = (run_starts, list(owners[index:last + 1]))
                index = last

    def _verify_overlay(
        self, rebuilt: PackedLpm, ranks: Optional[Dict[int, int]]
    ) -> None:
        """The equivalence gate's stride half: the overlay, renumbered
        like the intervals, must equal the one rebuild's."""
        fresh = cast(StrideLpm, rebuilt)
        slots, runs = self._overlay_columns(ranks)
        if fresh._slots != slots or fresh._runs != runs:
            raise SanitizeError(
                "patched StrideLpm overlay diverged from a from-scratch "
                f"rebuild at epoch {self.epoch}: the stride index no "
                "longer mirrors the packed intervals"
            )

    def _overlay_columns(
        self, ranks: Optional[Dict[int, int]]
    ) -> Tuple["array[int]", List[Optional[_SlotRun]]]:
        """The stride overlay renumbered through ``ranks`` — the
        counterpart of :meth:`PackedLpm._packed_columns`."""
        if ranks is None:
            return self._slots, self._runs
        rank = ranks.__getitem__
        runs: List[Optional[_SlotRun]] = [
            None if run is None else (run[0], list(map(rank, run[1])))
            for run in self._runs
        ]
        return array("q", map(rank, self._slots)), runs

    # -- lookups ---------------------------------------------------------

    def match_index(self, address: int) -> int:
        slot = address >> _STRIDE_SHIFT
        owner = self._slots[slot]
        if owner >= -1:
            return owner
        run_starts, run_owners = self._runs[slot]  # type: ignore[misc]
        return run_owners[bisect_right(run_starts, address) - 1]

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        owner = self.match_index(address)
        if owner < 0:
            return None
        return self.prefix(owner), self._values[owner]

    def lookup(self, address: int) -> Any:
        owner = self.match_index(address)
        if owner < 0:
            return None
        return self._values[owner]

    def lookup_many(self, addresses: Iterable[int]) -> List[int]:
        """Batch lookup: one shift + one index per direct-slot address,
        a run-bounded binary search otherwise.

        Under ``REPRO_SANITIZE=1`` a sampled fraction of calls is
        recomputed through the packed binary-search path and compared —
        the stride overlay is an index, and an index that disagrees with
        the data it indexes is the worst kind of silent corruption.
        """
        sanitizing = _sanitize.is_enabled()
        if sanitizing:
            # The cross-check re-reads the addresses, so a one-shot
            # iterator must be materialised first (same values, so the
            # clustering output is unchanged).
            addresses = list(addresses)
        slots = self._slots
        runs = self._runs
        search = bisect_right
        out: List[int] = []
        append = out.append
        for address in addresses:
            slot = address >> 16
            owner = slots[slot]
            if owner < -1:
                run_starts, run_owners = runs[slot]  # type: ignore[misc]
                owner = run_owners[search(run_starts, address) - 1]
            append(owner)
        if sanitizing and _sanitize.crosscheck_due():
            expected = PackedLpm.lookup_many(self, addresses)
            if expected != out:
                raise SanitizeError(
                    "stride/packed LPM cross-check failed: the stride "
                    f"index disagrees with the packed intervals on a "
                    f"batch of {len(out)} lookups"
                )
            _sanitize.record_crosscheck()
        return out


#: Distinct from any valid memo value (indices are ints, including -1).
#: Typed ``Any`` so ``dict.get(addr, _ABSENT)`` keeps its int result type.
_ABSENT: Any = object()


class MemoizedLookup:
    """Bounded exact-IP memo in front of any index-returning LPM table.

    Wraps anything with the packed-table API (``lookup_many`` returning
    entry handles plus ``prefix``/``value``/``digest``) and serves
    repeat addresses from a dict.  Web-log client popularity is heavy
    tailed, so in steady state most addresses never reach the table.

    The memo is bounded at ``maxsize`` distinct addresses: a miss that
    finds it full clears it and starts over (the CLF parser's host memo
    does the same).  That only matters when a log's distinct-client
    count exceeds the bound.  A clear costs O(1) per address it drops
    and hits pay no LRU bookkeeping, where popping the oldest entry
    per miss re-scans the deleted slots CPython leaves at the front of
    a dict, O(n) per miss.

    Counters (``hits`` / ``misses`` / ``evictions``) accumulate per
    wrapper; the engine drains them into
    :class:`~repro.engine.metrics.EngineMetrics` via
    :meth:`take_memo_stats` after each applied chunk.
    """

    __slots__ = (
        "table", "maxsize", "hits", "misses", "evictions", "_memo",
        "_table_epoch",
    )

    def __init__(self, table: Any, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be >= 1: {maxsize!r}")
        self.table = table
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._memo: Dict[int, int] = {}
        self._table_epoch = int(getattr(table, "epoch", 0))

    # -- patch-aware invalidation ----------------------------------------

    def _sync_epoch(self) -> None:
        """Safety net: if the table was patched without
        :meth:`apply_patch` being called, drop the whole memo rather
        than serve stale handles.  One int compare on the happy path."""
        epoch = getattr(self.table, "epoch", 0)
        if epoch != self._table_epoch:
            self._memo.clear()
            self._table_epoch = epoch

    def apply_delta(
        self,
        announce: Sequence[Tuple[Prefix, Any]] = (),
        withdraw: Sequence[Prefix] = (),
    ) -> PatchResult:
        """Patch the wrapped table and selectively invalidate the memo
        in one step (see :meth:`PackedLpm.apply_delta`)."""
        result: PatchResult = self.table.apply_delta(announce, withdraw)
        self.apply_patch(result)
        return result

    def apply_patch(self, result: PatchResult) -> int:
        """Fold one :class:`~repro.engine.packed.PatchResult` into the
        memo: entries inside an affected window are evicted (their
        longest match may have changed, and a withdrawn entry's handle
        may be reused), every other entry stands — a patch never
        renumbers a surviving entry.  Returns the number evicted.

        Far cheaper than a wholesale clear on the heavy-tailed client
        streams the memo exists for: a routing delta touches a few
        address windows, while the memo holds the whole working set.
        """
        self._table_epoch = int(getattr(self.table, "epoch", 0))
        if not result.windows:
            return 0
        memo = self._memo
        lows = [low for low, _ in result.windows]
        highs = [high for _, high in result.windows]
        # Windows are sorted and disjoint: only the last one starting at
        # or below an address can hold it, and most addresses fall
        # outside the windows' hull without a search at all.
        first = lows[0]
        last = highs[-1]
        stale = [
            address for address in memo
            if first <= address <= last
            and address <= highs[bisect_right(lows, address) - 1]
        ]
        for address in stale:
            del memo[address]
        self.evictions += len(stale)
        return len(stale)

    def verify_patched(self) -> None:
        """Delegate the equivalence gate to the wrapped table."""
        self.table.verify_patched()

    @property
    def epoch(self) -> int:
        """The wrapped table's patch generation counter."""
        return int(getattr(self.table, "epoch", 0))

    @property
    def deltas_applied(self) -> int:
        """The wrapped table's lifetime applied-delta count."""
        return int(getattr(self.table, "deltas_applied", 0))

    # -- memoized lookups ------------------------------------------------

    def lookup_many(self, addresses: Iterable[int]) -> List[int]:
        """Batch lookup: memo hits inline, misses batched to the table.

        Output order matches the input.  An address repeating inside
        one batch before it is memoized counts as a miss each time
        (misses are collected first, resolved in one table batch);
        the memo stores it once and later batches hit.
        """
        self._sync_epoch()
        memo = self._memo
        get = memo.get
        out: List[int] = []
        append = out.append
        miss_pos: List[int] = []
        miss_addr: List[int] = []
        position = 0
        for address in addresses:
            owner = get(address, _ABSENT)
            if owner is _ABSENT:
                miss_pos.append(position)
                miss_addr.append(address)
                append(-1)
            else:
                append(owner)
            position += 1
        if miss_addr:
            resolved = self.table.lookup_many(miss_addr)
            maxsize = self.maxsize
            evictions = 0
            for position, address, owner in zip(miss_pos, miss_addr, resolved):
                out[position] = owner
                if address not in memo:
                    if len(memo) >= maxsize:
                        evictions += len(memo)
                        memo.clear()
                    memo[address] = owner
            self.misses += len(miss_addr)
            self.evictions += evictions
        self.hits += len(out) - len(miss_addr)
        return out

    def match_index(self, address: int) -> int:
        self._sync_epoch()
        owner = self._memo.get(address, _ABSENT)
        if owner is _ABSENT:
            owner = self.table.match_index(address)
            self.misses += 1
            if len(self._memo) >= self.maxsize:
                self.evictions += len(self._memo)
                self._memo.clear()
            self._memo[address] = owner
        else:
            self.hits += 1
        return owner

    def lookup(self, address: int) -> Any:
        owner = self.match_index(address)
        if owner < 0:
            return None
        return self.table.value(owner)

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        owner = self.match_index(address)
        if owner < 0:
            return None
        return self.table.prefix(owner), self.table.value(owner)

    # -- telemetry -------------------------------------------------------

    def take_memo_stats(self) -> Tuple[int, int, int]:
        """Return and reset ``(hits, misses, evictions)`` accumulated
        since the last take — the engine's per-chunk metrics drain."""
        stats = (self.hits, self.misses, self.evictions)
        self.hits = self.misses = self.evictions = 0
        return stats

    def clear_memo(self) -> None:
        """Drop every memoized resolution (table hot-swap hook)."""
        self._memo.clear()

    def __len__(self) -> int:
        return len(self.table)

    def __bool__(self) -> bool:
        return bool(self.table)

    @property
    def memo_size(self) -> int:
        """Distinct addresses currently memoized."""
        return len(self._memo)

    # -- delegation (the rest of the LookupTable surface) ----------------

    def items(self) -> Iterable[Tuple[Prefix, Any]]:
        return self.table.items()

    def prefix(self, index: int) -> Prefix:
        return self.table.prefix(index)

    def value(self, index: int) -> Any:
        return self.table.value(index)

    def digest(self) -> str:
        return self.table.digest()


class PackedBatch:
    """One shard's batch as flat buffers, not tuple lists.

    ``addresses`` and ``sizes`` are ``array('Q')``; ``url_ids`` is an
    ``array('L')`` of indices into ``urls``, the batch's interned
    string table (each distinct URL stored once however often it
    repeats).

    :meth:`repro.engine.state.ClusterStore.apply_packed` folds a batch;
    :meth:`iter_triples` recovers the plain ``(client, url, size)``
    stream for code that still wants tuples.
    """

    __slots__ = ("addresses", "sizes", "url_ids", "urls", "_url_index")

    def __init__(self) -> None:
        self.addresses = array("Q")
        self.sizes = array("Q")
        self.url_ids = array("L")
        self.urls: List[str] = []
        self._url_index: Dict[str, int] = {}

    def append(self, client: int, url: str, size: int) -> None:
        index = self._url_index
        url_id = index.get(url)
        if url_id is None:
            url_id = index[url] = len(self.urls)
            self.urls.append(url)
        self.addresses.append(client)
        self.sizes.append(size)
        self.url_ids.append(url_id)

    @classmethod
    def from_triples(
        cls, triples: Iterable[Tuple[int, str, int]]
    ) -> "PackedBatch":
        batch = cls()
        append = batch.append
        for client, url, size in triples:
            append(client, url, size)
        return batch

    @classmethod
    def partition(
        cls, triples: Iterable[Tuple[int, str, int]], num_shards: int
    ) -> List["PackedBatch"]:
        """Pack ``triples`` straight into per-shard batches (one pass,
        no intermediate per-shard tuple lists)."""
        from repro.engine.shard import shard_of

        batches = [cls() for _ in range(num_shards)]
        for client, url, size in triples:
            batches[shard_of(client, num_shards)].append(client, url, size)
        return batches

    def __len__(self) -> int:
        return len(self.addresses)

    def iter_triples(self) -> Iterator[Tuple[int, str, int]]:
        urls = self.urls
        for client, url_id, size in zip(self.addresses, self.url_ids,
                                        self.sizes):
            yield client, urls[url_id], size


def build_lpm_table(
    kind: str, merged: "MergedPrefixTable", memo_size: int = 0
) -> Any:
    """Compile ``merged`` (a MergedPrefixTable) into the engine's table:
    a :class:`StrideLpm`, wrapped in a :class:`MemoizedLookup` bounded
    at ``memo_size`` addresses when ``memo_size`` > 0.

    ``"stride"`` is the only ``kind``; anything else raises ValueError.
    The argument stays because ``bench/workloads.py`` passes it (ROADMAP
    item 1 frees it).
    """
    if kind != "stride":
        raise ValueError(f"unknown LPM table kind {kind!r} (only 'stride')")
    table: Any = StrideLpm.from_merged(merged)
    if memo_size:
        table = MemoizedLookup(table, memo_size)
    return table
