"""The in-place patch API: patched table ≡ from-scratch rebuild.

The equivalence gate of the serve subsystem, pinned as a hypothesis
property: after *any* sequence of delta batches, every patchable table
kind (packed, stride, and both behind a memo front) must answer
lookups identically to a table rebuilt from scratch at the final
routing state — same resolved prefixes, same digest, same internals
once its handles are renumbered (:meth:`verify_patched`) — and
identically to the independent ``sorted`` oracle from
:mod:`repro.net.lpm`.  Entry handles are table-local, so two table
objects are compared through the prefixes their handles resolve to.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.fastpath import MemoizedLookup, StrideLpm
from repro.engine.packed import PackedLpm, merge_windows
from repro.engine.state import ClusterStore, write_checkpoint
from repro.errors import SanitizeError
from repro.net.lpm import SortedLpm
from repro.net.prefix import Prefix

#: Nested prefix pool inside 10/8 — long chains of covers so deltas
#: routinely change the longest match rather than just the match set.
POOL = sorted(
    {
        Prefix((10 << 24) | (((i * 0x9E3779B1) % (1 << (length - 8))) << (32 - length)), length)
        for length in (8, 10, 12, 14, 16, 18, 20, 24, 28, 32)
        for i in range(3)
    },
    key=Prefix.sort_key,
)

#: Probe set: every boundary of every pool prefix, plus neighbours.
PROBES = sorted(
    {
        address
        for prefix in POOL
        for address in (
            prefix.network,
            prefix.last_address,
            max(0, prefix.network - 1),
            min((1 << 32) - 1, prefix.last_address + 1),
        )
    }
)

PATCHABLE_KINDS = ("packed", "stride", "memo-packed", "memo-stride")


def _build(kind, items):
    if kind == "packed":
        return PackedLpm.from_items(items)
    if kind == "stride":
        return StrideLpm.from_items(items)
    inner_cls = PackedLpm if kind == "memo-packed" else StrideLpm
    return MemoizedLookup(inner_cls.from_items(items), maxsize=64)


def _sorted_items(model):
    return sorted(model.items(), key=lambda kv: kv[0].sort_key())


def _resolved(table, addresses):
    """Longest-match prefix (None on miss) per address."""
    return [
        table.prefix(handle) if handle >= 0 else None
        for handle in table.lookup_many(addresses)
    ]


batches_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(POOL), max_size=6),   # announces
        st.lists(st.sampled_from(POOL), max_size=6),   # withdraws
    ),
    max_size=5,
)


@pytest.mark.parametrize("kind", PATCHABLE_KINDS)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)),
    batches=batches_strategy,
)
def test_patched_equals_rebuilt(kind, initial, batches):
    model = {prefix: f"v{i}" for i, prefix in enumerate(initial)}
    table = _build(kind, _sorted_items(model))
    serial = itertools.count(1000)
    effective = 0
    for announce_prefixes, withdraw_prefixes in batches:
        announce = {p: f"n{next(serial)}" for p in announce_prefixes}
        withdraw = [p for p in withdraw_prefixes if p not in announce]
        # Effective = the table changed: an announce always carries a
        # fresh value; a withdraw only counts when the prefix is live.
        # No-op batches (empty, or all-noop withdrawals) keep the epoch.
        if announce or any(p in model for p in withdraw):
            effective += 1
        table.apply_delta(list(announce.items()), withdraw)
        # Exercise the memo between batches so stale entries would show.
        table.lookup_many(PROBES[::7])
        model.update(announce)
        for prefix in withdraw:
            model.pop(prefix, None)

    rebuilt = PackedLpm.from_items(_sorted_items(model))
    assert table.digest() == rebuilt.digest()
    assert _resolved(table, PROBES) == _resolved(rebuilt, PROBES)
    oracle = SortedLpm()
    for prefix, value in _sorted_items(model):
        oracle.insert(prefix, value)
    for address in PROBES:
        want = oracle.longest_match(address)
        got = table.longest_match(address)
        assert (got and got[0]) == (want and want[0])
    table.verify_patched()
    assert int(table.epoch) == effective


class TestPatchResultContracts:
    def test_value_only_update_has_no_windows(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        table = PackedLpm.from_items([(prefix, "a")])
        result = table.apply_delta([(prefix, "b")], [])
        assert not result.structural
        assert result.windows == ()
        assert result.value_updates == 1
        assert table.lookup(10 << 24) == "b"

    def test_noop_withdrawal_is_counted_not_structural(self):
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), "a")])
        result = table.apply_delta([], [Prefix.from_cidr("11.0.0.0/8")])
        assert result.noop_withdrawals == 1
        assert not result.structural

    def test_conflicting_announce_withdraw_rejected(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        table = PackedLpm.from_items([(prefix, "a")])
        with pytest.raises(ValueError):
            table.apply_delta([(prefix, "b")], [prefix])

    def test_windows_cover_structural_changes(self):
        table = PackedLpm.from_items(
            [(Prefix.from_cidr("10.0.0.0/8"), "a")]
        )
        inserted = Prefix.from_cidr("10.1.0.0/16")
        result = table.apply_delta([(inserted, "b")], [])
        assert result.structural
        low, high = result.windows[0]
        assert low <= inserted.network and high >= inserted.last_address

    def test_epoch_advances_per_batch(self):
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), "a")])
        assert table.epoch == 0
        table.apply_delta([(Prefix.from_cidr("11.0.0.0/8"), "b")], [])
        table.apply_delta([], [Prefix.from_cidr("11.0.0.0/8")])
        assert table.epoch == 2
        assert table.deltas_applied == 2

    def test_merge_windows_coalesces_adjacent(self):
        assert merge_windows([(10, 20), (21, 30), (40, 50), (0, 5)]) == (
            (0, 5),
            (10, 30),
            (40, 50),
        )


class TestMemoInvalidation:
    def test_epoch_mismatch_clears_memo(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        inner = PackedLpm.from_items([(prefix, "a")])
        memo = MemoizedLookup(inner, maxsize=16)
        assert memo.lookup_many([10 << 24]) == [0]
        # Patch the inner table *directly*, bypassing the wrapper: the
        # epoch safety net must drop the stale memo entry.
        inner.apply_delta([], [prefix])
        assert memo.lookup_many([10 << 24]) == [-1]

    def test_patch_evicts_only_window_entries(self):
        outside = Prefix.from_cidr("12.0.0.0/8")
        inside = Prefix.from_cidr("10.0.0.0/8")
        memo = MemoizedLookup(
            PackedLpm.from_items(
                [(inside, "a"), (outside, "b")]
            ),
            maxsize=16,
        )
        covered = (10 << 24) | (1 << 16)  # 10.1.0.0 — inside the new /16
        memo.lookup_many([covered, 12 << 24])
        before = memo.evictions
        memo.apply_delta([(Prefix.from_cidr("10.1.0.0/16"), "c")], [])
        # Only the entry inside the patch window is dropped; 12/8's
        # entry survives untouched and now the covered address must
        # resolve through the freshly inserted /16.
        assert memo.evictions == before + 1
        assert memo.lookup(covered) == "c"
        assert memo.lookup(12 << 24) == "b"

    def test_reused_handle_never_answers_for_its_old_prefix(self):
        withdrawn = Prefix.from_cidr("10.0.0.0/8")
        unrelated = Prefix.from_cidr("12.0.0.0/8")
        inner = PackedLpm.from_items(
            [(withdrawn, "old"), (Prefix.from_cidr("11.0.0.0/8"), "keep")]
        )
        memo = MemoizedLookup(inner, maxsize=16)
        warm = (10 << 24) | 7
        handle = memo.match_index(warm)
        assert memo.prefix(handle) == withdrawn
        memo.apply_delta([], [withdrawn])
        memo.apply_delta([(unrelated, "new")], [])
        # The freed handle went to the unrelated announce ...
        assert memo.prefix(handle) == unrelated
        # ... and the address memoized under it misses, not resolves there.
        assert memo.match_index(warm) == -1
        assert memo.lookup(warm) is None
        assert memo.lookup(12 << 24) == "new"
        memo.verify_patched()


CIDR = Prefix.from_cidr


@pytest.mark.parametrize("cls", [PackedLpm, StrideLpm])
class TestWithdrawRelabelling:
    def test_nested_withdrawals_around_a_surviving_middle(self, cls):
        outer, middle, inner = CIDR("10.0.0.0/8"), CIDR("10.1.0.0/16"), CIDR("10.1.2.0/24")
        table = cls.from_items([(outer, "A"), (middle, "C"), (inner, "B")])
        result = table.apply_delta([], [outer, inner])
        assert result.withdrawn == 2
        assert result.windows == ((outer.network, outer.last_address),)
        # B's addresses fall to C, A's own addresses to nobody.
        assert table.lookup(inner.network) == "C"
        assert table.lookup(middle.last_address) == "C"
        assert table.lookup(outer.network) is None
        assert table.lookup(outer.last_address) is None
        assert [p for p, _ in table.items()] == [middle]
        table.verify_patched()

    def test_uncovered_withdrawal_leaves_a_gap(self, cls):
        first, lone = CIDR("9.0.0.0/8"), CIDR("200.1.2.0/24")
        table = cls.from_items([(first, "a"), (lone, "b")])
        table.apply_delta([], [lone])
        assert table.match_index(lone.network) == -1
        assert table.match_index(lone.last_address) == -1
        assert table.lookup(first.network) == "a"
        assert table.num_intervals == 3  # gap, 9/8, gap
        table.verify_patched()

    def test_tombstoned_handle_is_a_loud_bug(self, cls):
        keep, gone = CIDR("10.0.0.0/8"), CIDR("11.0.0.0/8")
        table = cls.from_items([(keep, "a"), (gone, "b")])
        handle = table.match_index(gone.network)
        table.apply_delta([], [gone])
        with pytest.raises(SanitizeError, match="withdrawn"):
            table.prefix(handle)
        with pytest.raises(SanitizeError, match="withdrawn"):
            table.value(handle)

    def test_flapping_pool_reuses_handles(self, cls):
        rng = random.Random(20000)
        batch_size = 4
        live = {prefix: "seed" for prefix in POOL[::2]}
        table = cls.from_items(_sorted_items(live))
        peak_live = len(live)
        for flap in range(10_000 // batch_size):
            batch = rng.sample(POOL, batch_size)
            announce = [(p, f"f{flap}") for p in batch if p not in live]
            withdraw = [p for p in batch if p in live]
            table.apply_delta(announce, withdraw)
            live.update(announce)
            for prefix in withdraw:
                del live[prefix]
            peak_live = max(peak_live, len(live))
            assert len(table) == len(live)
        assert dict(table.items()) == live
        assert len(table._prefixes) == len(table._values)
        assert len(table._prefixes) <= peak_live + batch_size
        table.verify_patched()


class TestVerifyPatchedCatchesCorruption:
    """Mutation checks for the equivalence gate: one wrong cell in a
    patched stride table's intervals or in its overlay must raise."""

    @pytest.fixture()
    def patched(self):
        table = StrideLpm.from_items(
            [(prefix, f"v{i}") for i, prefix in enumerate(POOL[::2])]
        )
        table.apply_delta([(POOL[1], "n1"), (POOL[3], "n3")], [POOL[0]])
        table.verify_patched()
        return table

    def test_corrupt_owner(self, patched):
        owners = patched._owners
        spot = next(i for i, owner in enumerate(owners) if owner >= 0)
        owners[spot] = -1
        with pytest.raises(SanitizeError, match="from-scratch rebuild"):
            patched.verify_patched()

    def test_corrupt_slot(self, patched):
        slots = patched._slots
        spot = next(i for i, owner in enumerate(slots) if owner >= 0)
        slots[spot] = -1
        with pytest.raises(SanitizeError, match="overlay diverged"):
            patched.verify_patched()


@pytest.mark.parametrize("cls", [PackedLpm, StrideLpm])
class TestSerialisedFormIsCanonical:
    """A patched table's canonical form is a from-scratch compile's:
    renumbered, its columns are the rebuild's, and handles never reach
    a checkpoint."""

    @pytest.fixture()
    def pair(self, cls):
        model = {prefix: f"v{i}" for i, prefix in enumerate(POOL[::3])}
        patched = cls.from_items(_sorted_items(model))
        steps = [
            ([(POOL[1], "n1"), (POOL[4], "n4")], [POOL[0], POOL[6]]),
            ([(POOL[0], "back")], [POOL[4], POOL[9]]),
            ([(POOL[7], "n7"), (POOL[9], "again")], []),
        ]
        for announce, withdraw in steps:
            patched.apply_delta(announce, withdraw)
            model.update(announce)
            for prefix in withdraw:
                model.pop(prefix, None)
        # The handles really did leave the canonical numbering.
        assert [patched.match_index(p.network) for p in sorted(model)] != [
            PackedLpm.from_items(_sorted_items(model)).match_index(p.network)
            for p in sorted(model)
        ]
        rebuilt = cls.from_items(_sorted_items(model))
        rebuilt.restore_generation(patched.epoch, patched.deltas_applied)
        return patched, rebuilt

    def test_canonical_columns(self, pair):
        patched, rebuilt = pair
        ranks = patched._ranks()
        assert ranks is not None and rebuilt._ranks() is None
        assert patched._packed_columns(ranks) == rebuilt._packed_columns(None)
        if isinstance(patched, StrideLpm):
            assert (patched._overlay_columns(ranks)
                    == rebuilt._overlay_columns(None))

    def test_checkpoint_table_section(self, pair, tmp_path):
        """What a checkpoint holds of the table — its digest and patch
        generation, never its buffers — is the same bytes either way."""
        patched, rebuilt = pair
        images = []
        for name, table in (("patched", patched), ("rebuilt", rebuilt)):
            path = str(tmp_path / f"{name}.ckpt")
            write_checkpoint(
                path, [ClusterStore()], table_digest=table.digest(),
                routing_epoch=int(table.epoch),
                deltas_applied=int(table.deltas_applied),
            )
            with open(path, "rb") as handle:
                images.append(handle.read())
        assert images[0] == images[1]
