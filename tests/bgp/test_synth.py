"""Unit/integration tests for snapshot synthesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.formats import FORMAT_MASK_LENGTH
from repro.bgp.sources import SourceSpec, source_by_name
from repro.bgp.synth import SnapshotFactory, SnapshotTime, _hash01
from repro.bgp.table import KIND_BGP, KIND_REGISTRY


class TestDeterminism:
    def test_same_time_same_snapshot(self, topology):
        factory = SnapshotFactory(topology)
        a = factory.snapshot(source_by_name("OREGON"), SnapshotTime(3, 0))
        b = factory.snapshot(source_by_name("OREGON"), SnapshotTime(3, 0))
        assert a.prefix_set() == b.prefix_set()

    def test_two_factories_agree(self, topology):
        a = SnapshotFactory(topology).snapshot(source_by_name("AADS"))
        b = SnapshotFactory(topology).snapshot(source_by_name("AADS"))
        assert a.prefix_set() == b.prefix_set()


class TestVisibilityModel:
    def test_relative_sizes_follow_visibility(self, factory):
        oregon = factory.snapshot(source_by_name("OREGON"))
        paix = factory.snapshot(source_by_name("PAIX"))
        vbns = factory.snapshot(source_by_name("VBNS"))
        assert len(oregon) > len(paix) > len(vbns)

    def test_no_source_sees_everything(self, topology, factory):
        announcements = {prefix for prefix, _ in topology.announced_routes()}
        for source in factory.sources:
            if source.kind == KIND_REGISTRY:
                continue
            snapshot = factory.snapshot(source)
            assert snapshot.prefix_set() <= announcements | set()
            assert len(snapshot) < len(announcements)

    def test_merged_covers_more_than_any_single_source(self, factory):
        merged = factory.merged()
        for source in factory.sources:
            assert len(merged) >= len(factory.snapshot(source))

    def test_nap_sources_filter_long_prefixes(self, factory):
        """NAP route servers carry almost no > /24 prefixes; the AT&T
        forwarding table carries many (§ sources docstring)."""
        mae = factory.snapshot(source_by_name("MAE-WEST"))
        forwarding = factory.snapshot(source_by_name("AT&T-Forw"))

        def long_fraction(table):
            histogram = table.prefix_length_histogram()
            total = sum(histogram.values())
            longer = sum(c for length, c in histogram.items() if length > 24)
            return longer / total if total else 0.0

        assert long_fraction(mae) < 0.02
        assert long_fraction(forwarding) > 0.05

    def test_snapshot_next_hops_and_paths_populated(self, factory):
        snapshot = factory.snapshot(source_by_name("OREGON"))
        entry = next(iter(snapshot))
        assert entry.next_hop
        assert entry.as_path


class TestRegistryDumps:
    def test_registry_contains_filler(self, factory):
        arin = factory.snapshot(source_by_name("ARIN"))
        assert len(arin) > source_by_name("ARIN").filler_blocks

    def test_filler_blocks_do_not_cover_allocations(self, topology, factory):
        """Filler lives in high address space the allocator never uses,
        so it can never capture a real client."""
        arin = factory.snapshot(source_by_name("ARIN"))
        allocation_prefixes = {a.prefix for a in topology.allocations}
        for prefix in arin.prefixes():
            if prefix in allocation_prefixes:
                continue
            for allocation in topology.allocations:
                assert not prefix.overlaps(allocation.prefix)

    def test_registry_dump_is_time_invariant(self, factory):
        a = factory.snapshot(source_by_name("NLANR"), SnapshotTime(0))
        b = factory.snapshot(source_by_name("NLANR"), SnapshotTime(14))
        assert a.prefix_set() == b.prefix_set()


class TestChurn:
    def test_tables_mostly_stable_day_to_day(self, factory):
        source = source_by_name("OREGON")
        day0 = factory.snapshot(source, SnapshotTime(0)).prefix_set()
        day1 = factory.snapshot(source, SnapshotTime(1)).prefix_set()
        overlap = len(day0 & day1) / max(1, len(day0 | day1))
        assert overlap > 0.9

    def test_intraday_slots_differ_slightly(self, factory):
        source = source_by_name("AADS")
        slot0 = factory.snapshot(source, SnapshotTime(0, 0)).prefix_set()
        slot1 = factory.snapshot(source, SnapshotTime(0, 1)).prefix_set()
        assert slot0 != slot1
        overlap = len(slot0 & slot1) / max(1, len(slot0 | slot1))
        assert overlap > 0.9

    def test_late_arrivals_grow_tables(self, factory):
        source = source_by_name("OREGON")
        early = len(factory.snapshot(source, SnapshotTime(0)))
        late = len(factory.snapshot(source, SnapshotTime(14)))
        assert late > early


class TestMergedCoverage:
    def test_registry_extends_bgp_coverage(self, factory):
        with_registry = factory.merged()
        without = factory.merged_without_registry()
        assert len(with_registry) > len(without)

    def test_merged_lookup_matches_some_client(self, topology, factory):
        import random

        merged = factory.merged()
        rng = random.Random(5)
        hits = 0
        samples = 200
        for leaf in rng.sample(topology.leaf_networks, samples):
            host = topology.hosts_in_leaf(leaf, 1, rng)[0]
            if merged.lookup(host) is not None:
                hits += 1
        assert hits / samples > 0.99


def _oracle_visible(factory, source, prefix, when):
    """The visibility model spelled out draw by draw, as each snapshot
    once evaluated it (every coin re-hashed on every call)."""
    key = f"{source.name}:{prefix.cidr}"
    if _hash01(factory.seed, f"hidden:{prefix.cidr}") < factory.global_hidden_fraction:
        return False
    if _hash01(factory.seed, f"vis:{key}") >= source.visibility:
        return False
    if prefix.length > 24 and not source.keeps_specifics:
        if _hash01(factory.seed, f"leak:{key}") >= factory.specifics_leak:
            return False
    if _hash01(factory.seed, f"new:{prefix.cidr}") < factory.late_arrival_fraction:
        arrival_day = 1 + int(_hash01(factory.seed, f"newday:{prefix.cidr}") * 14)
        if when.day < arrival_day:
            return False
    if _hash01(factory.seed, f"flappy:{key}") < factory.flappy_fraction:
        if _hash01(factory.seed, f"flap:{key}:{when.label()}") < factory.flap_absence:
            return False
    return True


#: A non-default world: every rare population is common enough that
#: random draws land in it.
_DENSE = dict(
    flappy_fraction=0.3,
    late_arrival_fraction=0.3,
    global_hidden_fraction=0.1,
    specifics_leak=0.3,
)
_CUSTOM = SourceSpec("CUSTOM", KIND_BGP, FORMAT_MASK_LENGTH, 0.5)


@pytest.fixture(scope="module")
def factories(topology):
    """The default world and a dense one, each drawing its tables once."""
    return {False: SnapshotFactory(topology), True: SnapshotFactory(topology, **_DENSE)}


class TestHoistedDraws:
    """The per-factory draw tables answer exactly what the per-call
    formula answers, for any (source, prefix, day, slot)."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mask_matches_the_formula(self, factories, data):
        factory = factories[data.draw(st.booleans())]
        sources = [s for s in factory.sources if s.kind != KIND_REGISTRY] + [_CUSTOM]
        source = data.draw(st.sampled_from(sources))
        when = SnapshotTime(
            data.draw(st.integers(-2, 20)), data.draw(st.integers(0, 11))
        )
        mask = factory._visible_mask(source, when)
        announcements = factory._announcements
        # Bias the draw towards the rare populations.
        pools = {
            "any": list(range(len(announcements))),
            "specific": [i for i, (p, _) in enumerate(announcements) if p.length > 24],
            "late": list(factory._late),
            "hidden": [i for i, day in enumerate(factory._arrival) if day == 255],
            "flappy": list(factory._draws[source].flappy),
        }
        pool = pools[data.draw(st.sampled_from(sorted(pools)))] or pools["any"]
        index = data.draw(st.sampled_from(pool))
        prefix = announcements[index][0]
        assert bool(mask[index]) == _oracle_visible(factory, source, prefix, when)

    def test_whole_masks_match_the_formula(self, factories):
        for factory in factories.values():
            for source in (source_by_name("AADS"), source_by_name("AT&T-Forw"), _CUSTOM):
                for when in (SnapshotTime(0, 0), SnapshotTime(1, 3), SnapshotTime(7, 1)):
                    expected = bytearray(
                        _oracle_visible(factory, source, prefix, when)
                        for prefix, _ in factory._announcements
                    )
                    assert factory._visible_mask(source, when) == expected
        dense = factories[True]
        assert dense._late and 255 in dense._arrival and dense._draws[_CUSTOM].flappy
