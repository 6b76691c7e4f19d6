"""Fault plans and injectors: validation, serialization, determinism."""

import pytest

from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.faults import (
    ALL_SITES,
    SITE_CHECKPOINT_CORRUPT,
    SITE_CHECKPOINT_TRUNCATE,
    SITE_DUMP_MANGLE,
    SITE_LOG_TRUNCATE,
    SITE_SERVE_CRASH,
    SITE_SERVE_DISCONNECT,
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_WAL_TORN,
    SITE_WORKER_CRASH,
    SITE_WORKER_SLOW,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.net.prefix import Prefix


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec(site="worker.meltdown")

    def test_rejects_negative_at(self):
        with pytest.raises(ValueError, match="at must be"):
            FaultSpec(site=SITE_WORKER_CRASH, at=-1)

    @pytest.mark.parametrize("count", [0, -2])
    def test_rejects_bad_count(self, count):
        with pytest.raises(ValueError, match="count must be"):
            FaultSpec(site=SITE_WORKER_CRASH, count=count)

    def test_covers_window(self):
        spec = FaultSpec(site=SITE_WORKER_CRASH, at=2, count=3)
        assert [spec.covers(v) for v in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_covers_forever(self):
        spec = FaultSpec(site=SITE_WORKER_CRASH, at=1, count=-1)
        assert not spec.covers(0)
        assert all(spec.covers(v) for v in (1, 10, 10_000))


class TestFaultPlanSerialization:
    def _plan(self):
        return FaultPlan.build(
            FaultSpec(site=SITE_WORKER_CRASH, at=1, count=2, shard=0),
            FaultSpec(site=SITE_CHECKPOINT_TRUNCATE, arg=0.5),
            FaultSpec(site=SITE_LOG_TRUNCATE, arg=100),
            seed=7,
        )

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = self._plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_sites_are_sorted_and_unique(self):
        assert self._plan().sites() == (
            SITE_CHECKPOINT_TRUNCATE, SITE_LOG_TRUNCATE, SITE_WORKER_CRASH,
        )

    def test_from_dict_rejects_bad_site(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"specs": [{"site": "nope"}]})

    def test_empty_plan_is_default(self):
        assert FaultPlan.from_dict({}) == FaultPlan()


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.build(
            FaultSpec(site=SITE_WORKER_CRASH, at=1, count=3),
            seed=99,
        )
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        decisions_a = [first.worker_directive(8) for _ in range(6)]
        decisions_b = [second.worker_directive(8) for _ in range(6)]
        assert decisions_a == decisions_b
        assert first.fired == second.fired

    def test_noop_injector_never_fires(self):
        injector = FaultInjector()
        assert all(
            injector.worker_directive(4) is None for _ in range(100)
        )
        assert injector.total_fired == 0


class TestWorkerDirectives:
    def test_pinned_shard_is_respected(self):
        plan = FaultPlan.build(
            FaultSpec(site=SITE_WORKER_CRASH, at=0, shard=2)
        )
        directive = FaultInjector(plan).worker_directive(4)
        assert directive == (2, SITE_WORKER_CRASH, 0.0)

    def test_out_of_range_shard_falls_back_to_rng(self):
        plan = FaultPlan.build(
            FaultSpec(site=SITE_WORKER_CRASH, at=0, shard=99), seed=3
        )
        shard, site, _ = FaultInjector(plan).worker_directive(4)
        assert 0 <= shard < 4
        assert site == SITE_WORKER_CRASH

    def test_slow_directive_sleeps_then_returns(self, monkeypatch):
        # The engine executes directives: worker.slow sleeps, then the
        # chunk applies as usual.
        slept = []
        monkeypatch.setattr("repro.engine.shard.time.sleep", slept.append)
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), None)])
        plan = FaultPlan.build(FaultSpec(site=SITE_WORKER_SLOW, arg=0.25))
        engine = ShardedClusterEngine(
            table, EngineConfig(num_shards=2), injector=FaultInjector(plan)
        )
        assert engine.apply_chunk([(0x0A000001, "/a", 1)]) == 1
        assert slept == [0.25]
        assert engine.entries_ingested == 1


class TestFileDamage:
    def test_corrupt_flips_one_byte(self, tmp_path):
        path = tmp_path / "ckpt"
        original = bytes(range(256)) * 8
        path.write_bytes(original)
        injector = FaultInjector(
            FaultPlan.build(FaultSpec(site=SITE_CHECKPOINT_CORRUPT), seed=1)
        )
        assert injector.damage_file(str(path)) == SITE_CHECKPOINT_CORRUPT
        damaged = path.read_bytes()
        assert len(damaged) == len(original)
        diffs = [i for i, (a, b) in enumerate(zip(original, damaged)) if a != b]
        assert len(diffs) == 1
        assert diffs[0] >= len(original) // 2  # payload, not header

    def test_truncate_keeps_fraction(self, tmp_path):
        path = tmp_path / "ckpt"
        path.write_bytes(b"x" * 1000)
        injector = FaultInjector(
            FaultPlan.build(
                FaultSpec(site=SITE_CHECKPOINT_TRUNCATE, arg=0.25)
            )
        )
        assert injector.damage_file(str(path)) == SITE_CHECKPOINT_TRUNCATE
        assert path.stat().st_size == 250

    def test_unarmed_damage_is_noop(self, tmp_path):
        path = tmp_path / "ckpt"
        path.write_bytes(b"intact")
        assert FaultInjector().damage_file(str(path)) is None
        assert path.read_bytes() == b"intact"


class TestLineWrapping:
    def test_log_truncate_cuts_the_stream(self):
        injector = FaultInjector(
            FaultPlan.build(FaultSpec(site=SITE_LOG_TRUNCATE, arg=2))
        )
        lines = ["a\n", "b\n", "c\n", "d\n"]
        assert list(injector.wrap_lines(lines, SITE_LOG_TRUNCATE)) == [
            "a\n", "b\n",
        ]
        assert injector.fired[SITE_LOG_TRUNCATE] == 1

    def test_dump_mangle_replaces_armed_lines(self):
        injector = FaultInjector(
            FaultPlan.build(FaultSpec(site=SITE_DUMP_MANGLE, at=1, count=1))
        )
        lines = ["10.0.0.0/8\n", "11.0.0.0/8\n", "12.0.0.0/8\n"]
        wrapped = list(injector.wrap_lines(lines, SITE_DUMP_MANGLE))
        assert wrapped[0] == "10.0.0.0/8\n"
        assert "mangled" in wrapped[1]
        assert wrapped[2] == "12.0.0.0/8\n"

    def test_unarmed_wrap_is_identity(self):
        lines = ["one\n", "two\n"]
        assert list(FaultInjector().wrap_lines(lines, SITE_LOG_TRUNCATE)) == lines

    def test_wrap_rejects_non_stream_sites(self):
        with pytest.raises(ValueError, match="wrap_lines"):
            list(FaultInjector().wrap_lines([], SITE_WORKER_CRASH))


def test_all_sites_is_complete():
    assert set(ALL_SITES) == {
        SITE_WORKER_CRASH, SITE_WORKER_SLOW,
        SITE_CHECKPOINT_CORRUPT, SITE_CHECKPOINT_TRUNCATE,
        SITE_LOG_TRUNCATE, SITE_DUMP_MANGLE, SITE_SERVE_CRASH,
        SITE_SERVE_WAL_TORN, SITE_SERVE_WAL_ENOSPC, SITE_SERVE_DISCONNECT,
    }
    assert len(ALL_SITES) == 10
