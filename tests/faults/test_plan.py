"""Fault plans and injectors: validation, serialization, determinism."""

import pytest

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
    FaultInjector,
    FaultPlan,
    FaultSpec,
)


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec(site="worker.meltdown")

    def test_rejects_negative_at(self):
        with pytest.raises(ValueError, match="at must be"):
            FaultSpec(site=SITE_SERVE_CRASH, at=-1)

    @pytest.mark.parametrize("count", [0, -2])
    def test_rejects_bad_count(self, count):
        with pytest.raises(ValueError, match="count must be"):
            FaultSpec(site=SITE_SERVE_CRASH, count=count)

    def test_covers_window(self):
        spec = FaultSpec(site=SITE_SERVE_CRASH, at=2, count=3)
        assert [spec.covers(v) for v in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_covers_forever(self):
        spec = FaultSpec(site=SITE_SERVE_CRASH, at=1, count=-1)
        assert not spec.covers(0)
        assert all(spec.covers(v) for v in (1, 10, 10_000))


class TestFaultPlanSerialization:
    def _plan(self):
        return FaultPlan.build(
            FaultSpec(site=SITE_SERVE_CRASH, at=1, count=2),
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
            SITE_CHECKPOINT_TRUNCATE, SITE_LOG_TRUNCATE, SITE_SERVE_CRASH,
        )

    def test_from_dict_rejects_bad_site(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"specs": [{"site": "nope"}]})

    @pytest.mark.parametrize("data, message", [
        ([], "must be a JSON object"),
        ({"specs": {}}, "key 'specs' has a bad value"),
        ({"specs": ["serve.crash"]}, "must be a JSON object"),
        ({"specs": [{}]}, "spec has no site"),
        ({"specs": [{"site": 1}]}, "key 'site' has a bad value"),
        ({"specs": [{"site": SITE_SERVE_CRASH, "at": "0"}]},
         "key 'at' has a bad value"),
        ({"specs": [{"site": SITE_SERVE_CRASH, "count": True}]},
         "key 'count' has a bad value"),
        ({"specs": [{"site": SITE_SERVE_CRASH, "arg": None}]},
         "key 'arg' has a bad value"),
        ({"specs": [{"site": SITE_SERVE_CRASH, "shard": 0}]},
         "unknown fault spec key 'shard'"),
        ({"specs": [{"site": "worker.slow"}]}, "unknown injection site"),
        ({"specs": [{"site": "worker.crash"}]}, "unknown injection site"),
        ({"seed": 1.5}, "key 'seed' has a bad value"),
        ({"sead": 1}, "unknown fault plan key 'sead'"),
    ], ids=[
        "not-an-object", "specs-not-a-list", "spec-not-an-object",
        "spec-without-site", "site-not-a-string", "at-not-an-int",
        "count-a-bool", "arg-null", "removed-shard-field",
        "removed-slow-site", "removed-crash-site", "seed-a-float",
        "unknown-plan-key",
    ])
    def test_from_dict_rejects_malformed_plans(self, data, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.from_dict(data)

    def test_empty_plan_is_default(self):
        assert FaultPlan.from_dict({}) == FaultPlan()


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.build(
            FaultSpec(site=SITE_SERVE_CRASH, at=1, count=3),
            seed=99,
        )
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        decisions_a = [first.fire(SITE_SERVE_CRASH) for _ in range(6)]
        decisions_b = [second.fire(SITE_SERVE_CRASH) for _ in range(6)]
        assert decisions_a == decisions_b
        assert [spec is not None for spec in decisions_a] == [
            False, True, True, True, False, False,
        ]
        assert first.fired == second.fired

    def test_noop_injector_never_fires(self):
        injector = FaultInjector()
        assert all(
            injector.fire(SITE_SERVE_CRASH) is None for _ in range(100)
        )
        assert injector.total_fired == 0


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
            list(FaultInjector().wrap_lines([], SITE_SERVE_CRASH))


def test_all_sites_is_complete():
    assert set(ALL_SITES) == {
        SITE_CHECKPOINT_CORRUPT, SITE_CHECKPOINT_TRUNCATE,
        SITE_LOG_TRUNCATE, SITE_DUMP_MANGLE, SITE_SERVE_CRASH,
        SITE_SERVE_WAL_TORN, SITE_SERVE_WAL_ENOSPC, SITE_SERVE_DISCONNECT,
    }
    assert len(ALL_SITES) == 8
