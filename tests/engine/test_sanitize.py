"""REPRO_SANITIZE=1: invariant checks, byte-identity, counter plumbing."""

import random

import pytest

from repro.analysis import sanitize
from repro.engine.fastpath import PackedBatch, build_lpm_table
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.state import ClusterStore, request_triples
from repro.errors import SanitizeError
from repro.util.rng import make_rng


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes, c.source_kind, c.source_name)
        for c in cluster_set.clusters
    }


@pytest.fixture
def sanitized():
    """Arm the sanitizers for one test, starting from drained counters."""
    previous = sanitize.set_enabled(True)
    sanitize.take_stats()
    yield
    sanitize.set_enabled(previous)
    sanitize.take_stats()


@pytest.fixture
def desanitized():
    """Force the sanitizers off (the suite may run under REPRO_SANITIZE=1)."""
    previous = sanitize.set_enabled(False)
    yield
    sanitize.set_enabled(previous)
    sanitize.take_stats()


class TestEnabling:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1", True), ("true", True), ("on", True), ("yes", True),
            ("TRUE", True),
            ("0", False), ("", False), ("false", False), ("off", False),
            ("no", False), ("  0  ", False),
        ],
    )
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(sanitize.ENV_VAR, value)
        assert sanitize._env_enabled() is expected

    def test_unset_env_means_disabled(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert sanitize._env_enabled() is False

    def test_set_enabled_returns_previous(self):
        previous = sanitize.set_enabled(True)
        try:
            assert sanitize.is_enabled()
            assert sanitize.set_enabled(previous) is True
        finally:
            sanitize.set_enabled(previous)
        assert sanitize.is_enabled() is previous


class TestGuardBatch:
    def test_consistent_batch_passes_and_counts(self, sanitized):
        batch = PackedBatch.from_triples(
            [(0x0A000001, "/a", 100), (0x0A000002, "/a", 200)]
        )
        sanitize.guard_batch(batch)
        checks, _, _ = sanitize.take_stats()
        assert checks == 1

    def test_parallel_array_drift_raises(self, sanitized):
        batch = PackedBatch.from_triples([(0x0A000001, "/a", 100)])
        batch.sizes.append(999)  # simulate a mutated-after-freeze batch
        with pytest.raises(SanitizeError, match="parallel arrays"):
            sanitize.guard_batch(batch)

    def test_url_id_out_of_range_raises(self, sanitized):
        batch = PackedBatch.from_triples([(0x0A000001, "/a", 100)])
        batch.urls.pop()
        with pytest.raises(SanitizeError, match="out of range"):
            sanitize.guard_batch(batch)

    def test_apply_packed_guards_when_armed(self, sanitized, merged_table):
        table = build_lpm_table("stride", merged_table)
        batch = PackedBatch.from_triples([(0x0A000001, "/a", 100)])
        batch.addresses.append(0x0A000002)  # arrays now disagree
        with pytest.raises(SanitizeError):
            ClusterStore().apply_packed(batch, table)

    def test_apply_packed_skips_guard_when_disarmed(self, desanitized,
                                                    merged_table):
        table = build_lpm_table("stride", merged_table)
        batch = PackedBatch.from_triples(
            [(0x0A000001, "/a", 100), (0x0A000002, "/b", 50)]
        )
        store = ClusterStore()
        store.apply_packed(batch, table)
        assert store.entries_applied == 2
        assert sanitize.take_stats() == (0, 0, 0)


class TestLpmCrosscheck:
    def test_sampling_clock_fires_once_per_interval(self, sanitized):
        # The clock is monotonic for the life of the process (earlier
        # tests may have advanced it), so assert over a window: any
        # 2*INTERVAL consecutive calls contain exactly two sampled
        # ones, INTERVAL apart.
        due = [sanitize.crosscheck_due()
               for _ in range(2 * sanitize.CROSSCHECK_INTERVAL)]
        hits = [index for index, flag in enumerate(due) if flag]
        assert len(hits) == 2
        assert hits[1] - hits[0] == sanitize.CROSSCHECK_INTERVAL

    def test_lookup_many_identical_with_sanitize(self, merged_table):
        stride = build_lpm_table("stride", merged_table)
        rng = random.Random(7)
        addresses = [rng.getrandbits(32) for _ in range(500)]
        previous = sanitize.set_enabled(False)
        try:
            plain = stride.lookup_many(addresses)
            sanitize.set_enabled(True)
            sanitize.take_stats()
            sanitize._STATS.crosscheck_clock = 0  # make the next call sampled
            checked = stride.lookup_many(addresses)
            _, crosschecks, _ = sanitize.take_stats()
        finally:
            sanitize.set_enabled(previous)
        assert checked == plain
        assert crosschecks == 1

    def test_accepts_one_shot_iterator(self, sanitized, merged_table):
        stride = build_lpm_table("stride", merged_table)
        addresses = [0x0A000001, 0xC0A80101, 0x08080808]
        assert stride.lookup_many(iter(addresses)) == \
            stride.lookup_many(addresses)

    def test_tampered_stride_index_is_caught(self, sanitized, merged_table):
        stride = build_lpm_table("stride", merged_table)
        addresses = list(range(0, 2**32, 2**24))  # one per /8 block
        healthy = stride.lookup_many(addresses)
        # Corrupt every direct slot the probe addresses hit: point it at
        # a different (valid) entry index than the intervals say.
        wrong = (max(healthy) + 1) % max(len(list(stride.items())), 2)
        for address in addresses:
            slot = address >> 16
            if stride._slots[slot] >= -1:
                stride._slots[slot] = wrong
        with pytest.raises(SanitizeError, match="cross-check failed"):
            # The sampling clock fires at least once per INTERVAL calls.
            for _ in range(sanitize.CROSSCHECK_INTERVAL + 1):
                stride.lookup_many(addresses)


class TestCountingRng:
    """make_rng stays a plain random.Random: there is no counting wrapper."""

    def test_sequence_identical_to_plain_random(self, sanitized):
        rng = make_rng(123)
        assert type(rng) is random.Random
        plain = random.Random(123)
        drawn = [rng.random(), rng.randint(0, 10**9),
                 rng.gauss(0, 1), rng.getrandbits(64)]
        expected = [plain.random(), plain.randint(0, 10**9),
                    plain.gauss(0, 1), plain.getrandbits(64)]
        assert drawn == expected
        assert sanitize.take_stats() == (0, 0, 0)

    def test_disabled_returns_uninstrumented_rng(self, desanitized):
        rng = make_rng(5)
        assert type(rng) is random.Random
        rng.random()
        assert sanitize.take_stats() == (0, 0, 0)


class TestEngineEndToEnd:
    """Acceptance: a sanitized run is byte-identical and visibly checked."""

    def _run(self, nagano_log, merged_table):
        table = build_lpm_table("stride", merged_table)
        config = EngineConfig(num_shards=2, chunk_size=2048,
                              name=nagano_log.log.name)
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest(request_triples(nagano_log.log.entries))
            return engine.snapshot(), engine.metrics.snapshot()

    def test_inline_run_identical_and_counted(self, nagano_log, merged_table):
        previous = sanitize.set_enabled(False)
        try:
            baseline, base_metrics = self._run(nagano_log, merged_table)
            sanitize.set_enabled(True)
            sanitize.take_stats()
            checked, metrics = self._run(nagano_log, merged_table)
        finally:
            sanitize.set_enabled(previous)
            sanitize.take_stats()
        assert _signature(checked) == _signature(baseline)
        assert sorted(checked.unclustered_clients) == sorted(
            baseline.unclustered_clients
        )
        # The engine applies tuple batches, so the PackedBatch guard
        # stays quiet here — TestGuardBatch covers it.
        assert metrics["sanitize_lpm_crosschecks"] > 0
        assert base_metrics["sanitize_lpm_crosschecks"] == 0
        assert base_metrics["sanitize_batch_checks"] == 0

    def test_checkpoint_readback_counted(self, tmp_path, nagano_log,
                                         merged_table, sanitized):
        table = build_lpm_table("stride", merged_table)
        config = EngineConfig(num_shards=2, chunk_size=2048)
        with ShardedClusterEngine(table, config) as engine:
            engine.ingest(request_triples(nagano_log.log.entries[:1000]))
            engine.checkpoint(str(tmp_path / "run.ckpt"))
            snap = engine.metrics.snapshot()
        assert snap["sanitize_checkpoint_readbacks"] == 1
        assert snap["checkpoints_written"] == 1

    def test_sanitize_counters_render(self, sanitized):
        from repro.engine.metrics import EngineMetrics

        metrics = EngineMetrics(num_shards=1)
        metrics.record_sanitize(3, 2, 1)
        rendered = metrics.render()
        assert "sanitize_batch_checks" in rendered
        assert "sanitize_lpm_crosschecks" in rendered
        assert "sanitize_checkpoint_readbacks" in rendered


def test_engine_and_daemon_do_not_load_the_lint_engine(loaded_modules):
    """The hot modules import ``repro.analysis.sanitize``; the package
    ``__init__`` must not drag the lint engine in behind it."""
    modules = loaded_modules("import repro.engine.fastpath, repro.serve.daemon")
    assert [m for m in modules if m.startswith("repro.analysis.")] == [
        "repro.analysis.sanitize"
    ]
