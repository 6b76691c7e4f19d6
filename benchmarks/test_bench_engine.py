"""Engine benchmarks: packed-table batch LPM vs the radix trie, the
fast-path table kinds against each other, and the engine vs
single-pass ``cluster_log`` on the Nagano preset.

Claims pinned here (asserted at the default scale, recorded always):

* ``PackedLpm.lookup_many`` beats a ``RadixTree.longest_match`` loop on
  a ≥100 k-address batch — the compile-then-batch design is what buys
  the engine its throughput;
* ``StrideLpm.lookup_many`` beats ``PackedLpm.lookup_many`` ≥ 2x on the
  same batch (and ≥ 1x even at smoke scales — CI's perf gate);
* memoized end-to-end ingest beats the PR 1 ingest loop ≥ 1.5x (the
  PR 1 loop is frozen verbatim below so the baseline can't drift);
* one single-prefix route patch through memo → stride → packed is
  ≥ 50x cheaper than recompiling the table — a patch costs what the
  delta touches, not what the table holds;
* a WAL-mode serve checkpoint after 200 deltas on the 26 k-prefix
  table is ≤ a quarter of a pickle of the table's canonical columns — a
  checkpoint costs what the churn touched, not what the table holds (a
  byte count, no timing);
* the engine's clusters are identical to ``cluster_log``'s at every
  table kind, so the speed is not bought with drift.

Numbers land in ``BENCH_engine.json`` via the ``bench_trajectory``
fixture (see ``conftest.py``).
"""

import itertools
import os
import pickle
import statistics
import time

import pytest

from repro.core.clustering import cluster_log
from repro.engine.fastpath import MemoizedLookup, StrideLpm
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine import state as engine_state
from repro.engine.state import ClusterStore, _ClusterState, request_triples
from repro.bgp.table import RouteDelta
from repro.net.prefix import Prefix
from repro.serve import daemon as serve_daemon
from repro.serve.protocol import LogEvent

BATCH_TARGET = 120_000  # ≥100k lookups, per the acceptance bar


@pytest.fixture(scope="module")
def packed(merged_table):
    return PackedLpm.from_merged(merged_table)


@pytest.fixture(scope="module")
def stride(merged_table):
    return StrideLpm.from_merged(merged_table)


@pytest.fixture(scope="module")
def address_batch(nagano):
    entries = nagano.log.entries
    return [
        entry.client
        for entry in itertools.islice(itertools.cycle(entries), BATCH_TARGET)
    ]


def _best_of(repetitions, func):
    """Minimum wall-clock over ``repetitions`` runs — the standard guard
    against scheduler noise on a loaded box — plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repetitions):
        began = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - began)
    return best, result


def _best_of_interleaved(repetitions, funcs):
    """``_best_of`` over several contenders at once, round-robin: each
    round times every func back to back, so clock-frequency drift or a
    noisy neighbour mid-benchmark penalises all contenders equally
    instead of whichever happened to run last.  Returns parallel lists
    of best times and last results."""
    bests = [float("inf")] * len(funcs)
    results = [None] * len(funcs)
    for _ in range(repetitions):
        for which, func in enumerate(funcs):
            began = time.perf_counter()
            results[which] = func()
            bests[which] = min(bests[which], time.perf_counter() - began)
    return bests, results


class TestPackedVsRadix:
    def test_packed_batch_beats_radix_loop(self, merged_table, packed,
                                           address_batch):
        """The headline claim, measured head-to-head in one process.

        Best-of-3 on each side so a single descheduled run can't flip
        the comparison when the machine is busy.
        """
        tree = merged_table._radix()

        radix_seconds, radix_hits = _best_of(3, lambda: sum(
            1 for address in address_batch
            if tree.longest_match(address) is not None
        ))

        packed_seconds, indices = _best_of(
            3, lambda: packed.lookup_many(address_batch)
        )
        packed_hits = sum(1 for index in indices if index >= 0)

        assert packed_hits == radix_hits
        assert packed_seconds < radix_seconds, (
            f"packed lookup_many ({packed_seconds:.3f}s) should beat the "
            f"radix loop ({radix_seconds:.3f}s) on {len(address_batch):,} "
            "lookups"
        )
        print(
            f"\n{len(address_batch):,} lookups: "
            f"radix {len(address_batch) / radix_seconds:,.0f}/s, "
            f"packed {len(address_batch) / packed_seconds:,.0f}/s "
            f"({radix_seconds / packed_seconds:.1f}x)"
        )

    def test_bench_radix_longest_match_loop(self, benchmark, merged_table,
                                            address_batch):
        tree = merged_table._radix()

        def loop():
            return sum(
                1 for address in address_batch
                if tree.longest_match(address) is not None
            )

        hits = benchmark(loop)
        benchmark.extra_info["lookups_per_sec"] = (
            len(address_batch) / benchmark.stats.stats.mean
        )
        assert hits > 0

    def test_bench_packed_lookup_many(self, benchmark, packed, address_batch):
        indices = benchmark(packed.lookup_many, address_batch)
        benchmark.extra_info["lookups_per_sec"] = (
            len(address_batch) / benchmark.stats.stats.mean
        )
        assert sum(1 for index in indices if index >= 0) > 0


class TestEngineVsClusterLog:
    @pytest.fixture(scope="class")
    def baseline(self, nagano, merged_table):
        return cluster_log(nagano.log, merged_table)

    def test_bench_cluster_log_single_pass(self, benchmark, nagano,
                                           merged_table):
        result = benchmark(cluster_log, nagano.log, merged_table)
        assert len(result) > 0

    def test_bench_engine_ingest(self, benchmark, nagano, packed, baseline):
        entries = nagano.log.entries
        config = EngineConfig(chunk_size=8192)

        def run():
            with ShardedClusterEngine(packed, config) as engine:
                engine.ingest(request_triples(entries))
                return engine.snapshot()

        snapshot = benchmark(run)
        benchmark.extra_info["entries_per_sec"] = (
            len(entries) / benchmark.stats.stats.mean
        )
        assert _signature(snapshot) == _signature(baseline)


def _signature(cluster_set):
    return {
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes)
        for c in cluster_set.clusters
    }


def _pr1_apply_batch(store, triples, table):
    """The PR 1 ingest loop, frozen verbatim as the speedup baseline.

    This is ``ClusterStore.apply_batch`` exactly as first shipped —
    per-entry ``table.prefix``/cluster-dict probes, no index→state
    cache — so the "memoized ingest ≥ 1.5x over the PR 1 baseline"
    claim measures against a baseline that cannot quietly speed up as
    the live code improves.
    """
    indices = table.lookup_many([triple[0] for triple in triples])
    store.lookups_performed += len(triples)
    clusters = store._clusters
    unclustered = store._unclustered
    for (client, url, size), index in zip(triples, indices):
        if index < 0:
            unclustered[client] = unclustered.get(client, 0) + 1
            continue
        prefix = table.prefix(index)
        state = clusters.get(prefix)
        if state is None:
            value = table.value(index)
            state = clusters[prefix] = _ClusterState(
                source_kind=getattr(value, "source_kind", ""),
                source_name=getattr(value, "source_name", ""),
            )
        state.requests += 1
        state.total_bytes += size
        state.client_counts[client] = state.client_counts.get(client, 0) + 1
        state.urls.add(url)
    store.entries_applied += len(triples)
    return len(triples)


class TestFastpath:
    """The PR's speedup claims, measured head-to-head and recorded in
    ``BENCH_engine.json``.  No pytest-benchmark here: these tests run
    under CI's perf-smoke gate, where ``_best_of`` timing plus hard
    assertions is the point."""

    def test_table_build_times(self, merged_table, bench_trajectory):
        packed_seconds, packed_table = _best_of(
            3, lambda: PackedLpm.from_merged(merged_table)
        )
        stride_seconds, stride_table = _best_of(
            3, lambda: StrideLpm.from_merged(merged_table)
        )
        assert stride_table.digest() == packed_table.digest()
        bench_trajectory["results"]["table_build"] = {
            "entries": len(packed_table),
            "packed_seconds": round(packed_seconds, 6),
            "stride_seconds": round(stride_seconds, 6),
            "stride_direct_slots": stride_table.num_direct_slots,
        }
        print(
            f"\nbuild {len(packed_table):,} entries: "
            f"packed {packed_seconds * 1e3:.1f}ms, "
            f"stride {stride_seconds * 1e3:.1f}ms "
            f"({stride_table.num_direct_slots:,}/65,536 direct slots)"
        )

    def test_single_prefix_patch_beats_rebuild(self, merged_table,
                                               address_batch,
                                               bench_trajectory):
        """A single-prefix announce, then its withdraw, on the merged
        table behind a warm memo: each ≥ 50x cheaper than
        ``StrideLpm.from_merged``.  A ratio of two timings taken in one
        process, so the gate means the same on any box."""
        rebuild_seconds, inner = _best_of(
            3, lambda: StrideLpm.from_merged(merged_table)
        )
        table = MemoizedLookup(inner, 1 << 18)
        table.lookup_many(address_batch)  # evicting from it is patch cost
        entries = len(inner)
        live = {prefix for prefix, _ in inner.items()}
        # New more-specifics spread over the whole address space.
        fresh = [
            Prefix(prefix.network, prefix.length + 2)
            for prefix in sorted(live)[:: max(1, entries // 64)]
            if prefix.length <= 30
        ]
        fresh = [prefix for prefix in fresh if prefix not in live]
        # The first patch materialises the table's sorted view: set-up.
        table.apply_delta([(fresh[0], "warm")], [])
        table.apply_delta([], [fresh[0]])
        announce_times, withdraw_times = [], []
        for prefix in fresh:
            began = time.perf_counter()
            table.apply_delta([(prefix, "bench")], [])
            announce_times.append(time.perf_counter() - began)
            began = time.perf_counter()
            table.apply_delta([], [prefix])
            withdraw_times.append(time.perf_counter() - began)
        table.verify_patched()
        assert len(table) == entries

        announce_p50 = statistics.median(announce_times)
        withdraw_p50 = statistics.median(withdraw_times)
        ratio = rebuild_seconds / max(announce_p50, withdraw_p50)
        bench_trajectory["results"]["patch_latency"] = {
            "entries": entries,
            "memo_entries": table.memo_size,
            "patches": 2 * len(fresh),
            "announce_p50_ms": round(announce_p50 * 1e3, 4),
            "withdraw_p50_ms": round(withdraw_p50 * 1e3, 4),
            "rebuild_seconds": round(rebuild_seconds, 6),
            "rebuild_vs_patch": round(ratio, 1),
        }
        print(
            f"\n{2 * len(fresh)} single-prefix patches on {entries:,} "
            f"entries ({table.memo_size:,} memoized): announce "
            f"{announce_p50 * 1e3:.3f}ms, withdraw {withdraw_p50 * 1e3:.3f}ms "
            f"vs rebuild {rebuild_seconds * 1e3:.1f}ms ({ratio:.0f}x)"
        )
        assert ratio >= 50, (
            f"a single-prefix patch is only {ratio:.0f}x cheaper than a "
            "rebuild (needs >= 50x): something table-sized crept back "
            "into apply_delta"
        )

    def test_checkpoint_cost_tracks_churn_not_table(self, merged_table,
                                                    address_batch, tmp_path,
                                                    monkeypatch,
                                                    bench_trajectory):
        """Write + verify-read one WAL-mode serve checkpoint of the
        merged stride table after 200 route deltas.  The gate is a ratio
        of two byte counts: the file against a pickle of the table's
        canonical columns (intervals, entries and stride overlay, as a
        from-scratch compile holds them)."""
        inner = StrideLpm.from_merged(merged_table)
        entries = len(inner)
        live = sorted(prefix for prefix, _ in inner.items())
        picked = live[:: max(1, len(live) // 200)][:200]
        deltas = [
            # Withdraw every fourth live prefix, announce a new
            # more-specific inside each of the others.
            RouteDelta(RouteDelta.OP_WITHDRAW, prefix, source="bench")
            if index % 4 == 0 or prefix.length > 30
            else RouteDelta(
                RouteDelta.OP_ANNOUNCE,
                Prefix(prefix.network, prefix.length + 2),
                origin_asn=64500 + index,
                source="bench",
            )
            for index, prefix in enumerate(picked)
        ]
        timings = {}

        def timed(module, name):
            func = getattr(module, name)

            def wrapper(*args, **kwargs):
                began = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    timings[name] = time.perf_counter() - began

            monkeypatch.setattr(module, name, wrapper)

        # The daemon calls its imported write_checkpoint; the read-back
        # is engine.state.write_verified_checkpoint calling its own
        # module's read_checkpoint.
        timed(serve_daemon, "write_checkpoint")
        timed(engine_state, "read_checkpoint")
        path = str(tmp_path / "serve.ckpt")
        daemon = serve_daemon.ServeDaemon(
            MemoizedLookup(inner, 1 << 18),
            serve_daemon.ServeConfig(
                checkpoint_path=path, wal_dir=str(tmp_path / "wal")
            ),
        )
        daemon.attach_wal()
        for delta, client in zip(deltas, address_batch):
            daemon.feed(delta)
            daemon.feed(LogEvent(client=client, url="/", size=1))
        daemon.checkpoint_now()
        daemon.abort()

        size = os.path.getsize(path)
        ranks = inner._ranks()
        table_pickle = len(pickle.dumps(
            (inner._packed_columns(ranks), inner._overlay_columns(ranks)),
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        health = daemon.health()
        assert health["checkpoint_bytes"] == size
        assert health["route_diff"] == len(deltas)
        bench_trajectory["results"]["checkpoint_latency"] = {
            "write_ms": round(timings["write_checkpoint"] * 1e3, 3),
            "verify_read_ms": round(timings["read_checkpoint"] * 1e3, 3),
            "bytes": size,
            "table_prefixes": entries,
            "diff_prefixes": health["route_diff"],
            "full_table_pickle_bytes": table_pickle,
        }
        print(
            f"\nserve checkpoint after {len(deltas)} deltas on "
            f"{entries:,} prefixes: {size:,} bytes (table pickle "
            f"{table_pickle:,}), write "
            f"{timings['write_checkpoint'] * 1e3:.1f}ms, verify-read "
            f"{timings['read_checkpoint'] * 1e3:.1f}ms"
        )
        assert size <= 0.25 * table_pickle, (
            f"a checkpoint after {len(deltas)} deltas is {size:,} bytes "
            f"against a {table_pickle:,}-byte table pickle (needs <= 25%): "
            "something table-sized crept back into checkpoint_now"
        )

    def test_stride_lookup_beats_packed(self, packed, stride, address_batch,
                                        full_scale, bench_trajectory):
        """StrideLpm.lookup_many ≥ 2x PackedLpm.lookup_many (≥ 1x at
        smoke scales), on identical results."""
        memoized = MemoizedLookup(stride, 1 << 18)
        memoized.lookup_many(address_batch)  # warm: steady-state rate
        (
            (packed_seconds, stride_seconds, memo_seconds),
            (packed_indices, stride_indices, memo_indices),
        ) = _best_of_interleaved(5, [
            lambda: packed.lookup_many(address_batch),
            lambda: stride.lookup_many(address_batch),
            lambda: memoized.lookup_many(address_batch),
        ])
        assert stride_indices == packed_indices
        assert memo_indices == packed_indices

        speedup = packed_seconds / stride_seconds
        batch = len(address_batch)
        bench_trajectory["results"]["lookup_many"] = {
            "batch_size": batch,
            "packed_per_sec": round(batch / packed_seconds),
            "stride_per_sec": round(batch / stride_seconds),
            "memoized_warm_per_sec": round(batch / memo_seconds),
            "stride_vs_packed": round(speedup, 3),
        }
        print(
            f"\n{batch:,} lookups: packed {batch / packed_seconds:,.0f}/s, "
            f"stride {batch / stride_seconds:,.0f}/s ({speedup:.2f}x), "
            f"memoized(warm) {batch / memo_seconds:,.0f}/s"
        )
        floor = 2.0 if full_scale else 1.0
        assert speedup >= floor, (
            f"stride lookup_many is only {speedup:.2f}x packed "
            f"(needs >= {floor}x at this scale)"
        )

    def test_memoized_ingest_beats_pr1_loop(self, nagano, merged_table,
                                            packed, stride, full_scale,
                                            bench_trajectory):
        """End-to-end: stride+memo engine ingest ≥ 1.5x the frozen PR 1
        loop over the same entries, with identical clusters."""
        entries = nagano.log.entries
        chunk = 8192

        def pr1_run():
            store = ClusterStore()
            for lo in range(0, len(entries), chunk):
                block = entries[lo:lo + chunk]
                _pr1_apply_batch(
                    store,
                    [(e.client, e.url, e.size) for e in block],
                    packed,
                )
            return store.snapshot(nagano.log.name, "network_aware")

        def engine_run(make_table):
            config = EngineConfig(num_shards=1, chunk_size=chunk)
            with ShardedClusterEngine(make_table(), config) as engine:
                engine.ingest(request_triples(entries))
                return engine.snapshot()

        # A fresh memo per run: the end-to-end number includes the
        # cold first pass, not just the steady state.
        (
            (pr1_seconds, packed_seconds, stride_seconds, memo_seconds),
            (pr1_snapshot, packed_snapshot, stride_snapshot, memo_snapshot),
        ) = _best_of_interleaved(5, [
            pr1_run,
            lambda: engine_run(lambda: packed),
            lambda: engine_run(lambda: stride),
            lambda: engine_run(lambda: MemoizedLookup(stride, 1 << 18)),
        ])

        assert _signature(packed_snapshot) == _signature(pr1_snapshot)
        assert _signature(stride_snapshot) == _signature(pr1_snapshot)
        assert _signature(memo_snapshot) == _signature(pr1_snapshot)

        count = len(entries)
        speedup = pr1_seconds / memo_seconds
        bench_trajectory["results"]["ingest"] = {
            "entries": count,
            "pr1_loop_per_sec": round(count / pr1_seconds),
            "packed_per_sec": round(count / packed_seconds),
            "stride_per_sec": round(count / stride_seconds),
            "memoized_per_sec": round(count / memo_seconds),
            "memoized_vs_pr1": round(speedup, 3),
        }
        print(
            f"\ningest {count:,} entries: pr1 {count / pr1_seconds:,.0f}/s, "
            f"packed {count / packed_seconds:,.0f}/s, "
            f"stride {count / stride_seconds:,.0f}/s, "
            f"stride+memo {count / memo_seconds:,.0f}/s "
            f"({speedup:.2f}x vs pr1)"
        )
        if full_scale:
            assert speedup >= 1.5, (
                f"memoized ingest is only {speedup:.2f}x the PR 1 loop "
                "(needs >= 1.5x at the default scale)"
            )
