"""What the benchmark measures: workloads, metrics, configuration.

Pure data — imports nothing from ``repro`` — so ``BENCHMARK.json`` can
be checked against it (``bench/tests/test_spec.py``) and the README
tables regenerated from it.  Workload and metric names are fixed: later
issues cite them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: Input events per latency sample: a *slice* is the time the system
#: takes to absorb this many consecutive events at the feed boundary.
SLICE_EVENTS = 256

#: Default measured seconds per run and input scale.  ``--scale 1.0``
#: is the issue's full-size inputs (780 k log lines, 6.2 M triples,
#: 260 k-request streams: 10–30 s per pass on a 2-core box); the
#: default shrinks one pass to 1–4 s so that a run — generate, set up,
#: ≥ ``DEFAULT_SECONDS`` of measured passes, verify — fits the
#: driver's per-run time cap.  Passes repeat until the measured time
#: is used up, so a faster system is measured over more passes, not a
#: shorter time.
DEFAULT_SECONDS = 15
DEFAULT_SCALE = 0.2

#: The common configuration every workload runs under (CLI defaults,
#: except the table kind, which the issue fixes to the fastest layout).
CONFIG = {
    "lpm": "stride",
    "memo_size": 65536,
    "chunk_size": 8192,
    "batch_size": 4096,
    "wal_sync_every": 64,
    "wal_segment_bytes": 4 << 20,
    "log_preset": "nagano",
    "delta_source": "AADS",
    "top": 20,
}


def sizes(scale: float) -> Dict[str, float]:
    """Event counts for ``scale`` (1.0 = the issue's full-size run)."""

    def scaled(count: int) -> int:
        return max(1, round(count * scale))

    return {
        # nagano preset multiplier: 260 k requests x 3 = 780 k log lines
        "log_preset_scale": 3.0 * scale,
        "sharded_cycles": 8,
        "sharded_shards": 2,
        "churn_requests": scaled(260_000),
        "churn_delta_every": 250,
        "durable_requests": scaled(260_000),
        "durable_burst": 8,
        "durable_burst_every": scaled(10_000),
        # One periodic checkpoint per pass (plus the final one and the
        # recovery read-back), not the issue's five: a WAL-mode
        # checkpoint costs ~0.5 s whatever the scale, so at the default
        # scale five would be half the pass — and, as 0.5 s monolithic
        # stalls, the half the feed clock cannot correct for the
        # machine's speed.  The aborted tail stays 30 k x scale events.
        "durable_checkpoint_every": scaled(150_000),
        "durable_abort_after": scaled(180_000),
    }


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: List[Workload] = [
    Workload(
        "batch_file",
        "CLF file -> iter_clf_entries -> SupervisedEngine (1 shard) -> "
        "report, as repro-engine users run it: the parser does ~90% of "
        "the work; serve, WAL and patching do none.",
    ),
    Workload(
        "batch_sharded",
        "Pre-parsed triples cycled 8x -> ShardedClusterEngine, 2 shards, "
        "default transport: bypasses the parser so lookup, fold and "
        "transport do all the work; memo hit rate -> 1.",
    ),
    Workload(
        "serve_churn",
        "ndjson stream with one route delta per 250 requests -> "
        "ServeDaemon, no WAL: apply_delta + reassign_clients dominate, "
        "so the table is written beside being read.",
    ),
    Workload(
        "serve_durable",
        "Same serve loop with WAL and periodic checkpoints, coalesced "
        "delta bursts, an abort mid-stream and recover(): durability "
        "layers do most of the work, patching almost none.",
    ),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "events_per_s", "1/s", "higher", 0.22,
        "input events (CLF lines, triples, ndjson lines) per second from "
        "the first event handed over to the report rendered, in seconds "
        "normalised to the reference machine; median over the run's passes",
    ),
    EndToEnd(
        "slice_p50_ms", "ms", "lower", 0.22,
        "median over slice positions of the (normalised) time to absorb "
        "256 consecutive events at the feed boundary, each position "
        "taken as its median over the run's passes",
    ),
    EndToEnd(
        "slice_p99_ms", "ms", "lower", 0.24,
        "99th percentile over the same positions: the feeder's "
        "back-pressure stall a patch, flush or checkpoint imposes on a "
        "live stream",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the workload child plus its reaped children "
        "(shard workers)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "normalised seconds to generate the workload's inputs plus, in "
        "the child, load tables, build the LPM table and load inputs "
        "(median of three child-side set-ups)",
    ),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


class LayerGroup(NamedTuple):
    """Metrics measured around the same public callables, with the
    end-to-end metric and workload they should move; on every other
    workload the prediction is *no change*."""

    metrics: List[PerLayer]
    around: str
    moves: str


LAYER_GROUPS: List[LayerGroup] = [
    LayerGroup(
        [
            PerLayer("weblog.parser.busy_s", "s", "lower"),
            PerLayer("weblog.parser.lines", "count", "higher"),
            PerLayer("weblog.parser.malformed", "count", "lower"),
            PerLayer("weblog.parser.us_per_line", "us", "lower"),
        ],
        "iter_clf_entries iteration",
        "events_per_s, slice_p50_ms @ batch_file",
    ),
    LayerGroup(
        [
            PerLayer("engine.fastpath.lookup_s", "s", "lower"),
            PerLayer("engine.fastpath.lookups", "count", "higher"),
            PerLayer("engine.fastpath.memo_hit_rate", "ratio", "higher"),
        ],
        "lookup_many on the built table (driver plus forked shard "
        "workers); EngineMetrics.snapshot()",
        "events_per_s @ batch_sharded; small @ batch_file",
    ),
    LayerGroup(
        [
            PerLayer("engine.fastpath.pack_s", "s", "lower"),
        ],
        "PackedBatch.from_triples / partition",
        "events_per_s @ batch_sharded",
    ),
    LayerGroup(
        [
            PerLayer("engine.fastpath.build_s", "s", "lower"),
            PerLayer("cli.load_tables_s", "s", "lower"),
        ],
        "build_lpm_table, load_tables (median of the child's set-ups)",
        "setup_s @ all",
    ),
    LayerGroup(
        [
            PerLayer("engine.state.fold_s", "s", "lower"),
            PerLayer("engine.state.fold_entries", "count", "higher"),
        ],
        "ClusterStore.apply_batch / apply_packed / apply_entries self "
        "time, lookup excluded (driver plus forked shard workers)",
        "events_per_s @ batch_sharded; second-order @ serve rows",
    ),
    LayerGroup(
        [
            PerLayer("engine.state.snapshot_s", "s", "lower"),
            PerLayer("cli.report_s", "s", "lower"),
        ],
        "ClusterStore.snapshot, print_cluster_report",
        "events_per_s @ all (tail cost)",
    ),
    LayerGroup(
        [
            PerLayer("engine.shard.apply_chunk_s", "s", "lower"),
            PerLayer("engine.shard.chunks", "count", "lower"),
            PerLayer("engine.shard.drain_s", "s", "lower"),
            PerLayer("engine.shard.skew", "ratio", "lower"),
            PerLayer("engine.shard.speedup_vs_inline", "ratio", "higher"),
        ],
        "ingest / ingest_triples / apply_chunk self time (dispatch and "
        "waiting for workers), final snapshot + close; the same triples "
        "through num_shards=1 as the single-process baseline",
        "events_per_s, slice_p99_ms, peak_rss_mb @ batch_sharded",
    ),
    LayerGroup(
        [
            PerLayer("serve.protocol.split_s", "s", "lower"),
            PerLayer("serve.protocol.parse_s", "s", "lower"),
            PerLayer("serve.protocol.events", "count", "higher"),
            PerLayer("serve.protocol.bytes", "bytes", "higher"),
        ],
        "LineSplitter.push / next_line, parse_event",
        "events_per_s, slice_p50_ms @ serve_churn, serve_durable",
    ),
    LayerGroup(
        [
            PerLayer("serve.daemon.feed_self_s", "s", "lower"),
            PerLayer("serve.daemon.flushes", "count", "lower"),
            PerLayer("serve.daemon.finish_s", "s", "lower"),
        ],
        "submit / pump / feed self time, finish self time",
        "events_per_s @ serve_churn, serve_durable",
    ),
    LayerGroup(
        [
            PerLayer("engine.packed.apply_delta_s", "s", "lower"),
            PerLayer("engine.packed.patches", "count", "higher"),
            PerLayer("engine.packed.apply_delta_p50_ms", "ms", "lower"),
            PerLayer("engine.packed.rebuild_fallbacks", "count", "lower"),
        ],
        "table.apply_delta (memo -> stride -> packed counted once)",
        "events_per_s, slice_p50_ms, slice_p99_ms @ serve_churn",
    ),
    LayerGroup(
        [
            PerLayer("engine.state.reassign_s", "s", "lower"),
            PerLayer("engine.state.clients_moved", "count", "lower"),
            PerLayer("engine.state.moved_per_patch", "ratio", "lower"),
        ],
        "ClusterStore.reassign_clients",
        "events_per_s, slice_p50_ms, slice_p99_ms @ serve_churn",
    ),
    LayerGroup(
        [
            PerLayer("serve.protocol.encode_s", "s", "lower"),
            PerLayer("serve.wal.append_s", "s", "lower"),
            PerLayer("serve.wal.appends", "count", "higher"),
            PerLayer("serve.wal.syncs", "count", "lower"),
            PerLayer("serve.wal.bytes", "bytes", "lower"),
            PerLayer("serve.wal.rotations", "count", "lower"),
        ],
        "LogEvent.to_json / RouteDelta.to_json, WalWriter.append",
        "events_per_s, slice_p50_ms @ serve_durable",
    ),
    LayerGroup(
        [
            PerLayer("engine.state.checkpoint_write_s", "s", "lower"),
            PerLayer("engine.state.checkpoint_writes", "count", "lower"),
            PerLayer("engine.state.checkpoint_bytes", "bytes", "lower"),
            PerLayer("engine.state.checkpoint_read_s", "s", "lower"),
            PerLayer("serve.daemon.checkpoint_p50_ms", "ms", "lower"),
        ],
        "write_checkpoint, read_checkpoint, checkpoint_now",
        "events_per_s, slice_p99_ms, peak_rss_mb @ serve_durable",
    ),
    LayerGroup(
        [
            PerLayer("serve.wal.recover_s", "s", "lower"),
            PerLayer("serve.daemon.recover_s", "s", "lower"),
            PerLayer("serve.wal.recovered_events", "count", "higher"),
            PerLayer("serve.wal.recovered_per_s", "1/s", "higher"),
        ],
        "recover_wal, ServeDaemon.recover",
        "events_per_s @ serve_durable",
    ),
    LayerGroup(
        [
            PerLayer("simnet.topology.generate_s", "s", "lower"),
            PerLayer("bgp.synth.snapshot_s", "s", "lower"),
            PerLayer("weblog.synth.generate_s", "s", "lower"),
            PerLayer("weblog.writer.save_s", "s", "lower"),
            PerLayer("bgp.synth.delta_generate_s", "s", "lower"),
        ],
        "generate_topology, SnapshotFactory snapshots + dump files, "
        "make_log, save_log, DeltaGenerator.events (parent side)",
        "setup_s @ all",
    ),
    LayerGroup(
        [
            PerLayer("failed_share", "ratio", "lower"),
        ],
        "events failed / attempted: malformed + shed + quarantined, or "
        "everything when the correctness gate fails (always 0 on a "
        "healthy run, so it cannot be a bounded end-to-end metric)",
        "none - must stay 0 on every workload",
    ),
    LayerGroup(
        [
            PerLayer("harness.calibration_s", "s", "lower"),
            PerLayer("harness.spin_factor", "ratio", "lower"),
            PerLayer("harness.device_wait_s", "s", "lower"),
        ],
        "the feed clock: seconds per pass in its spin loop, the spin's "
        "median duration / the reference machine's (1 = unit speed), "
        "and seconds blocked in os.fsync (counted unscaled)",
        "none - how slow the machine and its disk ran, not the program",
    ),
    LayerGroup(
        [
            PerLayer("harness.unattributed_s", "s", "lower"),
            PerLayer("trace.overhead_ratio", "ratio", "lower"),
        ],
        "pass wall minus the sum of layer self times; traced pass wall / "
        "untraced pass wall in the same run",
        "none - the per-workload columns must sum to the traced wall",
    ),
]

PER_LAYER: List[PerLayer] = [
    metric for group in LAYER_GROUPS for metric in group.metrics
]
