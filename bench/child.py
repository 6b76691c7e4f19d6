"""The workload child: ``python -m bench.child MANIFEST --seconds S
--trace 0|1``.

Receives nothing but the generated files (through the manifest), sets
up, runs passes of the workload until ``S`` measured seconds are used,
gates every pass, and prints one JSON record as its last line.

Untraced (``--trace 0``) the record carries the end-to-end numbers.
Traced, the first pass still runs untraced — it is the baseline of
``trace.overhead_ratio`` — then the public callables are wrapped and
the remaining passes yield the per-layer numbers (means per traced
pass, so that they add up) and the span file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from typing import Any, Dict, List, Optional

import repro.cli
import repro.engine.fastpath
import repro.engine.state
import repro.serve.protocol
import repro.serve.wal
from repro.bgp.synth import RouteDelta
from repro.engine.fastpath import PackedBatch
from repro.engine.shard import ShardedClusterEngine
from repro.engine.state import ClusterStore
from repro.engine.supervisor import SupervisedEngine
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import LineSplitter, LogEvent
from repro.serve.wal import WalWriter

from bench import check, workloads
from bench.trace import Tracer

#: Full child set-ups sampled per run; later passes only rebuild the
#: table (see ``workloads.SetUp``).
SETUP_SAMPLES = 3

LAYERS = [
    "cli.load_tables", "cli.report",
    "engine.fastpath.build", "engine.fastpath.lookup", "engine.fastpath.pack",
    "engine.packed.apply_delta",
    "engine.shard.apply_chunk", "engine.shard.drain",
    "engine.state.checkpoint_read", "engine.state.checkpoint_write",
    "engine.state.fold", "engine.state.reassign", "engine.state.snapshot",
    "serve.daemon.checkpoint", "serve.daemon.feed", "serve.daemon.finish",
    "serve.daemon.recover",
    "serve.protocol.encode", "serve.protocol.parse", "serve.protocol.split",
    "serve.wal.append", "serve.wal.recover",
    "weblog.parser",
    "harness.calibration",
]


def install(tracer: Tracer, table: Any) -> None:
    """Wrap the public callables each layer is measured around."""
    patch = tracer.patch
    patch(repro.cli, "load_tables", "cli.load_tables")
    patch(repro.cli, "print_cluster_report", "cli.report")
    patch(repro.engine.fastpath, "build_lpm_table", "engine.fastpath.build")
    # The outermost table type only: memo -> stride -> packed count once.
    patch(type(table), "lookup_many", "engine.fastpath.lookup")
    patch(type(table), "apply_delta", "engine.packed.apply_delta", keep_calls=True)
    for name in ("from_triples", "partition"):
        patch(PackedBatch, name, "engine.fastpath.pack")
    for name in ("apply_batch", "apply_packed", "apply_entries"):
        patch(ClusterStore, name, "engine.state.fold",
              measure=lambda args, applied: applied)
    patch(ClusterStore, "reassign_clients", "engine.state.reassign",
          measure=lambda args, moved: moved)
    patch(ClusterStore, "snapshot", "engine.state.snapshot")
    for name in ("ingest", "ingest_triples", "apply_chunk"):
        patch(ShardedClusterEngine, name, "engine.shard.apply_chunk")
    patch(SupervisedEngine, "ingest", "engine.shard.apply_chunk")
    for name in ("snapshot", "close"):
        patch(ShardedClusterEngine, name, "engine.shard.drain")
    patch(LineSplitter, "push", "serve.protocol.split",
          measure=lambda args, _: len(args[1]))
    patch(LineSplitter, "next_line", "serve.protocol.split")
    patch(repro.serve.protocol, "parse_event", "serve.protocol.parse")
    for event_type in (LogEvent, RouteDelta):
        patch(event_type, "to_json", "serve.protocol.encode")
    for name in ("submit", "pump", "feed"):
        patch(ServeDaemon, name, "serve.daemon.feed")
    patch(ServeDaemon, "finish", "serve.daemon.finish")
    patch(ServeDaemon, "checkpoint_now", "serve.daemon.checkpoint", keep_calls=True)
    patch(ServeDaemon, "recover", "serve.daemon.recover")
    patch(WalWriter, "append", "serve.wal.append",
          measure=lambda args, _: len(args[1]))
    patch(repro.serve.wal, "recover_wal", "serve.wal.recover")
    patch(repro.engine.state, "write_checkpoint", "engine.state.checkpoint_write",
          measure=lambda args, _: os.path.getsize(args[0]))
    patch(repro.engine.state, "read_checkpoint", "engine.state.checkpoint_read")


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _slice_stats(passes: List[List[float]]) -> Dict[str, float]:
    """Median and 99th percentile over slice *positions*.

    Every pass feeds the same events, so slice i does the same work in
    each: its time is taken as the median over the passes — which drops
    the stalls the machine, not the program, put into one of them —
    before the percentiles are taken across positions.
    """
    typical = [statistics.median(position) for position in zip(*passes)]
    return {
        "slice_p50_ms": statistics.median(typical) * 1e3,
        "slice_p99_ms": _percentile(typical, 0.99) * 1e3,
    }


def _median_ms(durations: List[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def _timeline(tracer: Tracer, result: Dict[str, Any]) -> Dict[str, float]:
    """Where one traced pass's wall time went: self seconds per layer on
    the driver's timeline plus the harness's own remainder — the columns
    that add up to the pass's wall time."""
    timeline = {layer: total[0] for layer, total in tracer.totals.items()}
    timeline["harness.unattributed"] = (
        result["clock"].elapsed_s - sum(timeline.values())
    )
    return timeline


def _pass_layers(
    tracer: Tracer, result: Dict[str, Any], timeline: Dict[str, float]
) -> Dict[str, float]:
    """One traced pass's per-layer numbers."""
    totals = tracer.totals
    forked = tracer.forked_self_seconds()
    counters = result["counters"]

    def self_s(layer: str, everywhere: bool = False) -> float:
        seconds = timeline.get(layer, 0.0)
        return seconds + (forked.get(layer, 0.0) if everywhere else 0.0)

    def calls(layer: str) -> float:
        return totals.get(layer, [0.0, 0])[1]

    def units(layer: str) -> float:
        return totals.get(layer, [0.0, 0, 0.0])[2]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    parser_lines = result.get("parser_lines", 0)
    patches = calls("engine.packed.apply_delta")
    recover_s = self_s("serve.wal.recover") + self_s("serve.daemon.recover")
    return {
        "weblog.parser.busy_s": self_s("weblog.parser"),
        "weblog.parser.lines": parser_lines,
        "weblog.parser.malformed": counters["malformed_skipped"],
        "weblog.parser.us_per_line": per(self_s("weblog.parser") * 1e6, parser_lines),
        "engine.fastpath.lookup_s": self_s("engine.fastpath.lookup", everywhere=True),
        "engine.fastpath.lookups": counters["lookups"],
        "engine.fastpath.memo_hit_rate": counters["memo_hit_rate"],
        "engine.fastpath.pack_s": self_s("engine.fastpath.pack"),
        "engine.state.fold_s": self_s("engine.state.fold", everywhere=True),
        "engine.state.fold_entries": counters["entries"],
        "engine.state.snapshot_s": self_s("engine.state.snapshot"),
        "cli.report_s": self_s("cli.report"),
        "engine.shard.apply_chunk_s": self_s("engine.shard.apply_chunk"),
        "engine.shard.chunks": (
            counters["batches"] if "daemon" not in result else 0
        ),
        "engine.shard.drain_s": self_s("engine.shard.drain"),
        "engine.shard.skew": counters["shard_skew"],
        "serve.protocol.split_s": self_s("serve.protocol.split"),
        "serve.protocol.parse_s": self_s("serve.protocol.parse"),
        "serve.protocol.events": calls("serve.protocol.parse"),
        "serve.protocol.bytes": units("serve.protocol.split"),
        "serve.daemon.feed_self_s": self_s("serve.daemon.feed"),
        "serve.daemon.flushes": (
            counters["batches"] if "daemon" in result else 0
        ),
        "serve.daemon.finish_s": self_s("serve.daemon.finish"),
        "engine.packed.apply_delta_s": self_s("engine.packed.apply_delta"),
        "engine.packed.patches": patches,
        "engine.packed.apply_delta_p50_ms": _median_ms(
            tracer.calls["engine.packed.apply_delta"]
        ),
        "engine.packed.rebuild_fallbacks": counters["patch_rebuild_fallbacks"],
        "engine.state.reassign_s": self_s("engine.state.reassign"),
        "engine.state.clients_moved": units("engine.state.reassign"),
        "engine.state.moved_per_patch": per(units("engine.state.reassign"), patches),
        "serve.protocol.encode_s": self_s("serve.protocol.encode"),
        "serve.wal.append_s": self_s("serve.wal.append"),
        "serve.wal.appends": counters["wal_appends"],
        "serve.wal.syncs": counters["wal_syncs"],
        "serve.wal.bytes": units("serve.wal.append"),
        "serve.wal.rotations": counters["wal_rotations"],
        "engine.state.checkpoint_write_s": self_s("engine.state.checkpoint_write"),
        "engine.state.checkpoint_writes": calls("engine.state.checkpoint_write"),
        "engine.state.checkpoint_bytes": units("engine.state.checkpoint_write"),
        "engine.state.checkpoint_read_s": self_s("engine.state.checkpoint_read"),
        "serve.daemon.checkpoint_p50_ms": _median_ms(
            tracer.calls["serve.daemon.checkpoint"]
        ),
        "serve.wal.recover_s": self_s("serve.wal.recover"),
        "serve.daemon.recover_s": self_s("serve.daemon.recover"),
        "serve.wal.recovered_events": counters["wal_recovered_events"],
        "serve.wal.recovered_per_s": per(counters["wal_recovered_events"], recover_s),
        "harness.calibration_s": self_s("harness.calibration"),
        "harness.spin_factor": statistics.median(result["clock"].factors),
        "harness.device_wait_s": result["clock"].device_s,
        "harness.unattributed_s": timeline["harness.unattributed"],
    }


def run(manifest: Dict[str, Any], seconds: float, trace: bool) -> Dict[str, Any]:
    workload = manifest["workload"]
    runner = workloads.RUNNERS[workload]
    tracer: Optional[Tracer] = None
    gate: Optional[check.Gate] = None
    first: Optional[workloads.SetUp] = None
    #: Timings of the full set-ups (the objects themselves must go:
    #: anything left alive grows the heap, and with it the cost of
    #: every later pass's garbage collections).
    full_setups: List[Dict[str, float]] = []
    passes: List[Dict[str, Any]] = []
    layers: List[Dict[str, float]] = []
    timelines: List[Dict[str, float]] = []
    slices: List[List[float]] = []
    raw_slices: List[List[float]] = []
    extra: Dict[str, float] = {}
    attempted = failed = peak_rss_kb = 0
    measured = 0.0
    error = ""
    while True:
        setup = workloads.SetUp(
            manifest, first if len(full_setups) >= SETUP_SAMPLES else None
        )
        first = first or setup
        if setup.full:
            full_setups.append(dict(setup.timings, seconds=setup.seconds))
        if trace and len(passes) == 1:
            if workload == "batch_sharded":
                # The single-process baseline of the same triples.
                inline = workloads.run_batch_sharded(manifest, setup, None, 1)
                gate.check(inline)
                extra["engine.shard.speedup_vs_inline"] = (
                    inline["clock"].normal_s / passes[0]["normal_s"]
                )
                setup.release()
                setup = workloads.SetUp(manifest, first)
            tracer = Tracer(LAYERS)
            install(tracer, setup.table)
        if tracer is not None:
            tracer.begin_pass(len(passes))
        gc.collect()
        result = runner(manifest, setup, tracer)
        if tracer is not None:
            tracer.end_pass()
            timelines.append(_timeline(tracer, result))
            layers.append(_pass_layers(tracer, result, timelines[-1]))
        attempted += result["events"]
        failed += result["failed"]
        if gate is None:
            # One set-up and one pass, as a CLI run: before the gate's
            # reference and later passes add their own memory.
            peak_rss_kb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            )
            gate = check.Gate(manifest, setup.merged)
        try:
            gate.check(result)
        except check.GateError as exc:
            error = str(exc)
            break
        clock = result["clock"]
        if tracer is None:
            slices.append(clock.slices())
            raw_slices.append(clock.slices(normalised=False))
        passes.append({
            "elapsed_s": clock.elapsed_s, "wall_s": clock.wall_s,
            "normal_s": clock.normal_s, "device_s": clock.device_s,
            "events": result["events"],
            "spin_factor": statistics.median(clock.factors),
            "traced": tracer is not None,
        })
        measured += clock.elapsed_s
        setup.release()
        del result, setup, clock
        if measured >= seconds and (not trace or layers):
            break
    if tracer is not None:
        tracer.unpatch()

    record: Dict[str, Any] = {
        "workload": workload,
        "correct": not error,
        "error": error,
        "attempted": attempted,
        "failed": attempted if error else failed,
        "passes": passes,
        "events_per_pass": manifest["events"],
        "slice_samples": sum(len(one) for one in slices),
        "setup_child_s": statistics.median(s["seconds"] for s in full_setups),
        "setup_samples": len(full_setups),
    }
    untraced = [p for p in passes if not p["traced"]]
    if untraced and slices:
        record["end_to_end"] = {
            "events_per_s": statistics.median(
                p["events"] / p["normal_s"] for p in untraced
            ),
            "peak_rss_mb": peak_rss_kb / 1024.0,
            **_slice_stats(slices),
        }
        # The same three as the wall clock read them, uncorrected.
        record["raw"] = {
            "events_per_s": statistics.median(
                p["events"] / p["wall_s"] for p in untraced
            ),
            **_slice_stats(raw_slices),
        }
    if layers and tracer is not None:
        traced_wall = statistics.fmean(
            p["elapsed_s"] for p in passes if p["traced"]
        )
        per_layer = {
            name: statistics.fmean(layer[name] for layer in layers)
            for name in layers[0]
        }
        per_layer.update(extra)
        for name in ("cli.load_tables_s", "engine.fastpath.build_s"):
            per_layer[name] = statistics.median(s[name] for s in full_setups)
        per_layer.setdefault("engine.shard.speedup_vs_inline", 0.0)
        per_layer["trace.overhead_ratio"] = traced_wall / untraced[0]["elapsed_s"]
        per_layer["failed_share"] = record["failed"] / max(1, attempted)
        record["per_layer"] = per_layer
        record["timeline"] = {
            layer: statistics.fmean(one.get(layer, 0.0) for one in timelines)
            for layer in sorted(set().union(*timelines))
        }
        path = os.path.join(
            os.path.dirname(manifest["workdir"]), f"trace-{workload}.json"
        )
        tracer.dump(path, {
            "workload": workload, "seed": manifest["seed"],
            "traced_passes": len(layers), "mean_pass_wall_s": traced_wall,
            "timeline": record["timeline"], "per_layer": per_layer,
        })
        record["trace_file"] = path
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child", description=__doc__)
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.manifest) as handle:
        manifest = json.load(handle)
    record = run(manifest, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
