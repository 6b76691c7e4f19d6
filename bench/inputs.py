"""Seeded input generation (the parent half of ``setup_s``).

One synthetic world per seed — ``generate_topology`` ->
``SnapshotFactory`` -> one dump file per routing source — plus the
workload's own event file.  Everything derives from ``(seed, scale)``:
the same pair writes byte-identical files (their sha256 goes into the
manifest), and the workload child receives nothing but these files.
"""

from __future__ import annotations

import hashlib
import json
import os
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.bgp.sources import source_by_name
from repro.bgp.synth import DeltaGenerator, RouteDelta, SnapshotFactory
from repro.serve.protocol import LogEvent
from repro.simnet.topology import TopologyConfig, generate_topology
from repro.weblog.presets import make_log
from repro.weblog.writer import save_log

from bench import spec
from bench.clock import FeedClock

Triple = Tuple[int, str, int]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_triples(path: str, entries: Sequence[Any]) -> None:
    """``client<TAB>size<TAB>url`` per request: the pre-parsed input of
    ``batch_sharded`` and the batch gates' parser-independent reference."""
    with open(path, "w") as handle:
        for entry in entries:
            handle.write(f"{entry.client}\t{entry.size}\t{entry.url}\n")


def read_triples(path: str) -> List[Triple]:
    triples: List[Triple] = []
    with open(path) as handle:
        for line in handle:
            client, size, url = line.rstrip("\n").split("\t", 2)
            triples.append((int(client), url, int(size)))
    return triples


def _write_stream(
    path: str,
    entries: Sequence[Any],
    deltas: Sequence[RouteDelta],
    burst: int,
    every: int,
) -> int:
    """Requests with ``burst`` route deltas after every ``every``-th
    request, as ``repro-bgp-synth --stream`` interleaves them.  Returns
    the number of lines written."""
    lines = 0
    cursor = 0
    with open(path, "w") as handle:
        for position, entry in enumerate(entries, 1):
            event = LogEvent(client=entry.client, url=entry.url, size=entry.size)
            handle.write(event.to_json() + "\n")
            lines += 1
            if position % every == 0:
                for delta in deltas[cursor:cursor + burst]:
                    handle.write(delta.to_json() + "\n")
                    lines += 1
                cursor += burst
    return lines


def generate(
    workload: str, seed: int, scale: float, workdir: str
) -> Dict[str, Any]:
    """Write ``workload``'s inputs under ``workdir``; returns the
    manifest the child runs from (paths, sizes, hashes, timings)."""
    manifest: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "config": spec.CONFIG,
        "sizes": spec.sizes(scale),
        "workdir": workdir,
    }
    os.makedirs(os.path.join(workdir, "tables"), exist_ok=True)
    # Stage boundaries are the only places generation can be calibrated
    # against the machine's speed (see bench/clock.py).
    with FeedClock(spins_per_lap=5) as clock:
        manifest.update(_write_inputs(manifest, clock))
    manifest["generate_s"] = clock.normal_s
    # Hashing is bookkeeping, not set-up a user would pay: after the clock.
    manifest["sha256"] = {
        os.path.relpath(path, workdir): _sha256(path)
        for path in manifest["tables"] + sorted(manifest["files"].values())
    }
    with open(os.path.join(workdir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


def _write_inputs(manifest: Dict[str, Any], clock: FeedClock) -> Dict[str, Any]:
    workload, seed = manifest["workload"], manifest["seed"]
    config, sizes, workdir = manifest["config"], manifest["sizes"], manifest["workdir"]
    timings: Dict[str, float] = {}

    mark = perf_counter()
    topology = generate_topology(TopologyConfig(seed=seed))
    timings["simnet.topology.generate_s"] = perf_counter() - mark
    clock.lap()

    mark = perf_counter()
    factory = SnapshotFactory(topology)
    tables: List[str] = []
    for snapshot in factory.snapshots_all_sources():
        path = os.path.join(workdir, "tables", f"{snapshot.name}.dump")
        with open(path, "w") as handle:
            for line in snapshot.to_lines():
                handle.write(line + "\n")
        tables.append(path)
    timings["bgp.synth.snapshot_s"] = perf_counter() - mark
    clock.lap()

    mark = perf_counter()
    log = make_log(
        topology, config["log_preset"],
        scale=sizes["log_preset_scale"], seed=seed,
    ).log
    timings["weblog.synth.generate_s"] = perf_counter() - mark
    clock.lap()

    files: Dict[str, str] = {}
    events = len(log.entries)
    timings["weblog.writer.save_s"] = 0.0
    timings["bgp.synth.delta_generate_s"] = 0.0
    if workload in ("batch_file", "batch_sharded"):
        files["triples"] = os.path.join(workdir, "log.tsv")
        write_triples(files["triples"], log.entries)
        clock.lap()
        if workload == "batch_file":
            files["log"] = os.path.join(workdir, "log.clf")
            mark = perf_counter()
            save_log(log, files["log"])
            timings["weblog.writer.save_s"] = perf_counter() - mark
        else:
            events *= sizes["sharded_cycles"]
    elif workload in ("serve_churn", "serve_durable"):
        if workload == "serve_churn":
            requests = sizes["churn_requests"]
            burst, every = 1, sizes["churn_delta_every"]
        else:
            requests = sizes["durable_requests"]
            burst = sizes["durable_burst"]
            every = sizes["durable_burst_every"]
        entries = log.entries[:requests]
        mark = perf_counter()
        generator = DeltaGenerator(
            factory, source=source_by_name(config["delta_source"]), seed=seed
        )
        deltas = generator.events((len(entries) // every) * burst)
        timings["bgp.synth.delta_generate_s"] = perf_counter() - mark
        clock.lap()
        files["stream"] = os.path.join(workdir, "stream.ndjson")
        events = _write_stream(files["stream"], entries, deltas, burst, every)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "events": events, "tables": tables, "files": files,
        "generate_timings": timings,
    }
