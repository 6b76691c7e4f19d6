"""Shared world for the benchmark harness.

Benchmarks measure the pipeline stages that regenerate each paper
table/figure.  The world is built once per session; each benchmark
times only its own stage.  Scales are kept small enough that the whole
harness runs in a couple of minutes while still exercising real data
volumes.  ``REPRO_BENCH_SCALE`` shrinks the log scale for quick runs
(CI's perf-smoke job); the strict speedup bars in
``test_bench_engine.py`` only apply at the default scale.

Engine benchmarks publish their numbers through the session-scoped
``bench_trajectory`` fixture, which lands in ``benchmarks/
BENCH_engine.json`` at session end — a machine-readable record
(entries/sec per table kind, build times, speedup ratios) that CI and
future PRs can diff against.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bgp.synth import SnapshotFactory
from repro.core.clustering import cluster_log
from repro.simnet.dns import SimulatedDns
from repro.simnet.topology import TopologyConfig, generate_topology
from repro.simnet.traceroute import SimulatedTraceroute
from repro.weblog.presets import make_log

BENCH_SEED = 90210
DEFAULT_BENCH_SCALE = 0.15
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", str(DEFAULT_BENCH_SCALE)))

#: Strict perf assertions (stride ≥ 2x packed, memoized ingest ≥ 1.5x
#: the PR 1 loop) only bind at the default scale — tiny smoke scales
#: don't produce enough work to measure those ratios stably.
FULL_SCALE = BENCH_SCALE >= DEFAULT_BENCH_SCALE

_TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "BENCH_engine.json")


@pytest.fixture(scope="session")
def full_scale():
    """Whether the strict speedup assertions bind for this run."""
    return FULL_SCALE


@pytest.fixture(scope="session")
def bench_trajectory():
    """Mutable record the engine benchmarks fill with their numbers;
    written to ``BENCH_engine.json`` once the session ends."""
    record = {
        "meta": {
            "seed": BENCH_SEED,
            "scale": BENCH_SCALE,
            "full_scale": FULL_SCALE,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "generated_unix": int(time.time()),
        },
        "results": {},
    }
    yield record
    if record["results"]:
        with open(_TRAJECTORY_PATH, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def topology():
    return generate_topology(TopologyConfig(seed=BENCH_SEED))


@pytest.fixture(scope="session")
def factory(topology):
    return SnapshotFactory(topology)


@pytest.fixture(scope="session")
def merged_table(factory):
    return factory.merged()


@pytest.fixture(scope="session")
def dns(topology):
    return SimulatedDns(topology)


@pytest.fixture(scope="session")
def traceroute(topology, dns):
    return SimulatedTraceroute(topology, dns)


@pytest.fixture(scope="session")
def nagano(topology):
    return make_log(topology, "nagano", scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def sun(topology):
    return make_log(topology, "sun", scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def nagano_clusters(nagano, merged_table):
    return cluster_log(nagano.log, merged_table)
