"""Fixtures shared by the benchmark's own tests (run with
``python -m pytest bench/tests``; not part of the tier-1 suite)."""

import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Small enough that one pass takes well under a second, large enough
#: for several full slices, delta bursts and an aborted WAL tail.
TINY_SCALE = 0.01


@pytest.fixture(scope="session")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def manifests(tmp_path_factory):
    """One generated input set per workload, seed 7."""
    from bench import inputs, spec

    return {
        workload.name: inputs.generate(
            workload.name, 7, TINY_SCALE,
            str(tmp_path_factory.mktemp(workload.name)),
        )
        for workload in spec.WORKLOADS
    }
