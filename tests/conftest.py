"""Shared fixtures: one small-but-real world per test session.

Building the topology/snapshots/logs once keeps the suite fast while
letting integration-style tests exercise the genuine pipeline.  Tests
that need isolation build their own tiny worlds inline.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Callable, List

import pytest

from repro.bgp.synth import SnapshotFactory
from repro.bgp.table import MergedPrefixTable
from repro.simnet.dns import SimulatedDns
from repro.simnet.topology import Topology, TopologyConfig, generate_topology
from repro.simnet.traceroute import SimulatedTraceroute
from repro.weblog.presets import make_log
from repro.weblog.synth import SyntheticLog

#: Seed for the shared world; chosen once, referenced everywhere.
WORLD_SEED = 424242

#: Scale for shared logs: small enough for speed, large enough that
#: clusters/spiders/proxies are all present.
LOG_SCALE = 0.12


@pytest.fixture(scope="session")
def small_config() -> TopologyConfig:
    return TopologyConfig(
        seed=WORLD_SEED,
        num_backbone=2,
        num_regional_isps=6,
        num_campus=5,
        num_enterprise=5,
        num_gateways=2,
        num_legacy_b=10,
    )


@pytest.fixture(scope="session")
def topology(small_config: TopologyConfig) -> Topology:
    return generate_topology(small_config)


@pytest.fixture(scope="session")
def factory(topology: Topology) -> SnapshotFactory:
    return SnapshotFactory(topology)


@pytest.fixture(scope="session")
def merged_table(factory: SnapshotFactory) -> MergedPrefixTable:
    return factory.merged()


@pytest.fixture(scope="session")
def dns(topology: Topology) -> SimulatedDns:
    return SimulatedDns(topology)


@pytest.fixture(scope="session")
def traceroute(topology: Topology, dns: SimulatedDns) -> SimulatedTraceroute:
    return SimulatedTraceroute(topology, dns)


@pytest.fixture(scope="session")
def nagano_log(topology: Topology) -> SyntheticLog:
    return make_log(topology, "nagano", scale=LOG_SCALE, seed=WORLD_SEED)


@pytest.fixture(scope="session")
def sun_log(topology: Topology) -> SyntheticLog:
    return make_log(topology, "sun", scale=LOG_SCALE, seed=WORLD_SEED)


@pytest.fixture(scope="session")
def loaded_modules() -> Callable[[str], List[str]]:
    """Run an import statement in a fresh interpreter and return the
    ``repro`` modules it left in ``sys.modules``, sorted."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    report = (
        "\nimport sys\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if m == 'repro' or m.startswith('repro.')))\n"
    )

    def probe(statement: str) -> List[str]:
        result = subprocess.run(
            [sys.executable, "-c", statement + report],
            capture_output=True, text=True, env=env, check=True,
        )
        return result.stdout.split()

    return probe
