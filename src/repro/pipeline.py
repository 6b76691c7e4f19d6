"""The paper's whole identification pipeline in one call.

Quickstart::

    from repro.pipeline import quick_pipeline
    result = quick_pipeline(seed=7)
    print(result.cluster_set.clustered_fraction)   # ~0.999
"""

from dataclasses import dataclass

from repro.bgp.synth import SnapshotFactory
from repro.bgp.table import MergedPrefixTable
from repro.core.clustering import ClusterSet, cluster_log
from repro.simnet.topology import Topology, TopologyConfig, generate_topology
from repro.weblog.presets import make_log
from repro.weblog.synth import SyntheticLog

__all__ = ["PipelineResult", "quick_pipeline"]


@dataclass
class PipelineResult:
    """Everything the end-to-end pipeline produced."""

    topology: Topology
    factory: SnapshotFactory
    table: MergedPrefixTable
    synthetic_log: SyntheticLog
    cluster_set: ClusterSet


def quick_pipeline(
    seed: int = 2000,
    preset: str = "nagano",
    scale: float = 0.25,
) -> PipelineResult:
    """Run the paper's whole identification pipeline in one call.

    Generates a ground-truth Internet, synthesises and merges the
    fourteen routing-table snapshots, generates the ``preset`` server
    log, and clusters its clients network-aware.  Larger ``scale``
    grows the log proportionally.
    """
    topology = generate_topology(TopologyConfig(seed=seed))
    factory = SnapshotFactory(topology)
    table = factory.merged()
    synthetic_log = make_log(topology, preset, scale=scale, seed=seed)
    cluster_set = cluster_log(synthetic_log.log, table)
    return PipelineResult(
        topology=topology,
        factory=factory,
        table=table,
        synthetic_log=synthetic_log,
        cluster_set=cluster_set,
    )
