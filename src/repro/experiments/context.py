"""Shared experiment context.

Every reproduced table/figure needs some subset of: the ground-truth
topology, the fourteen-source snapshot factory, the merged prefix
table, the preset logs, and their clusterings.  Building these once and
caching them makes ``repro-experiments all`` run each stage exactly
once, like the paper's pipeline did.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bgp.synth import SnapshotFactory
from repro.bgp.table import MergedPrefixTable
from repro.core.clustering import METHOD_NETWORK_AWARE, ClusterSet, cluster_log
from repro.core.spiders import DetectionReport, classify_clients
from repro.simnet.dns import SimulatedDns
from repro.simnet.topology import Topology, TopologyConfig, generate_topology
from repro.simnet.traceroute import SimulatedTraceroute
from repro.weblog.presets import make_log
from repro.weblog.synth import SyntheticLog

__all__ = ["ExperimentContext"]


class ExperimentContext:
    """Lazily-built, memoised pipeline stages for the harness."""

    def __init__(self, seed: int = 2000, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self._topology: Optional[Topology] = None
        self._factory: Optional[SnapshotFactory] = None
        self._merged: Optional[MergedPrefixTable] = None
        self._dns: Optional[SimulatedDns] = None
        self._traceroute: Optional[SimulatedTraceroute] = None
        self._logs: Dict[str, SyntheticLog] = {}
        self._clusterings: Dict[str, ClusterSet] = {}
        self._detections: Dict[str, DetectionReport] = {}

    @property
    def topology(self) -> Topology:
        if self._topology is None:
            self._topology = generate_topology(TopologyConfig(seed=self.seed))
        return self._topology

    @property
    def factory(self) -> SnapshotFactory:
        if self._factory is None:
            self._factory = SnapshotFactory(self.topology)
        return self._factory

    @property
    def merged_table(self) -> MergedPrefixTable:
        if self._merged is None:
            self._merged = self.factory.merged()
        return self._merged

    @property
    def dns(self) -> SimulatedDns:
        if self._dns is None:
            self._dns = SimulatedDns(self.topology)
        return self._dns

    @property
    def traceroute(self) -> SimulatedTraceroute:
        if self._traceroute is None:
            self._traceroute = SimulatedTraceroute(self.topology, self.dns)
        return self._traceroute

    def log(self, preset: str) -> SyntheticLog:
        if preset not in self._logs:
            self._logs[preset] = make_log(
                self.topology, preset, scale=self.scale, seed=self.seed
            )
        return self._logs[preset]

    def clusters(self, preset: str, method: str = METHOD_NETWORK_AWARE) -> ClusterSet:
        key = f"{preset}:{method}"
        if key not in self._clusterings:
            table = self.merged_table if method == METHOD_NETWORK_AWARE else None
            self._clusterings[key] = cluster_log(
                self.log(preset).log, table, method=method
            )
        return self._clusterings[key]

    def detections(self, preset: str) -> DetectionReport:
        """Spiders and proxies among ``preset``'s network-aware clusters."""
        if preset not in self._detections:
            self._detections[preset] = classify_clients(
                self.log(preset).log, self.clusters(preset)
            )
        return self._detections[preset]
