"""Simulated Internet substrate.

The paper measures its clustering against the live 1999 Internet via
BGP dumps, nslookup, and traceroute.  This package provides the
synthetic stand-in: a generated ground-truth topology (ASes, registry
allocations, administrative entities, leaf networks) plus deterministic
reverse-DNS and traceroute oracles over it.  See DESIGN.md's
substitution table for why each stand-in preserves the behaviour the
algorithms depend on.
"""

from repro.simnet.dns import SimulatedDns, name_components, nontrivial_suffix
from repro.simnet.geo import GeoModel, Location, haversine_km
from repro.simnet.entities import (
    AdminEntity,
    Allocation,
    AsKind,
    AutonomousSystem,
    EntityKind,
    LeafNetwork,
)
from repro.simnet.topology import Topology, TopologyConfig, generate_topology
from repro.simnet.traceroute import (
    ProbeAccounting,
    SimulatedTraceroute,
    TracerouteResult,
)

__all__ = [
    "GeoModel",
    "Location",
    "haversine_km",
    "AdminEntity",
    "Allocation",
    "AsKind",
    "AutonomousSystem",
    "EntityKind",
    "LeafNetwork",
    "Topology",
    "TopologyConfig",
    "generate_topology",
    "SimulatedDns",
    "name_components",
    "nontrivial_suffix",
    "SimulatedTraceroute",
    "TracerouteResult",
    "ProbeAccounting",
]
