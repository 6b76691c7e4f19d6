"""BGP routing-table substrate.

Textual dump formats and their unification (§3.1.2), routing-table
snapshots and the merged prefix table (§3.1), the fourteen-source
collection of Table 1, synthetic snapshot generation from the
ground-truth topology, and the BGP-dynamics study machinery of §3.4.
"""

from repro.bgp.aspath import AsGraph, build_as_graph, path_length_histogram
from repro.bgp.coverage import CoverageReport, coverage_of, marginal_coverage
from repro.bgp.dynamics import (
    DynamicsReport,
    PeriodEffect,
    snapshot_times,
    study_dynamics,
)
from repro.bgp.formats import (
    FORMAT_CLASSFUL,
    FORMAT_DOTTED_NETMASK,
    FORMAT_MASK_LENGTH,
    detect_format,
    pad_dropped_zeroes,
    parse_entry,
    render_entry,
    unify,
)
from repro.bgp.sources import DEFAULT_SOURCES, SourceSpec, source_by_name
from repro.bgp.synth import SnapshotFactory, SnapshotTime
from repro.bgp.table import (
    KIND_BGP,
    KIND_FORWARDING,
    KIND_REGISTRY,
    LookupResult,
    MergedPrefixTable,
    RouteEntry,
    RoutingTable,
)

__all__ = [
    "AsGraph",
    "build_as_graph",
    "path_length_histogram",
    "CoverageReport",
    "coverage_of",
    "marginal_coverage",
    "FORMAT_CLASSFUL",
    "FORMAT_DOTTED_NETMASK",
    "FORMAT_MASK_LENGTH",
    "detect_format",
    "pad_dropped_zeroes",
    "parse_entry",
    "render_entry",
    "unify",
    "SourceSpec",
    "DEFAULT_SOURCES",
    "source_by_name",
    "SnapshotFactory",
    "SnapshotTime",
    "RouteEntry",
    "RoutingTable",
    "MergedPrefixTable",
    "LookupResult",
    "KIND_BGP",
    "KIND_FORWARDING",
    "KIND_REGISTRY",
    "DynamicsReport",
    "PeriodEffect",
    "snapshot_times",
    "study_dynamics",
]
