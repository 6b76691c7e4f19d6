"""AS-level grouping of client clusters.

Two parts of the paper point here:

* §4.1.4's second proxy-placement approach groups per-cluster proxies
  into *proxy clusters* "according to their AS numbers and geographical
  locations";
* the conclusion names "using information on ASes to reduce the error
  ratio" as ongoing work.

Routing tables already carry the needed signal: the AS path of the
route whose prefix identifies each cluster ends at the origin AS.
Grouping clusters by origin AS therefore costs *zero* probes — unlike
the traceroute-based second-level clustering of §3.6 — at the price of
coarser granularity (one group per AS instead of per network region).

:func:`group_clusters_by_as` builds the grouping;
:func:`as_merge_candidates` flags same-AS adjacent clusters that are
likely fragments of one network (the "too small" error §3.3 says the
method does not yet correct).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bgp.table import MergedPrefixTable
from repro.core.clustering import Cluster, ClusterSet

__all__ = [
    "AsGroup",
    "AsGroupingReport",
    "group_clusters_by_as",
    "as_merge_candidates",
]

#: Pseudo-ASN for clusters whose route carries no AS path (registry
#: prefixes, hand-built tables).
UNKNOWN_AS = -1


@dataclass
class AsGroup:
    """All clusters whose identifying route originates at one AS."""

    asn: int
    clusters: List[Cluster] = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def num_clients(self) -> int:
        return sum(c.num_clients for c in self.clusters)

    @property
    def requests(self) -> int:
        return sum(c.requests for c in self.clusters)


@dataclass
class AsGroupingReport:
    """Outcome of AS-level grouping."""

    groups: List[AsGroup]
    unattributed_clusters: int  # identified by routes without AS paths

    def __len__(self) -> int:
        return len(self.groups)

    def sorted_by_requests(self) -> List[AsGroup]:
        return sorted(self.groups, key=lambda g: -g.requests)


def _origin_as(cluster: Cluster, table: MergedPrefixTable) -> int:
    """Origin AS of the route identifying ``cluster`` (or UNKNOWN_AS)."""
    if not cluster.clients:
        return UNKNOWN_AS
    result = table.lookup(cluster.clients[0])
    if result is None or result.prefix != cluster.identifier:
        return UNKNOWN_AS
    origin = result.entry.origin_as
    return origin if origin is not None else UNKNOWN_AS


def group_clusters_by_as(
    cluster_set: ClusterSet, table: MergedPrefixTable
) -> AsGroupingReport:
    """Group clusters by the origin AS of their identifying route.

    Clusters identified by AS-path-less routes (registry dumps) go to a
    single UNKNOWN_AS bucket, counted separately so callers can decide
    whether to probe them instead.
    """
    by_asn: Dict[int, AsGroup] = {}
    unattributed = 0
    for cluster in cluster_set.clusters:
        asn = _origin_as(cluster, table)
        if asn == UNKNOWN_AS:
            unattributed += 1
        group = by_asn.get(asn)
        if group is None:
            group = by_asn[asn] = AsGroup(asn=asn)
        group.clusters.append(cluster)
    ordered = sorted(by_asn.values(), key=lambda g: -g.requests)
    return AsGroupingReport(groups=ordered, unattributed_clusters=unattributed)


def as_merge_candidates(
    cluster_set: ClusterSet,
    table: MergedPrefixTable,
    max_gap_bits: int = 8,
) -> List[Tuple[Cluster, Cluster]]:
    """Flag same-AS cluster pairs that look like one split network.

    §3.3 notes the nslookup test never catches clusters that are *too
    small* (one real network split over several clusters).  Two clusters
    are merge candidates when their identifying routes originate at the
    same AS and their prefixes fit inside one covering block at most
    ``max_gap_bits`` shorter than the longer of the two — i.e. they are
    numerically adjacent inside one allocation, not merely anywhere in
    a large AS.
    """
    attributed = [
        (cluster, _origin_as(cluster, table))
        for cluster in cluster_set.clusters
    ]
    attributed = [(c, a) for c, a in attributed if a != UNKNOWN_AS]
    attributed.sort(key=lambda pair: pair[0].identifier.sort_key())
    candidates: List[Tuple[Cluster, Cluster]] = []
    for (left, left_as), (right, right_as) in zip(attributed, attributed[1:]):
        if left_as != right_as:
            continue
        longer = max(left.identifier.length, right.identifier.length)
        cover_length = _common_cover_length(left, right)
        if longer - cover_length <= max_gap_bits:
            candidates.append((left, right))
    return candidates


def _common_cover_length(left: Cluster, right: Cluster) -> int:
    """Length of the tightest prefix covering both cluster identifiers."""
    from repro.core.selfcorrect import covering_prefix

    cover = covering_prefix(
        [left.identifier.network, right.identifier.network]
    )
    return cover.length
