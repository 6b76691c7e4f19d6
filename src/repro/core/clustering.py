"""Client-cluster identification (§3.2) and the baseline approaches (§2).

The paper's method: extract client addresses from a server log, perform
router-style longest-prefix matching against the merged BGP prefix
table, and group clients sharing the same longest matched prefix into
one cluster.  The baselines: the *simple approach* groups clients by
their first 24 bits; the *classful approach* groups by historical
class A/B/C network boundaries.

All three produce a :class:`ClusterSet`, so the downstream machinery
(validation, thresholding, caching simulation) is method-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.table import KIND_REGISTRY, MergedPrefixTable
from repro.net.ipv4 import AddressError, classful_prefix_length, mask_bits
from repro.net.prefix import Prefix
from repro.weblog.parser import WebLog

__all__ = [
    "METHOD_NETWORK_AWARE",
    "METHOD_SIMPLE",
    "METHOD_CLASSFUL",
    "Cluster",
    "ClusterSet",
    "cluster_addresses",
    "cluster_log",
    "simple_prefix",
    "classful_prefix",
]

METHOD_NETWORK_AWARE = "network-aware"
METHOD_SIMPLE = "simple"
METHOD_CLASSFUL = "classful"


def simple_prefix(address: int) -> Prefix:
    """The simple approach's cluster identifier: the /24 containing
    ``address`` (assumes every network prefix is 24 bits, §2)."""
    return Prefix(address & mask_bits(24), 24)


def classful_prefix(address: int) -> Optional[Prefix]:
    """The classful baseline's identifier: the class A/B/C network.

    Class D/E addresses have no classful network and return None.
    """
    try:
        return Prefix(address, classful_prefix_length(address))
    except AddressError:
        return None


@dataclass
class Cluster:
    """One client cluster: clients sharing a longest-matched prefix.

    ``source_kind`` records which kind of table supplied the winning
    prefix for network-aware clusters (BGP / forwarding / registry) —
    the paper's accounting of how much the secondary registry sources
    contribute.  Metrics are filled in when clustering a full log.
    """

    identifier: Prefix
    clients: List[int] = field(default_factory=list)
    requests: int = 0
    unique_urls: int = 0
    total_bytes: int = 0
    source_kind: str = ""
    source_name: str = ""

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.identifier.cidr}, clients={self.num_clients}, "
            f"requests={self.requests})"
        )


@dataclass
class ClusterSet:
    """The outcome of clustering one log with one method."""

    log_name: str
    method: str
    clusters: List[Cluster]
    unclustered_clients: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    @property
    def num_clients(self) -> int:
        return sum(c.num_clients for c in self.clusters) + len(
            self.unclustered_clients
        )

    @property
    def clustered_fraction(self) -> float:
        """Fraction of clients that were clusterable (paper: ≥ 99.9 %)."""
        total = self.num_clients
        if total == 0:
            return 1.0
        return 1.0 - len(self.unclustered_clients) / total

    @property
    def total_requests(self) -> int:
        return sum(c.requests for c in self.clusters)

    def registry_clustered_clients(self) -> int:
        """Clients clustered by registry-only prefixes (§3.1.1's ~1 %)."""
        return sum(
            c.num_clients for c in self.clusters if c.source_kind == KIND_REGISTRY
        )

    def sorted_by_clients(self) -> List[Cluster]:
        """Clusters in reverse order of number of clients (Figure 4)."""
        return sorted(self.clusters, key=lambda c: (-c.num_clients, -c.requests))

    def sorted_by_requests(self) -> List[Cluster]:
        """Clusters in reverse order of number of requests (Figure 5)."""
        return sorted(self.clusters, key=lambda c: (-c.requests, -c.num_clients))


def _assign(
    addresses: Iterable[int],
    method: str,
    table: Optional[MergedPrefixTable],
) -> Tuple[Dict[Prefix, Cluster], List[int]]:
    """Group ``addresses`` into clusters under ``method``."""
    clusters: Dict[Prefix, Cluster] = {}
    unclustered: List[int] = []
    for address in addresses:
        identifier: Optional[Prefix]
        source_kind = source_name = ""
        if method == METHOD_NETWORK_AWARE:
            if table is None:
                raise ValueError("network-aware clustering needs a prefix table")
            result = table.lookup(address)
            if result is None:
                unclustered.append(address)
                continue
            identifier = result.prefix
            source_kind, source_name = result.source_kind, result.source_name
        elif method == METHOD_SIMPLE:
            identifier = simple_prefix(address)
        elif method == METHOD_CLASSFUL:
            identifier = classful_prefix(address)
            if identifier is None:
                unclustered.append(address)
                continue
        else:
            raise ValueError(f"unknown clustering method: {method!r}")
        cluster = clusters.get(identifier)
        if cluster is None:
            cluster = clusters[identifier] = Cluster(
                identifier, source_kind=source_kind, source_name=source_name
            )
        cluster.clients.append(address)
    return clusters, unclustered


def cluster_addresses(
    addresses: Iterable[int],
    table: Optional[MergedPrefixTable] = None,
    method: str = METHOD_NETWORK_AWARE,
    name: str = "",
) -> ClusterSet:
    """Cluster a bare address set (no per-cluster traffic metrics).

    This is the §3.6 entry point too: feeding server addresses from a
    proxy log yields *server clusters*.

    Duplicate addresses are collapsed: a client belongs to its cluster
    once, however many times it appears in the input.
    """
    clusters, unclustered = _assign(dict.fromkeys(addresses), method, table)
    ordered = sorted(clusters.values(), key=lambda c: c.identifier.sort_key())
    for cluster in ordered:
        cluster.clients.sort()
    return ClusterSet(name, method, ordered, unclustered)


def cluster_log(
    log: WebLog,
    table: Optional[MergedPrefixTable] = None,
    method: str = METHOD_NETWORK_AWARE,
) -> ClusterSet:
    """Cluster a server log and fill in per-cluster traffic metrics.

    One pass over the log accumulates, per client, the request count,
    URL set, and byte volume; these roll up into each cluster's
    ``requests`` / ``unique_urls`` / ``total_bytes``.
    """
    per_client_requests: Dict[int, int] = {}
    per_client_bytes: Dict[int, int] = {}
    per_client_urls: Dict[int, Set[str]] = {}
    for entry in log.entries:
        per_client_requests[entry.client] = (
            per_client_requests.get(entry.client, 0) + 1
        )
        per_client_bytes[entry.client] = (
            per_client_bytes.get(entry.client, 0) + entry.size
        )
        per_client_urls.setdefault(entry.client, set()).add(entry.url)

    cluster_set = cluster_addresses(
        per_client_requests.keys(), table, method, name=log.name
    )
    for cluster in cluster_set.clusters:
        urls: Set[str] = set()
        for client in cluster.clients:
            cluster.requests += per_client_requests[client]
            cluster.total_bytes += per_client_bytes[client]
            urls |= per_client_urls[client]
        cluster.unique_urls = len(urls)
    return cluster_set
