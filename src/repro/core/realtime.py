"""Real-time client clustering over a sliding log window (§3.5).

The paper: "Self-correction and adaptation is also very important to
generate client clusters using real-time routing information and
producing real-time client cluster identification results.  By
real-time cluster identifying we mean application of cluster
identifying techniques to very recent server log data (within the last
few minutes)."

:class:`RealTimeClusterer` consumes log entries in timestamp order and
maintains, incrementally, the cluster statistics of the trailing
``window_seconds`` of traffic:

* per-entry cost is one LPM lookup plus O(1) bookkeeping (amortised);
* :meth:`snapshot` materialises the current window as a normal
  :class:`ClusterSet`, so all downstream tooling (thresholding,
  validation, placement) works on live data unchanged;
* :meth:`update_table` swaps in a fresh merged prefix table — the
  adaptation hook for BGP dynamics; affected clients re-cluster as
  their next requests arrive, and the stale assignments age out with
  the window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.clustering import Cluster, ClusterSet
from repro.net.prefix import Prefix
from repro.weblog.entry import LogEntry

__all__ = ["RealTimeClusterer", "WindowStats"]

#: The clusterer only needs ``lookup(address) -> LookupResult | None``,
#: so any conforming table works: a live
#: :class:`~repro.bgp.table.MergedPrefixTable`, or an immutable
#: :class:`~repro.engine.packed.PackedLpm` compiled from one
#: (``PackedLpm.from_merged``) when lookup throughput matters.
LookupTable = Any


@dataclass
class WindowStats:
    """Aggregate statistics of the current window."""

    entries: int
    clients: int
    clusters: int
    window_start: float
    window_end: float


class _LiveCluster:
    """Mutable per-cluster accumulator for the active window."""

    __slots__ = ("prefix", "requests", "bytes", "client_counts", "url_counts",
                 "source_kind", "source_name")

    def __init__(self, prefix: Prefix, source_kind: str, source_name: str):
        self.prefix = prefix
        self.requests = 0
        self.bytes = 0
        self.client_counts: Dict[int, int] = {}
        self.url_counts: Dict[str, int] = {}
        self.source_kind = source_kind
        self.source_name = source_name

    def add(self, entry: LogEntry) -> None:
        self.requests += 1
        self.bytes += entry.size
        self.client_counts[entry.client] = (
            self.client_counts.get(entry.client, 0) + 1
        )
        self.url_counts[entry.url] = self.url_counts.get(entry.url, 0) + 1

    def remove(self, entry: LogEntry) -> None:
        self.requests -= 1
        self.bytes -= entry.size
        remaining = self.client_counts[entry.client] - 1
        if remaining:
            self.client_counts[entry.client] = remaining
        else:
            del self.client_counts[entry.client]
        url_remaining = self.url_counts[entry.url] - 1
        if url_remaining:
            self.url_counts[entry.url] = url_remaining
        else:
            del self.url_counts[entry.url]

    @property
    def empty(self) -> bool:
        return self.requests == 0


class RealTimeClusterer:
    """Streaming network-aware clustering over a sliding time window."""

    def __init__(
        self,
        table: LookupTable,
        window_seconds: float = 300.0,
        name: str = "realtime",
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window must be positive: {window_seconds!r}")
        self._table = table
        self.window_seconds = window_seconds
        self.name = name
        # Each queue item: (entry, cluster prefix or None).
        self._window: Deque[Tuple[LogEntry, Optional[Prefix]]] = deque()
        self._live: Dict[Prefix, _LiveCluster] = {}
        self._unclustered: Dict[int, int] = {}
        self._last_time: Optional[float] = None
        self.entries_processed = 0
        self.lookups_performed = 0
        # Cache client -> lookup result so repeat clients skip the LPM.
        self._assignment_cache: Dict[int, Any] = {}

    # -- ingestion ---------------------------------------------------------

    def feed(self, entry: LogEntry) -> None:
        """Consume one log entry (entries must arrive in time order)."""
        if self._last_time is not None and entry.timestamp < self._last_time:
            raise ValueError(
                "real-time feed requires non-decreasing timestamps "
                f"({entry.timestamp} after {self._last_time})"
            )
        self._last_time = entry.timestamp
        self.entries_processed += 1
        result = self._assign(entry.client)
        prefix = result.prefix if result else None
        self._window.append((entry, prefix))
        if prefix is None:
            self._unclustered[entry.client] = (
                self._unclustered.get(entry.client, 0) + 1
            )
        else:
            live = self._live.get(prefix)
            if live is None:
                live = self._live[prefix] = _LiveCluster(
                    prefix, result.source_kind, result.source_name
                )
            live.add(entry)
        self._expire(entry.timestamp)

    def _assign(self, client: int) -> Any:
        """The table's ``LookupResult`` for ``client`` (None when no
        prefix covers it), looked up once per table."""
        if client in self._assignment_cache:
            return self._assignment_cache[client]
        self.lookups_performed += 1
        result = self._table.lookup(client)
        self._assignment_cache[client] = result
        return result

    def _expire(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._window and self._window[0][0].timestamp < horizon:
            entry, prefix = self._window.popleft()
            if prefix is None:
                remaining = self._unclustered[entry.client] - 1
                if remaining:
                    self._unclustered[entry.client] = remaining
                else:
                    del self._unclustered[entry.client]
                continue
            live = self._live[prefix]
            live.remove(entry)
            if live.empty:
                del self._live[prefix]

    # -- adaptation -----------------------------------------------------------

    def update_table(self, table: LookupTable) -> None:
        """Swap in fresh routing information (§3.5's adaptation).

        The assignment cache is dropped, so every client re-resolves
        against the new table at its next request; window contents keep
        their original assignment until they age out.  Accepts the same
        duck-typed tables as the constructor.  (The engine takes live
        routing changes as in-place ``apply_delta`` patches instead,
        with the same keep-until-reassigned semantics.)
        """
        self._table = table
        self._assignment_cache.clear()

    # -- observation ------------------------------------------------------------

    def snapshot(self) -> ClusterSet:
        """Materialise the current window as a :class:`ClusterSet`."""
        clusters: List[Cluster] = []
        for prefix, live in sorted(
            self._live.items(), key=lambda kv: kv[0].sort_key()
        ):
            clusters.append(
                Cluster(
                    identifier=prefix,
                    clients=sorted(live.client_counts),
                    requests=live.requests,
                    unique_urls=len(live.url_counts),
                    total_bytes=live.bytes,
                    source_kind=live.source_kind,
                    source_name=live.source_name,
                )
            )
        return ClusterSet(
            log_name=self.name,
            method="network-aware+realtime",
            clusters=clusters,
            unclustered_clients=sorted(self._unclustered),
        )

    def stats(self) -> WindowStats:
        """Cheap counters without materialising a snapshot."""
        clients: Set[int] = set(self._unclustered)
        for live in self._live.values():
            clients.update(live.client_counts)
        window_start = (
            self._window[0][0].timestamp if self._window else 0.0
        )
        return WindowStats(
            entries=len(self._window),
            clients=len(clients),
            clusters=len(self._live),
            window_start=window_start,
            window_end=self._last_time or 0.0,
        )

    def busiest(self, count: int = 10) -> List[Tuple[Prefix, int]]:
        """The window's busiest clusters as (prefix, requests)."""
        ordered = sorted(self._live.values(), key=lambda l: -l.requests)
        return [(live.prefix, live.requests) for live in ordered[:count]]
