"""Log summary statistics (§3.2.2's per-log characterisation)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.weblog.parser import WebLog

__all__ = ["LogStats", "summarize"]


@dataclass(frozen=True)
class LogStats:
    """The per-log numbers the paper reports for each server log."""

    name: str
    requests: int
    clients: int
    unique_urls: int
    duration_hours: float
    total_bytes: int

    def describe(self) -> str:
        return (
            f"{self.name}: {self.requests:,} requests, "
            f"{self.clients:,} clients, {self.unique_urls:,} unique URLs, "
            f"{self.duration_hours:.1f} h"
        )


def summarize(log: WebLog) -> LogStats:
    """Compute :class:`LogStats` for ``log``."""
    return LogStats(
        name=log.name,
        requests=len(log),
        clients=log.num_clients(),
        unique_urls=log.unique_urls(),
        duration_hours=log.duration_seconds() / 3600.0,
        total_bytes=sum(entry.size for entry in log.entries),
    )


def requests_by_client(log: WebLog) -> Dict[int, int]:
    """Map client address -> number of requests issued."""
    counts: Dict[int, int] = {}
    for entry in log.entries:
        counts[entry.client] = counts.get(entry.client, 0) + 1
    return counts
