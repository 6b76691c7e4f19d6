"""The correctness gate, run untimed in every workload child.

The reference is the paper's single-pass ``cluster_log`` over the radix
tree — the ground truth every engine is pinned to — fed from the
generated files by a path that shares no parser, packed table or store
with the system under test: the batch reference reads the tab-separated
triples the generator wrote beside the CLF file, the serve reference
decodes the stream with plain ``json`` and replays its route deltas
onto the initial prefix set to build a from-scratch table at the final
routing state.

A pass is compared on what reclustering preserves exactly: per cluster
the prefix, the client set and the request count (bytes and URLs follow
a moved client only approximately, by design).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.bgp.table import MergedPrefixTable, RoutingTable
from repro.core.clustering import ClusterSet, cluster_log
from repro.net.ipv4 import parse_ipv4
from repro.net.prefix import Prefix
from repro.serve.protocol import LogEvent

from bench import inputs

Signature = Tuple[Dict[str, Tuple[Tuple[int, ...], int]], Tuple[int, ...]]


class GateError(AssertionError):
    """The workload's output is wrong; the run counts as all-failed."""


def signature(clusters: ClusterSet, request_factor: int = 1) -> Signature:
    return (
        {
            c.identifier.cidr: (tuple(sorted(c.clients)), c.requests * request_factor)
            for c in clusters.clusters
        },
        tuple(sorted(clusters.unclustered_clients)),
    )


class _Log:
    """The two attributes ``cluster_log`` reads."""

    def __init__(self, entries: List[Any]) -> None:
        self.name = "reference"
        self.entries = entries


def _reference(manifest: Dict[str, Any], merged: MergedPrefixTable) -> Signature:
    files, sizes = manifest["files"], manifest["sizes"]
    if "triples" in files:
        entries = [
            LogEvent(client, url, size)
            for client, url, size in inputs.read_triples(files["triples"])
        ]
        cycles = (
            sizes["sharded_cycles"]
            if manifest["workload"] == "batch_sharded" else 1
        )
        return signature(cluster_log(_Log(entries), merged), cycles)
    live = set(merged.prefixes())
    entries = []
    with open(files["stream"]) as handle:
        for line in handle:
            event = json.loads(line)
            if event["type"] == "log":
                entries.append(
                    LogEvent(parse_ipv4(event["client"]), event["url"], event["size"])
                )
            elif event["type"] == "announce":
                live.add(Prefix.from_cidr(event["prefix"]))
            else:
                live.discard(Prefix.from_cidr(event["prefix"]))
    final = RoutingTable("final-state")
    for prefix in live:
        final.add_prefix(prefix)
    return signature(
        cluster_log(_Log(entries), MergedPrefixTable.from_tables([final]))
    )


class Gate:
    """Checks the first pass against the reference and every later pass
    against the first: the inputs are the same, so must the outputs be."""

    def __init__(self, manifest: Dict[str, Any], merged: MergedPrefixTable) -> None:
        self.manifest = manifest
        self.expected = _reference(manifest, merged)
        self.first_report = None

    def check(self, result: Dict[str, Any]) -> None:
        manifest = self.manifest
        workload = manifest["workload"]
        got = signature(result["clusters"])
        if got != self.expected:
            raise GateError(_describe(self.expected, got))
        if self.first_report is None:
            self.first_report = result["report"]
        elif result["report"] != self.first_report:
            raise GateError("report differs from the first pass's")
        if result["events"] != manifest["events"]:
            raise GateError(
                f"fed {result['events']} events, generated {manifest['events']}"
            )
        if workload.startswith("serve"):
            daemon = result["daemon"]
            daemon.table.verify_patched()
            counters = result["counters"]
            accounted = (
                daemon.events_consumed
                + counters["shed_events"] + counters["malformed_skipped"]
            )
            if accounted != result["events"]:
                raise GateError(
                    f"attempted {result['events']} != consumed + shed + "
                    f"malformed = {accounted}"
                )
        if workload == "serve_durable":
            every = manifest["sizes"]["durable_checkpoint_every"]
            tail = result["abort_after"] % every
            recovered = result["counters"]["wal_recovered_events"]
            if not (recovered == result["refed"] == tail):
                raise GateError(
                    f"aborted with a {tail}-event unsealed tail but "
                    f"recovered {recovered} (re-fed {result['refed']})"
                )


def _describe(expected: Signature, got: Signature) -> str:
    want, have = expected[0], got[0]
    wrong = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
    text = (
        f"{len(wrong)} of {len(want)} clusters differ from cluster_log "
        f"(first: {wrong[:3]})"
    )
    if expected[1] != got[1]:
        text += (
            f"; unclustered clients differ ({len(expected[1])} expected, "
            f"{len(got[1])} got)"
        )
    return text
