"""Table 3: cluster validation via nslookup and optimized traceroute.

Paper (Apache / Nagano / Sun): 1 % cluster samples; prefix lengths
range 8–29 with about half the sampled clusters at /24; nslookup
resolves ~50 % of clients and passes >90 % of clusters; traceroute
reaches 100 % of clients and passes ~90 %, failing slightly more often
than nslookup; non-US clusters dominate the failures.
"""

from __future__ import annotations

import random
import zlib

from repro.core.validation import (
    nslookup_validate,
    sample_clusters,
    simple_approach_pass_rate,
    traceroute_validate,
)
from repro.experiments.context import ExperimentContext
from repro.util.tables import render_table

NAME = "table3"
TITLE = "Client-cluster validation (nslookup + optimized traceroute)"
PAPER = (
    "Paper: >90% of sampled clusters pass both tests; ~50% of clients "
    "resolvable by nslookup; 100% reachable by optimized traceroute; "
    "only ~49% of sampled clusters are /24 (so the simple approach "
    "fails >50%)."
)

_LOGS = ("apache", "nagano", "sun")
#: Our cluster counts are ~10x smaller than the paper's, so a 1 % sample
#: would be too small to read; 10 % keeps the *sampled* counts similar.
SAMPLE_FRACTION = 0.10


def run(ctx: ExperimentContext) -> str:
    columns = {}
    for preset in _LOGS:
        clusters = ctx.clusters(preset)
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), and the sample must not be.
        rng = random.Random(ctx.seed + zlib.crc32(preset.encode()) % 1000)
        sample = sample_clusters(clusters, SAMPLE_FRACTION, rng)
        ns = nslookup_validate(
            sample, ctx.dns, ctx.topology, preset, total_clusters=len(clusters)
        )
        tr = traceroute_validate(
            sample, ctx.traceroute, ctx.topology, preset,
            total_clusters=len(clusters),
        )
        lengths = sorted(
            {c.identifier.length for c in sample}
        ) or [0]
        len24 = sum(1 for c in sample if c.identifier.length == 24)
        columns[preset] = {
            "total": len(clusters),
            "sampled": len(sample),
            "clients": ns.sampled_clients,
            "range": f"{lengths[0]} - {lengths[-1]}",
            "len24": len24,
            "ns_reach": ns.reachable_clients,
            "ns_mis": ns.misidentified,
            "ns_mis_nonus": ns.misidentified_non_us,
            "tr_reach": tr.reachable_clients,
            "tr_mis": tr.misidentified,
            "tr_mis_nonus": tr.misidentified_non_us,
            "ns_pass": ns.pass_rate,
            "tr_pass": tr.pass_rate,
            "simple_pass": simple_approach_pass_rate(sample),
        }

    def row(label, key, fmt=lambda v: v):
        return [label] + [fmt(columns[p][key]) for p in _LOGS]

    rows = [
        row("Total number of client clusters", "total"),
        row("Number of sampled client clusters", "sampled"),
        row("Number of sampled clients", "clients"),
        row("Prefix length range", "range"),
        row("Clusters of prefix length 24", "len24"),
        row("-- DNS nslookup validation --", "total", lambda _v: ""),
        row("nslookup reachable clients", "ns_reach"),
        row("mis-identified clusters", "ns_mis"),
        row("mis-identified non-US clusters", "ns_mis_nonus"),
        row("-- Optimized traceroute validation --", "total", lambda _v: ""),
        row("traceroute reachable clients", "tr_reach"),
        row("mis-identified clusters", "tr_mis"),
        row("mis-identified non-US clusters", "tr_mis_nonus"),
        row("-- Pass rates --", "total", lambda _v: ""),
        row("nslookup pass rate", "ns_pass", lambda v: f"{v:.1%}"),
        row("traceroute pass rate", "tr_pass", lambda v: f"{v:.1%}"),
        row("simple approach pass rate (len==24)", "simple_pass",
            lambda v: f"{v:.1%}"),
    ]
    table = render_table(["", *(_LOGS)], rows, title=TITLE)
    return f"{table}\n\n{PAPER}"
