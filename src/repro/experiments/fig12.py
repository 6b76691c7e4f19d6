"""Figure 12: per-proxy performance of the top-100 clusters (Nagano).

Paper: with infinite caches, per-cluster requests/bytes and hit/byte-
hit ratios differ greatly between the network-aware and simple
clusterings — the simple approach fails to evaluate proxy benefit.
"""

from __future__ import annotations

from repro.cache.simulator import CachingSimulator
from repro.experiments.context import ExperimentContext
from repro.util.ascii_plot import ascii_series
from repro.util.tables import render_table

NAME = "fig12"
TITLE = "Per-proxy performance, top-100 clusters, infinite cache (Nagano)"
PAPER = (
    "Paper: network-aware top clusters issue far more requests per proxy "
    "than simple's; per-proxy hit ratios differ substantially between "
    "the clusterings."
)

MIN_URL_ACCESSES = 10
TOP = 100


def run(ctx: ExperimentContext) -> str:
    synthetic = ctx.log("nagano")
    log, aware, simple = ctx.cleaned("nagano")
    results = {}
    for label, clusters in (("network-aware", aware), ("simple", simple)):
        simulator = CachingSimulator(
            log, synthetic.catalog, clusters, min_url_accesses=MIN_URL_ACCESSES
        )
        run_result = simulator.run(cache_bytes=None)
        results[label] = run_result.top_proxies(TOP)

    parts = [TITLE, PAPER, ""]
    rows = []
    for label, proxies in results.items():
        requests = [p.stats.requests for p in proxies]
        hits = [p.hit_ratio for p in proxies]
        bytes_hit = [p.byte_hit_ratio for p in proxies]
        rows.append(
            [
                label,
                len(proxies),
                f"{requests[0]:,}" if requests else "0",
                f"{requests[-1]:,}" if requests else "0",
                f"{sum(hits) / len(hits):.3f}" if hits else "0",
                f"{sum(bytes_hit) / len(bytes_hit):.3f}" if bytes_hit else "0",
            ]
        )
    parts.append(
        render_table(
            ["clustering", "proxies", "max requests", "rank-100 requests",
             "mean hit ratio", "mean byte-hit ratio"],
            rows,
        )
    )
    for label, proxies in results.items():
        parts.append("")
        parts.append(
            ascii_series([p.stats.requests for p in proxies],
                         log_x=True, log_y=True,
                         title=f"(a) requests per cluster — {label}")
        )
        parts.append(
            ascii_series([max(1e-4, p.hit_ratio) for p in proxies],
                         log_x=True,
                         title=f"(c) proxy hit ratio — {label}")
        )
    aware_req = [p.stats.requests for p in results["network-aware"]]
    simple_req = [p.stats.requests for p in results["simple"]]
    if aware_req and simple_req:
        parts.append("")
        parts.append(
            f"top-proxy request ratio (aware/simple): "
            f"{aware_req[0] / max(1, simple_req[0]):.2f}x"
        )
    return "\n".join(parts)
