"""Table 5: thresholding client clusters on the Nagano log.

Paper: keeping busy clusters that cover 70 % of requests retains 717 of
9,853 network-aware clusters (threshold 2,744 requests) but 3,242 of
23,523 simple clusters (threshold 696) — the simple approach shatters
busy networks into many small clusters.
"""

from __future__ import annotations

from repro.core.clustering import METHOD_SIMPLE
from repro.core.threshold import threshold_busy_clusters
from repro.experiments.context import ExperimentContext
from repro.util.tables import render_table

NAME = "table5"
TITLE = "Thresholding client clusters (Nagano, 70% of requests)"
PAPER = (
    "Paper: network-aware keeps 717/9,853 clusters (threshold 2,744 "
    "requests; busy sizes 1-1,343 clients); simple keeps 3,242/23,523 "
    "(threshold 696; busy sizes 4-63 clients)."
)


def run(ctx: ExperimentContext) -> str:
    synthetic = ctx.log("nagano")
    # §4.1.3: spiders and proxies are eliminated before thresholding.
    detections = ctx.detections("nagano")
    eliminated = set(detections.spider_clients()) | set(detections.proxy_clients())
    log = synthetic.log.without_clients(eliminated)

    from repro.core.clustering import cluster_log

    aware = cluster_log(log, ctx.merged_table)
    simple = cluster_log(log, method=METHOD_SIMPLE)
    t_aware = threshold_busy_clusters(aware)
    t_simple = threshold_busy_clusters(simple)

    def column(report):
        req = report.busy_range()
        lreq = report.less_busy_range()
        return {
            "total": report.total_clusters,
            "threshold": f"{report.threshold_requests:,}",
            "busy": (
                f"{len(report.busy)} ({report.busy_clients:,} clients, "
                f"{report.busy_requests:,} requests)"
            ),
            "busy_range": f"{req[0]:,} - {req[1]:,} ({req[2]} - {req[3]} clients)",
            "less_range": (
                f"{lreq[0]:,} - {lreq[1]:,} ({lreq[2]} - {lreq[3]} clients)"
            ),
        }

    a, s = column(t_aware), column(t_simple)
    rows = [
        ["Total number of client clusters", a["total"], s["total"]],
        ["Threshold (requests per cluster)", a["threshold"], s["threshold"]],
        ["Number of busy client clusters", a["busy"], s["busy"]],
        ["Busy clusters (requests)", a["busy_range"], s["busy_range"]],
        ["Less-busy clusters (requests)", a["less_range"], s["less_range"]],
    ]
    table = render_table(
        ["", "Network-aware", "Simple"], rows, title=TITLE
    )
    checks = [
        ("simple retains more busy clusters", len(t_simple.busy) > len(t_aware.busy)),
        ("network-aware threshold is higher",
         t_aware.threshold_requests > t_simple.threshold_requests),
    ]
    lines = [f"  [{'ok' if holds else 'MISMATCH'}] {claim}" for claim, holds in checks]
    eliminated_note = (
        f"eliminated before thresholding: {len(detections.spiders)} spider(s), "
        f"{len(detections.proxies)} prox(ies)"
    )
    return "\n".join([table, "", eliminated_note, *lines, "", PAPER])
