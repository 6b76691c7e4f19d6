"""Figure 10: request distribution inside the spider's cluster (Sun).

Paper: the spider issues 99.79 % of its cluster's requests — the
within-cluster skew that, combined with the arrival-time test,
identifies spiders.
"""

from __future__ import annotations

from repro.experiments.context import ExperimentContext
from repro.util.ascii_plot import ascii_histogram
from repro.weblog.stats import requests_by_client

NAME = "fig10"
TITLE = "Within-cluster request distribution of the spider cluster (Sun)"
PAPER = "Paper: the spider issues 99.79% of all requests in its cluster."


def run(ctx: ExperimentContext) -> str:
    synthetic = ctx.log("sun")
    clusters = ctx.clusters("sun")
    detections = ctx.detections("sun")
    spider_clients = detections.spider_clients() or synthetic.spider_clients
    if not spider_clients:
        return f"{TITLE}\n(no spider present in this log)"
    spider = spider_clients[0]
    cluster = next(
        (c for c in clusters.clusters if spider in c.clients), None
    )
    if cluster is None:
        return f"{TITLE}\n(spider not clustered)"
    counts = requests_by_client(synthetic.log)
    members = sorted(
        cluster.clients, key=lambda client: -counts.get(client, 0)
    )
    share = counts.get(spider, 0) / max(1, cluster.requests)
    parts = [TITLE, PAPER, ""]
    parts.append(
        f"cluster {cluster.identifier.cidr}: {cluster.num_clients} clients, "
        f"{cluster.requests:,} requests; spider issues {share:.2%}"
    )
    parts.append("")
    parts.append(
        ascii_histogram(
            [("spider " if client == spider else "client ")
             + f"#{rank + 1}" for rank, client in enumerate(members)],
            [counts.get(client, 0) for client in members],
            title="requests per client in the spider's cluster",
        )
    )
    return "\n".join(parts)
