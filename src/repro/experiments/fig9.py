"""Figure 9: request-arrival histograms (Sun log).

Paper: (a) the whole log shows daily spikes; (b) a proxy-containing
cluster's spikes line up with the log's; (c) the spider cluster's
pattern shows no such correspondence.
"""

from __future__ import annotations

from repro.core.spiders import arrival_histogram, pattern_correlation
from repro.experiments.context import ExperimentContext
from repro.util.ascii_plot import ascii_series

NAME = "fig9"
TITLE = "Request arrival histograms: whole log vs proxy vs spider (Sun)"
PAPER = (
    "Paper: the proxy's arrival pattern correlates with the whole log "
    "(matching daily spikes); the spider's does not."
)


def run(ctx: ExperimentContext) -> str:
    synthetic = ctx.log("sun")
    log = synthetic.log
    detections = ctx.detections("sun")

    overall = arrival_histogram(log)
    parts = [TITLE, PAPER, ""]
    parts.append(ascii_series(overall, title="(a) entire server log, hourly"))

    proxy_clients = detections.proxy_clients() or synthetic.proxy_clients
    spider_clients = detections.spider_clients() or synthetic.spider_clients

    if proxy_clients:
        hist = arrival_histogram(log, {proxy_clients[0]})
        corr = pattern_correlation(hist, overall)
        parts.append("")
        parts.append(
            ascii_series(hist, title=f"(b) proxy cluster (corr={corr:.2f})")
        )
    if spider_clients:
        hist = arrival_histogram(log, {spider_clients[0]})
        corr = pattern_correlation(hist, overall)
        parts.append("")
        parts.append(
            ascii_series(hist, title=f"(c) spider cluster (corr={corr:.2f})")
        )
    parts.append("")
    parts.append(
        f"detected: {len(detections.spiders)} spider(s) "
        f"(planted {len(synthetic.spider_clients)}), "
        f"{len(detections.proxies)} prox(ies) "
        f"(planted {len(synthetic.proxy_clients)})"
    )
    for detection in detections.spiders + detections.proxies:
        parts.append(f"  {detection.describe()}")
    return "\n".join(parts)
