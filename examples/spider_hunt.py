#!/usr/bin/env python3
"""Hunting spiders and proxies in a server log (§4.1.2).

Replays the paper's Sun-log analysis: cluster the clients, profile
per-client access patterns, and separate the crawler (flat, sweeping,
single User-Agent) from the forward proxy (diurnal, many User-Agents)
and from ordinary users.  Prints the evidence for every suspect and the
within-cluster request skew of the spider's cluster (Figure 10).

Run:  python examples/spider_hunt.py
"""

from repro.core.spiders import (
    arrival_histogram,
    classify_clients,
    pattern_correlation,
)
from repro.pipeline import quick_pipeline
from repro.util.ascii_plot import ascii_histogram, ascii_series
from repro.weblog.stats import requests_by_client


def main() -> None:
    result = quick_pipeline(seed=777, preset="sun", scale=0.25)
    log = result.synthetic_log.log
    clusters = result.cluster_set

    report = classify_clients(log, clusters)
    print(f"suspects: {len(report.spiders)} spider(s), "
          f"{len(report.proxies)} prox(ies)")
    for detection in report.spiders + report.proxies:
        print("  " + detection.describe())

    # Ground truth is known for synthetic logs — score ourselves.
    planted_spiders = set(result.synthetic_log.spider_clients)
    planted_proxies = set(result.synthetic_log.proxy_clients)
    found_spiders = set(report.spider_clients())
    found_proxies = set(report.proxy_clients())
    print()
    print(f"spider recall: {len(found_spiders & planted_spiders)}"
          f"/{len(planted_spiders)}   "
          f"false positives: {len(found_spiders - planted_spiders)}")
    print(f"proxy recall:  {len(found_proxies & planted_proxies)}"
          f"/{len(planted_proxies)}   "
          f"false positives: {len(found_proxies - planted_proxies)}")

    # Figure 9: arrival-pattern comparison.
    overall = arrival_histogram(log)
    print()
    print(ascii_series(overall, title="whole log, hourly arrivals"))
    for label, clients in (("spider", report.spider_clients()),
                           ("proxy", report.proxy_clients())):
        if not clients:
            continue
        series = arrival_histogram(log, {clients[0]})
        corr = pattern_correlation(series, overall)
        print()
        print(ascii_series(series, title=f"{label} arrivals (corr={corr:.2f})"))

    # Figure 10: the spider dwarfs its cluster.
    if report.spiders:
        spider = report.spiders[0].client
        cluster = next(c for c in clusters.clusters if spider in c.clients)
        counts = requests_by_client(log)
        members = sorted(cluster.clients, key=lambda c: -counts.get(c, 0))[:15]
        print()
        print(ascii_histogram(
            [("SPIDER" if m == spider else f"client{i}")
             for i, m in enumerate(members)],
            [counts.get(m, 0) for m in members],
            title=f"requests inside spider cluster {cluster.identifier.cidr}",
        ))


if __name__ == "__main__":
    main()
