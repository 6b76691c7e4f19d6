#!/usr/bin/env python3
"""Content-distribution planning from a server log (§4 motivation).

The scenario the paper's introduction motivates: a busy origin wants to
know *where its clients are* so it can push content closer to them.
This example:

1. clusters the log's clients network-aware;
2. eliminates spiders/proxies so placement isn't skewed by crawlers;
3. keeps the busy clusters that cover 70 % of requests (§4.1.3);
4. groups those clusters into second-level *network clusters* via
   traceroute path suffixes (§3.6) — each group is one candidate
   location for a CDN node / proxy cluster;
5. prints the provisioning plan.

Run:  python examples/cdn_planning.py
"""

from repro.core.clustering import cluster_log
from repro.core.netclusters import cluster_networks
from repro.core.spiders import classify_clients
from repro.core.threshold import threshold_busy_clusters
from repro.pipeline import quick_pipeline
from repro.simnet.traceroute import SimulatedTraceroute
from repro.util.tables import render_table


def main() -> None:
    result = quick_pipeline(seed=4242, preset="nagano", scale=0.3)
    log = result.synthetic_log.log

    # 1-2. Cluster, then drop crawlers and forward proxies.
    detections = classify_clients(log, result.cluster_set)
    eliminated = detections.spider_clients() + detections.proxy_clients()
    print(f"eliminated {len(detections.spiders)} spider(s) and "
          f"{len(detections.proxies)} prox(ies) before planning")
    cleaned = log.without_clients(eliminated)
    clusters = cluster_log(cleaned, result.table)

    # 3. Busy clusters: the 70% rule.
    busy = threshold_busy_clusters(clusters, request_share=0.70)
    print(f"busy clusters: {len(busy.busy)} of {busy.total_clusters} "
          f"({busy.busy_requests:,} requests; smallest busy cluster "
          f"issues {busy.threshold_requests:,})")

    # 4. Second-level grouping: one proxy cluster per network region.
    from repro.core.clustering import ClusterSet

    busy_set = ClusterSet(clusters.log_name, clusters.method, busy.busy)
    traceroute = SimulatedTraceroute(result.topology)
    regions = cluster_networks(busy_set, traceroute, level=2)

    # 5. The provisioning plan: where to put proxies, sized by demand.
    rows = []
    for rank, region in enumerate(regions.sorted_by_requests()[:12], 1):
        rows.append(
            [
                rank,
                " / ".join(region.path_suffix) or "(isolated)",
                region.num_clusters,
                region.num_clients,
                f"{region.requests:,}",
            ]
        )
    print()
    print(render_table(
        ["rank", "network region (router)", "clusters", "clients", "requests"],
        rows,
        title="proxy-placement plan: top regions by demand",
    ))
    print()
    print(f"traceroute probes spent on planning: {regions.probes_used}")


if __name__ == "__main__":
    main()
