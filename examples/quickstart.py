#!/usr/bin/env python3
"""Quickstart: the paper's pipeline in a dozen lines.

Generates a synthetic Internet, collects and merges the fourteen
routing-table snapshots, synthesises a Nagano-style server log, and
identifies network-aware client clusters — then prints the headline
numbers the paper reports in §3.2.2.

Run:  python examples/quickstart.py [seed]
"""

import sys

from repro.core.metrics import summary
from repro.pipeline import quick_pipeline


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    print("Running the full identification pipeline (this builds a")
    print("topology, 14 routing snapshots, and a synthetic log)...")
    result = quick_pipeline(seed=seed, preset="nagano", scale=0.25)

    print()
    print(result.topology.describe())
    print(f"merged prefix table: {len(result.table):,} unique entries "
          f"from {result.table.tables_merged} snapshots")
    log = result.synthetic_log.log
    print(f"log: {len(log):,} requests, {log.num_clients():,} clients, "
          f"{log.unique_urls():,} unique URLs")

    print()
    stats = summary(result.cluster_set)
    print(stats.describe())
    print(f"clusterable clients: {result.cluster_set.clustered_fraction:.2%} "
          "(paper: more than 99.9%)")

    biggest = max(result.cluster_set.clusters, key=lambda c: c.num_clients)
    busiest = max(result.cluster_set.clusters, key=lambda c: c.requests)
    print(f"largest cluster:  {biggest.identifier.cidr} "
          f"({biggest.num_clients} clients)")
    print(f"busiest cluster:  {busiest.identifier.cidr} "
          f"({busiest.requests:,} requests)")


if __name__ == "__main__":
    main()
