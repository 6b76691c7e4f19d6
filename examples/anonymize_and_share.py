#!/usr/bin/env python3
"""Share a log without sharing your clients (prefix-preserving
anonymization).

The paper ends by inviting "large portal sites to make their logs
available"; in practice that requires anonymizing client addresses
without destroying the prefix structure clustering depends on.  This
example anonymizes a log and its prefix table with one key and shows
the clustering is structurally identical.

Run:  python examples/anonymize_and_share.py
"""

from repro.core.clustering import cluster_log
from repro.core.metrics import summary
from repro.net.ipv4 import format_ipv4
from repro.pipeline import quick_pipeline
from repro.weblog.anonymize import PrefixPreservingAnonymizer


def main() -> None:
    result = quick_pipeline(seed=606, preset="nagano", scale=0.15)
    log = result.synthetic_log.log

    anonymizer = PrefixPreservingAnonymizer(key=0xC0FFEE)
    anon_log = anonymizer.anonymize_log(log)
    anon_table = anonymizer.anonymize_table(result.table)

    sample = log.clients()[:3]
    print("address mapping (prefix-preserving, keyed):")
    for client in sample:
        print(f"  {format_ipv4(client):>15s} -> "
              f"{format_ipv4(anonymizer.anonymize_address(client))}")

    original = cluster_log(log, result.table)
    anonymized = cluster_log(anon_log, anon_table)

    print()
    print("original:   " + summary(original).describe())
    print("anonymized: " + summary(anonymized).describe())
    same_sizes = sorted(c.num_clients for c in original.clusters) == sorted(
        c.num_clients for c in anonymized.clusters
    )
    same_requests = sorted(c.requests for c in original.clusters) == sorted(
        c.requests for c in anonymized.clusters
    )
    print()
    print(f"cluster-size multiset identical:    {same_sizes}")
    print(f"cluster-request multiset identical: {same_requests}")
    print("the recipient can run every analysis in this library on the")
    print("anonymized data and obtain structurally identical results.")


if __name__ == "__main__":
    main()
