#!/usr/bin/env python3
"""Real-time cluster monitoring with routing adaptation (§3.5).

Streams a day-long log through a 30-minute sliding window the way a
live origin would, printing the busiest client clusters every few
hours.  Halfway through, a fresh routing-table snapshot is swapped in
(the network changed under us) and the monitor keeps running — the
paper's "real-time client cluster identification" with adaptation.

Run:  python examples/realtime_monitor.py
"""

from repro.bgp.synth import SnapshotTime
from repro.core.realtime import RealTimeClusterer
from repro.net.ipv4 import format_ipv4
from repro.pipeline import quick_pipeline


def main() -> None:
    result = quick_pipeline(seed=321, preset="nagano", scale=0.25)
    log = result.synthetic_log.log
    start, end = log.time_span()

    clusterer = RealTimeClusterer(result.table, window_seconds=1800.0)
    next_report = start + 4 * 3600.0
    swapped = False

    print(f"streaming {len(log):,} requests through a 30-minute window...")
    for entry in log.entries:
        if not swapped and entry.timestamp >= start + (end - start) / 2:
            print()
            print(">>> routing table updated mid-stream (day-1 snapshot);")
            print(">>> new requests now resolve against fresh routes.")
            clusterer.update_table(result.factory.merged(SnapshotTime(day=1)))
            swapped = True
        clusterer.feed(entry)
        if entry.timestamp >= next_report:
            stats = clusterer.stats()
            hour = (entry.timestamp - start) / 3600.0
            print()
            print(f"t+{hour:4.1f}h  window: {stats.entries:,} requests, "
                  f"{stats.clients:,} clients, {stats.clusters:,} clusters")
            for prefix, requests in clusterer.busiest(3):
                print(f"    {prefix.cidr:>20s}  {requests:,} requests")
            next_report += 4 * 3600.0

    print()
    print(f"processed {clusterer.entries_processed:,} entries with "
          f"{clusterer.lookups_performed:,} LPM lookups "
          "(one per unique client — the assignment cache absorbs repeats)")
    final = clusterer.snapshot()
    print(f"final window: {len(final)} clusters; unclustered clients: "
          f"{[format_ipv4(c) for c in final.unclustered_clients] or 'none'}")


if __name__ == "__main__":
    main()
