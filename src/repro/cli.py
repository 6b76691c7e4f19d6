"""Command-line front end: cluster a real access log with real dumps.

The paper's §3 pipeline as a shell command::

    repro-cluster access.log --table routes-a.txt --table routes-b.txt

reads an NCSA common/combined log and any number of routing-table dumps
(each in any of the three §3.1.2 formats, auto-detected per line),
merges them, clusters the log's clients by longest-prefix match, and
prints the cluster table plus the headline coverage number.  Options
expose the busy-cluster thresholding and the simple-approach baseline.

The log is held in memory and clustered in a single pass.  For logs
that are big, ``repro-engine`` streams the same clusters through the
sharded, batched engine (:mod:`repro.engine`) with supervision,
checkpoint/resume and metrics.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.bgp.formats import DumpReport, iter_dump_routes
from repro.bgp.table import MergedPrefixTable
from repro.core.clustering import (
    METHOD_NETWORK_AWARE,
    METHOD_SIMPLE,
    ClusterSet,
    cluster_log,
)
from repro.core.metrics import summary
from repro.core.threshold import threshold_busy_clusters
from repro.util.tables import render_table
from repro.weblog.parser import ParseReport, parse_clf_lines

__all__ = ["main", "build_parser", "load_tables", "print_cluster_report"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description=(
            "Identify network-aware client clusters in a web server log "
            "using BGP routing-table dumps (Krishnamurthy & Wang, "
            "SIGCOMM 2000)."
        ),
    )
    parser.add_argument("log", help="server access log (NCSA common/combined)")
    parser.add_argument(
        "--table", "-t", action="append", default=[], metavar="DUMP",
        help="routing-table dump file; repeatable; any §3.1.2 format",
    )
    parser.add_argument(
        "--simple", action="store_true",
        help="use the fixed-/24 simple approach instead (no dumps needed)",
    )
    parser.add_argument(
        "--busy", type=float, default=None, metavar="SHARE",
        help="also threshold busy clusters covering SHARE of requests "
             "(e.g. 0.7)",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="how many clusters to print (default 20, 0 = all)",
    )
    return parser


def load_tables(
    paths: List[str],
    injector: Optional[Any] = None,
) -> MergedPrefixTable:
    """Merge routing-table dump files into one prefix table.

    Each dump streams straight into the merge: a line's route is built
    only when it wins its prefix.  Malformed dump lines are always
    counted-and-skipped (reported on stderr), mirroring the log
    parser's hygiene: one garbage line in one of fourteen snapshots
    must not abort table loading.  ``injector`` is the chaos hook that
    mangles lines in flight (:mod:`repro.faults`).
    """
    merged = MergedPrefixTable()
    for path in paths:
        report = DumpReport()
        with open(path) as handle:
            lines: Any = handle
            if injector is not None:
                from repro.faults import SITE_DUMP_MANGLE

                lines = injector.wrap_lines(handle, SITE_DUMP_MANGLE)
            merged.add_dump(path, iter_dump_routes(lines, report=report))
        if report.malformed:
            print(
                f"warning: skipped {report.malformed:,} malformed line(s) "
                f"in {path} ({report.parsed:,} parsed)",
                file=sys.stderr,
            )
    return merged


def print_cluster_report(
    clusters: ClusterSet, top: int, busy: Optional[float]
) -> None:
    """The shared tail of both CLIs: summary, cluster table, thresholds."""
    print(summary(clusters).describe())
    if clusters.unclustered_clients:
        print(f"unclustered clients: {len(clusters.unclustered_clients)}")

    ordered = clusters.sorted_by_requests()
    limit = len(ordered) if top == 0 else top
    rows = [
        [c.identifier.cidr, c.num_clients, f"{c.requests:,}",
         c.unique_urls, f"{c.total_bytes:,}"]
        for c in ordered[:limit]
    ]
    print()
    print(render_table(
        ["cluster", "clients", "requests", "urls", "bytes"],
        rows,
        title=f"top {min(limit, len(ordered))} clusters by requests",
    ))

    if busy is not None:
        threshold = threshold_busy_clusters(clusters, request_share=busy)
        print()
        print(threshold.describe())


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if not args.simple and not args.table:
        parser.error("network-aware clustering needs at least one --table "
                     "(or pass --simple)")

    report = ParseReport()
    with open(args.log) as handle:
        log = parse_clf_lines(args.log, handle, report)
    print(
        f"parsed {report.parsed:,} requests "
        f"({report.malformed:,} malformed, "
        f"{report.null_client:,} null-client lines dropped)"
    )
    if not log.entries:
        print("no usable entries; nothing to cluster", file=sys.stderr)
        return 1

    if args.simple:
        clusters = cluster_log(log, method=METHOD_SIMPLE)
    else:
        merged = load_tables(args.table)
        print(f"merged prefix table: {len(merged):,} entries "
              f"from {len(args.table)} dump(s)")
        clusters = cluster_log(log, merged, method=METHOD_NETWORK_AWARE)

    print()
    print_cluster_report(clusters, args.top, args.busy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
