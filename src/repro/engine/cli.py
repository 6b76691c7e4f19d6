"""``repro-engine``: the streaming engine as a shell command.

The full engine surface over real CLF logs and real dump files::

    repro-engine access.log --table routes-a.txt --table routes-b.txt \
        --chunk-size 16384 --checkpoint run.ckpt

Ingestion streams the log in constant memory, one chunk at a time, in
one process.  ``--checkpoint`` writes
the versioned engine state at the end of the run (and every
``--checkpoint-every`` entries along the way); ``--resume`` restores
from that file first.  Checkpoints record
which log was being ingested and how many of its entries were already
counted, so resuming against the *same* log skips that prefix and the
run finishes with the same cluster table an uninterrupted run produces
— no entry is ever counted twice.  Resuming against a *different* log
ingests all of it on top of the restored state (append mode).
``--metrics`` prints the engine's counters (entries/sec, batch
latency, fault accounting).

``--lpm stride`` swaps the packed table's per-lookup binary search for
a stride-16 direct index, and ``--memo-size N`` memoizes up to N
distinct client resolutions in front of the table
(:mod:`repro.engine.fastpath`); both are pure accelerations — cluster
output is identical across every combination, fault plans included,
and checkpoints resume across ``--lpm`` settings because all layouts
share a prefix-set digest.

``--inject PLAN.json`` arms a :mod:`repro.faults` plan — the
chaos-testing entry point.  Checkpoints are atomic and read back after
every write (a damaged one is rewritten); a corrupt file fails
``--resume`` with a specific, actionable error instead of garbage
state.

``repro-engine serve ...`` switches to the long-lived daemon mode
(:mod:`repro.serve`): an ndjson stream of weblog requests and BGP
deltas, applied to the live table in place.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Any, Dict, Iterable, List, Optional

from repro.cli import (
    add_report_options, load_tables, print_cluster_report, require_files,
)
from repro.engine.fastpath import LPM_KINDS, build_lpm_table
from repro.engine.metrics import EngineMetrics
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.state import CheckpointError
from repro.faults import SITE_LOG_TRUNCATE, FaultInjector, FaultPlan
from repro.weblog.parser import ParseLimitError, ParseReport, iter_clf_entries

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-engine",
        description=(
            "High-throughput streaming client clustering: batch "
            "ingestion of a CLF access log against a packed LPM table "
            "compiled from BGP routing-table dumps."
        ),
    )
    parser.add_argument("log", help="server access log (NCSA common/combined)")
    parser.add_argument(
        "--table", "-t", action="append", default=[], metavar="DUMP",
        help="routing-table dump file; repeatable; any §3.1.2 format",
    )
    parser.add_argument(
        "--lpm", choices=LPM_KINDS, default="packed",
        help="LPM table layout: 'packed' (binary search over the flat "
             "interval array) or 'stride' (stride-16 direct index; "
             "most lookups are one array read).  Identical clusters "
             "either way (default packed)",
    )
    parser.add_argument(
        "--memo-size", type=int, default=0, metavar="N",
        help="memoize up to N distinct client resolutions in front of "
             "the LPM table (FIFO eviction; 0 = off).  Web-log clients "
             "repeat heavily, so most entries skip the LPM entirely; "
             "clusters stay identical",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=8192, metavar="N",
        help="entries per applied batch (default 8192)",
    )
    parser.add_argument(
        "--max-errors", type=int, default=None, metavar="N",
        help="abort when more than N malformed log lines accumulate "
             "(default: skip-and-count forever; malformed dump lines "
             "are always counted and skipped)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write engine state to PATH when the run completes",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="ENTRIES",
        help="also checkpoint after every ENTRIES ingested (0 = only at "
             "the end)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore state from --checkpoint before ingesting "
             "(requires the same routing table); when the checkpoint "
             "was taken against this same log, its already-ingested "
             "prefix is skipped, otherwise the whole log is appended",
    )
    parser.add_argument(
        "--inject", metavar="PLAN.json", default=None,
        help="arm a repro.faults FaultPlan (chaos testing): "
             "checkpoint corruption, dirty input",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print engine counters (entries/sec, latency, fault "
             "accounting)",
    )
    add_report_options(parser)
    return parser


def _build_engine(
    args: argparse.Namespace,
    table: PackedLpm,
    injector: Optional[FaultInjector],
) -> ShardedClusterEngine:
    config = EngineConfig(chunk_size=args.chunk_size, name=args.log)
    metrics = EngineMetrics(1)
    engine: Optional[ShardedClusterEngine] = None
    if args.resume:
        if os.path.exists(args.checkpoint):
            engine = ShardedClusterEngine.resume(
                args.checkpoint, table, config, metrics, injector=injector
            )
            print(
                f"resumed from {args.checkpoint} "
                f"({engine.entries_ingested:,} entries already ingested)"
            )
        else:
            print(f"no checkpoint at {args.checkpoint}; starting fresh")
    if engine is None:
        engine = ShardedClusterEngine(
            table, config, metrics, injector=injector
        )
    return engine


def _entries_to_skip(resume_meta: Dict[str, Any], log: str) -> int:
    """How many parsed entries of ``log`` the checkpoint already counted.

    Checkpoints written by this CLI record the log they were ingesting
    (``log``) and how many of its parsed entries had been folded in
    (``log_entries``).  Resuming against the same log skips exactly that
    prefix — parsing is deterministic, so entry N of a re-read is entry
    N of the interrupted run — which is what makes the resumed cluster
    table identical to an uninterrupted run's.  Resuming against any
    other log (or a checkpoint written through the engine API, which
    records no source log) skips nothing: the whole log is appended on
    top of the restored state.
    """
    if not resume_meta:
        return 0
    checkpoint_log = resume_meta.get("log")
    if checkpoint_log == log:
        skip = int(resume_meta.get("log_entries", 0))
        if skip:
            print(
                f"skipping the first {skip:,} entries of {log} "
                "(already in the checkpoint)"
            )
        return skip
    if checkpoint_log:
        print(
            f"checkpoint was taken against {checkpoint_log!r}; "
            f"appending all of {log!r} to the restored state"
        )
    else:
        print(
            "checkpoint records no source log; "
            "appending the whole log to the restored state"
        )
    return 0


def _write_checkpoint(
    engine: ShardedClusterEngine, args: argparse.Namespace, log_entries: int
) -> None:
    engine.checkpoint(
        args.checkpoint,
        extra_meta={"log": args.log, "log_entries": log_entries},
    )


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "serve":
        # The daemon mode lives in its own package; ``repro-engine
        # serve ...`` hands the rest of the command line over.
        from repro.serve.cli import serve_main

        code: int = serve_main(arguments[1:])
        return code
    parser = build_parser()
    args = parser.parse_args(arguments)
    if not args.table:
        parser.error("the engine needs at least one --table dump")
    if args.checkpoint_every and not args.checkpoint:
        parser.error("--checkpoint-every requires --checkpoint PATH")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint PATH")
    if args.chunk_size < 1:
        parser.error("--chunk-size must be >= 1")
    if args.memo_size < 0:
        parser.error("--memo-size must be >= 0")
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.max_errors is not None and args.max_errors < 0:
        parser.error("--max-errors must be >= 0")
    require_files(parser, [args.log, *args.table])

    injector: Optional[FaultInjector] = None
    if args.inject:
        try:
            plan = FaultPlan.load(args.inject)
        except (OSError, ValueError) as exc:
            parser.error(f"--inject: {exc}")
        injector = FaultInjector(plan)
        print(f"fault injection armed from {args.inject}: "
              f"{', '.join(injector.plan.sites()) or 'no sites'}")

    merged = load_tables(args.table, injector=injector)
    print(f"merged prefix table: {len(merged):,} entries "
          f"from {len(args.table)} dump(s)")
    table = build_lpm_table(args.lpm, merged, args.memo_size)
    inner = table.table if args.memo_size else table
    detail = f"{len(inner):,} entries, {inner.num_intervals:,} intervals"
    if args.lpm == "stride":
        detail += f", {inner.num_direct_slots:,}/65,536 direct slots"
    if args.memo_size:
        detail += f", memo bound {args.memo_size:,}"
    print(f"{args.lpm} LPM table: {detail}")

    try:
        engine = _build_engine(args, table, injector)
    except CheckpointError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 1
    skip = _entries_to_skip(engine.resume_meta, args.log)

    report = ParseReport()
    since_checkpoint = 0
    ingested_this_run = 0
    with engine:
        with open(args.log) as handle:
            lines: Iterable[str] = handle
            if injector is not None:
                lines = injector.wrap_lines(handle, SITE_LOG_TRUNCATE)
            entries = iter_clf_entries(lines, report, max_errors=args.max_errors)
            if skip:
                entries = itertools.islice(entries, skip, None)
            try:
                while True:
                    batch = list(itertools.islice(entries, args.chunk_size))
                    if not batch:
                        break
                    engine.ingest(batch)
                    since_checkpoint += len(batch)
                    ingested_this_run += len(batch)
                    if (
                        args.checkpoint_every
                        and since_checkpoint >= args.checkpoint_every
                    ):
                        _write_checkpoint(
                            engine, args, skip + ingested_this_run
                        )
                        since_checkpoint = 0
            except ParseLimitError as exc:
                print(f"aborting: {exc}", file=sys.stderr)
                return 1
        engine.metrics.record_malformed(report.malformed)
        print(
            f"parsed {report.parsed:,} requests "
            f"({report.malformed:,} malformed, "
            f"{report.null_client:,} null-client lines dropped)"
        )
        if skip and report.parsed < skip:
            print(
                f"warning: {args.log} holds {report.parsed:,} entries but "
                f"the checkpoint had already ingested {skip:,} from it — "
                "the log appears to have shrunk since the checkpoint",
                file=sys.stderr,
            )
        if engine.entries_ingested == 0:
            print("no usable entries; nothing to cluster", file=sys.stderr)
            return 1
        if args.checkpoint:
            _write_checkpoint(engine, args, skip + ingested_this_run)
            print(f"checkpoint written: {args.checkpoint}")

        clusters = engine.snapshot()
        print()
        print_cluster_report(clusters, args.top, args.busy)
        if args.metrics:
            print()
            print(engine.metrics.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
