"""``repro-engine serve``: the clustering daemon as a shell command.

Feed it an ndjson event stream (:mod:`repro.serve.protocol`) on stdin
or a local UNIX socket::

    repro-bgp-synth --stream 100000 | \\
        repro-engine serve --stdin --table aads.dump --memo-size 65536 \\
            --checkpoint live.ckpt --checkpoint-every 20000 \\
            --wal live.wal --metrics

Routing deltas are applied to the live table *in place* — no full
rebuild — and only the clients inside the patched address windows are
reclustered.  ``--verify-final`` runs the equivalence gate at the end
of the stream: the patched table must match a from-scratch rebuild at
the final routing state, intervals and digest alike.

Durability: ``--wal DIR`` appends every accepted event to a segmented,
CRC-framed write-ahead log *before* it mutates daemon state (frames
queued up to one ``st_blksize`` buffer, fsync batched per
``--wal-sync-every``).  Each checkpoint starts a new segment and
deletes the ones it covers, so a resume decodes only the frames past
the checkpoint; ``--wal-segment-bytes`` caps a segment between
checkpoints.
Checkpoints hold the routing state as the base table's digest plus the
net route diff since it, so ``--resume`` restores from the same
``--table`` files + checkpoint, proving the base and the patched table
by digest.  With ``--wal`` the events past the checkpoint come from the
WAL tail — no upstream replay; without it the same stream is replayed
and the events the checkpoint already holds are skipped, their route
deltas proven to net the checkpoint's route diff.

Hostile input: ``--max-line-bytes`` bounds one event line; oversized
lines and clients that vanish mid-frame are counted-and-skipped under
``--max-errors`` without dropping the accept loop.  ``--heartbeat N`` prints a health
line to stderr every N events.

Signals and exit codes: SIGTERM and SIGINT trigger a graceful drain —
flush buffers, final checkpoint, WAL seal — then exit 3 (SIGTERM) or
4 (SIGINT).  0 is a clean end of stream, 1 a fatal error (injected
fault, checkpoint failure, error budget exhausted), 5 a write-ahead-log
failure (corrupt log on recovery, a failed fsync, or disk genuinely
full after the checkpoint-truncate-retry rescue).
"""

from __future__ import annotations

import argparse
import errno
import os
import select
import signal
import socket
import sys
from dataclasses import dataclass
from types import FrameType
from typing import Iterator, List, Optional, Union

from repro.cli import (
    add_report_options, load_tables, print_cluster_report, require_files,
)
from repro.engine.fastpath import build_lpm_table
from repro.engine.metrics import EngineMetrics
from repro.engine.state import CheckpointError
from repro.errors import InjectedFault, ServeProtocolError, WalError
from repro.faults import SITE_SERVE_DISCONNECT, FaultInjector, FaultPlan
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    LineSplitter,
    parse_event,
)

__all__ = [
    "serve_main",
    "build_serve_parser",
    "EXIT_OK",
    "EXIT_FATAL",
    "EXIT_SIGTERM",
    "EXIT_SIGINT",
    "EXIT_WAL",
]

EXIT_OK = 0
EXIT_FATAL = 1
# 2 is argparse's usage-error exit.
EXIT_SIGTERM = 3
EXIT_SIGINT = 4
EXIT_WAL = 5

#: Socket/stdin poll granularity: the longest a latched signal waits
#: before the loop notices it.
_POLL_SECONDS = 0.25
_CHUNK_BYTES = 1 << 16


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-engine serve",
        description=(
            "Long-lived clustering daemon: consumes an ndjson stream of "
            "weblog requests and BGP route deltas, patches the LPM table "
            "in place, and reclusters only the affected clients."
        ),
    )
    feed = parser.add_mutually_exclusive_group(required=True)
    feed.add_argument(
        "--stdin", action="store_true",
        help="read the event stream from standard input",
    )
    feed.add_argument(
        "--socket", metavar="PATH", default=None,
        help="listen on a UNIX socket at PATH and serve connections until "
             "signalled; daemon state persists across connections",
    )
    parser.add_argument(
        "--table", "-t", action="append", default=[], metavar="DUMP",
        help="routing-table dump file for the initial state; repeatable",
    )
    # One choice: bench/tests/test_cli_equivalence.py passes --lpm
    # stride (ROADMAP item 1 frees the flag).
    parser.add_argument(
        "--lpm", choices=("stride",), default="stride",
        help="LPM table layout: 'stride', the only one; deltas patch it "
             "in place",
    )
    parser.add_argument(
        "--memo-size", type=int, default=0, metavar="N",
        help="memoize up to N distinct client resolutions; patches evict "
             "only the memo entries inside the touched address windows "
             "(0 = off)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=4096, metavar="N",
        help="log events per clustering batch; a routing delta always "
             "flushes the batch first so stream order is preserved "
             "(default 4096)",
    )
    parser.add_argument(
        "--max-errors", type=int, default=None, metavar="N",
        help="abort when more than N undecodable event lines accumulate "
             "(oversized lines and mid-frame disconnects count too; "
             "default: skip-and-count forever)",
    )
    parser.add_argument(
        "--max-line-bytes", type=int, default=DEFAULT_MAX_LINE_BYTES,
        metavar="N",
        help="per-event-line byte budget; longer lines are discarded and "
             f"counted under --max-errors (default {DEFAULT_MAX_LINE_BYTES})",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write daemon state to PATH when the stream ends",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="EVENTS",
        help="also checkpoint after every EVENTS stream events "
             "(0 = only at the end)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore state from --checkpoint (same --table files); with "
             "--wal the events past it come from the WAL tail (no upstream "
             "replay), otherwise replay the same stream and the events "
             "the checkpoint already holds are skipped",
    )
    parser.add_argument(
        "--wal", metavar="DIR", default=None,
        help="append every accepted event to a write-ahead log in DIR "
             "before applying it, which enables --resume without stream "
             "replay",
    )
    parser.add_argument(
        "--wal-sync-every", type=int, default=64, metavar="N",
        help="fsync the WAL once per N appends (1 = every event is "
             "durable before it is applied; default 64).  A killed "
             "process loses the frames not yet handed to the kernel, at "
             "most one st_blksize buffer; a power loss can lose every "
             "event since the last fsync, up to N-1 of them",
    )
    parser.add_argument(
        "--wal-segment-bytes", type=int, default=4 << 20, metavar="N",
        help="cap a WAL segment between checkpoints at N bytes; each "
             "checkpoint starts a new segment and deletes the ones it "
             "covers (default 4 MiB)",
    )
    parser.add_argument(
        "--heartbeat", type=int, default=0, metavar="EVENTS",
        help="print a health line to stderr every EVENTS stream events "
             "(0 = off)",
    )
    parser.add_argument(
        "--inject", metavar="PLAN.json", default=None,
        help="arm a repro.faults FaultPlan (serve.crash kills the daemon "
             "mid-delta; serve.wal.torn tears a WAL append; "
             "serve.wal.enospc fails one with ENOSPC; serve.disconnect "
             "drops a client mid-chunk)",
    )
    parser.add_argument(
        "--verify-final", action="store_true",
        help="run the equivalence gate after the stream: the patched "
             "table must match a from-scratch rebuild at the final "
             "routing state",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print engine counters including the churn family "
             "(routes announced/withdrawn, clients reclustered, patch "
             "latency, rebuild fallbacks) and the durability family "
             "(WAL appends/syncs/rotations, recovered events)",
    )
    add_report_options(parser)
    return parser


class _SignalFlag:
    """Latches the first SIGTERM/SIGINT so the serve loop can drain
    gracefully instead of dying mid-batch.  A second signal falls back
    to Python's default handling (KeyboardInterrupt / termination), so
    an operator can still insist."""

    def __init__(self) -> None:
        self.fired: Optional[int] = None

    def install(self) -> None:
        signal.signal(signal.SIGTERM, self._handle)
        signal.signal(signal.SIGINT, self._handle)

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        if self.fired is None:
            self.fired = signum
            return
        # Second signal: stop being graceful.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)


@dataclass(frozen=True)
class _StreamEnd:
    """Sentinel yielded by the chunk feeds between byte chunks:
    ``clean`` distinguishes orderly EOF from a vanished peer, ``final``
    marks the end of the whole run (stdin EOF, or a latched signal)."""

    clean: bool
    final: bool


_StreamItem = Union[bytes, _StreamEnd]


def _stdin_chunks(flag: _SignalFlag) -> Iterator[_StreamItem]:
    """Byte chunks from stdin, polling so a latched signal is noticed
    even while the pipe is idle."""
    fd = sys.stdin.fileno()
    while True:
        if flag.fired is not None:
            yield _StreamEnd(clean=True, final=True)
            return
        ready, _, _ = select.select([fd], [], [], _POLL_SECONDS)
        if not ready:
            continue
        chunk = os.read(fd, _CHUNK_BYTES)
        if not chunk:
            yield _StreamEnd(clean=True, final=True)
            return
        yield chunk


def _socket_chunks(
    path: str, flag: _SignalFlag, injector: Optional[FaultInjector]
) -> Iterator[_StreamItem]:
    """Byte chunks from a UNIX-socket accept loop.

    Serves connections sequentially until a signal latches; daemon
    state persists across connections.  A peer that resets (or an
    injected ``serve.disconnect``, which delivers half the chunk and
    then drops the connection) ends its stream with
    ``_StreamEnd(clean=False)`` — the consumer discards the torn frame
    and the loop accepts the next client.  Binds eagerly so the
    "listening" line below is printed only once the socket exists.
    """
    if os.path.exists(path):
        os.unlink(path)
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)
    server.settimeout(_POLL_SECONDS)
    print(f"listening on {path}", flush=True)

    def generate() -> Iterator[_StreamItem]:
        try:
            while flag.fired is None:
                try:
                    connection, _ = server.accept()
                except socket.timeout:
                    continue
                clean = True
                try:
                    connection.settimeout(_POLL_SECONDS)
                    while flag.fired is None:
                        try:
                            chunk = connection.recv(_CHUNK_BYTES)
                        except socket.timeout:
                            continue
                        except OSError:
                            clean = False
                            break
                        if not chunk:
                            break
                        if injector is not None and (
                            injector.fire(SITE_SERVE_DISCONNECT) is not None
                        ):
                            yield chunk[: max(1, len(chunk) // 2)]
                            clean = False
                            break
                        yield chunk
                finally:
                    connection.close()
                yield _StreamEnd(clean=clean, final=flag.fired is not None)
            yield _StreamEnd(clean=True, final=True)
        finally:
            server.close()
            try:
                os.unlink(path)
            except OSError:
                pass

    return generate()


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if not args.table:
        parser.error("the daemon needs at least one --table dump")
    if args.checkpoint_every and not args.checkpoint:
        parser.error("--checkpoint-every requires --checkpoint PATH")
    if args.resume and not (args.checkpoint or args.wal):
        parser.error("--resume requires --checkpoint PATH or --wal DIR")
    if args.memo_size < 0:
        parser.error("--memo-size must be >= 0")
    if args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    if args.max_line_bytes < 1:
        parser.error("--max-line-bytes must be >= 1")
    if args.wal_sync_every < 1:
        parser.error("--wal-sync-every must be >= 1")
    if args.wal_segment_bytes < 64:
        parser.error("--wal-segment-bytes must be >= 64")
    if args.heartbeat < 0:
        parser.error("--heartbeat must be >= 0")
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.max_errors is not None and args.max_errors < 0:
        parser.error("--max-errors must be >= 0")
    require_files(parser, args.table)

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
    table = build_lpm_table(args.lpm, merged, args.memo_size)
    print(f"{args.lpm} LPM table: {len(table):,} entries"
          + (f", memo bound {args.memo_size:,}" if args.memo_size else ""))

    config = ServeConfig(
        name="stdin" if args.stdin else args.socket,
        batch_size=args.batch_size,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        wal_dir=args.wal,
        wal_sync_every=args.wal_sync_every,
        wal_segment_bytes=args.wal_segment_bytes,
    )
    daemon = ServeDaemon(
        table, config, EngineMetrics(1), injector=injector
    )
    if args.resume:
        try:
            refed = daemon.recover()
        except WalError as exc:
            print(f"cannot recover: {exc}", file=sys.stderr)
            return EXIT_WAL
        except CheckpointError as exc:
            print(f"cannot recover: {exc}", file=sys.stderr)
            return EXIT_FATAL
        how = (
            f"{refed:,} re-fed from the WAL tail, no upstream replay"
            if args.wal
            else "the replayed upstream is skipped up to there"
        )
        print(
            f"recovered from checkpoint{' + WAL' if args.wal else ''}: "
            f"state at {daemon.events_consumed:,} stream events ({how})"
        )
    elif args.wal:
        daemon.attach_wal()

    flag = _SignalFlag()
    flag.install()
    chunks: Iterator[_StreamItem]
    if args.stdin:
        chunks = _stdin_chunks(flag)
    else:
        chunks = _socket_chunks(args.socket, flag, injector)

    splitter = LineSplitter(args.max_line_bytes)
    bad_lines = 0
    fed = 0
    last_beat = 0

    def count_error(exc: ServeProtocolError) -> bool:
        """Count one undecodable line; True = budget exhausted."""
        nonlocal bad_lines
        bad_lines += 1
        daemon.metrics.record_malformed()
        if args.max_errors is not None and bad_lines > args.max_errors:
            print(f"aborting: {exc} ({bad_lines:,} undecodable lines)",
                  file=sys.stderr)
            return True
        return False

    def consume(line: str) -> bool:
        """Parse and feed one line; True = budget exhausted."""
        nonlocal last_beat, fed
        try:
            event = parse_event(line)
        except ServeProtocolError as exc:
            return count_error(exc)
        if event is None:
            return False
        daemon.feed(event)
        fed += 1
        # Keyed on events fed this run, not events_consumed: a resumed
        # daemon skipping the replayed upstream is alive too.
        if args.heartbeat and fed - last_beat >= args.heartbeat:
            last_beat = fed
            health = daemon.health()
            print(
                "heartbeat: "
                + " ".join(f"{k}={v}" for k, v in health.items()),
                file=sys.stderr, flush=True,
            )
        return False

    try:
        for item in chunks:
            if isinstance(item, _StreamEnd):
                if item.clean:
                    tail = splitter.flush()
                    if tail is not None and consume(tail):
                        daemon.abort()
                        return EXIT_FATAL
                else:
                    try:
                        splitter.abandon()
                    except ServeProtocolError as exc:
                        if count_error(exc):
                            daemon.abort()
                            return EXIT_FATAL
                if item.final:
                    break
                continue
            splitter.push(item)
            while True:
                try:
                    line = splitter.next_line()
                except ServeProtocolError as exc:
                    if count_error(exc):
                        daemon.abort()
                        return EXIT_FATAL
                    continue
                if line is None:
                    break
                if consume(line):
                    daemon.abort()
                    return EXIT_FATAL
        daemon.finish()
    except InjectedFault as exc:
        daemon.abort()
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except CheckpointError as exc:
        daemon.abort()
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except WalError as exc:
        daemon.abort()
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_WAL
    except OSError as exc:
        daemon.abort()
        if exc.errno != errno.ENOSPC:
            raise
        print(f"fatal: write-ahead log out of disk space ({exc})",
              file=sys.stderr)
        return EXIT_WAL
    except BaseException:
        # Whatever else ends the run, the WAL's queued frames are
        # handed to the kernel first, as a crash would leave them.
        daemon.abort()
        raise

    exit_code = EXIT_OK
    if flag.fired is not None:
        name = signal.Signals(flag.fired).name
        exit_code = EXIT_SIGTERM if flag.fired == signal.SIGTERM else EXIT_SIGINT
        print(
            f"graceful drain after {name}: buffers flushed"
            + (", checkpoint written" if args.checkpoint else "")
            + (", WAL sealed" if args.wal else ""),
            file=sys.stderr,
        )
    if bad_lines:
        print(f"warning: skipped {bad_lines:,} undecodable event line(s)",
              file=sys.stderr)
    print(
        f"stream complete: {daemon.events_consumed:,} events "
        f"({daemon.deltas_received:,} route deltas; table at epoch "
        f"{int(daemon.table.epoch)}, {int(daemon.table.deltas_applied)} "
        "deltas applied)"
    )
    if args.checkpoint:
        print(f"checkpoint written: {args.checkpoint}")
    if args.verify_final:
        daemon.table.verify_patched()
        print(
            "equivalence gate: patched table matches a from-scratch "
            f"rebuild (digest {daemon.table.digest()[:12]}…)"
        )
    print()
    print_cluster_report(daemon.snapshot(), args.top, args.busy)
    if args.metrics:
        print()
        print(daemon.metrics.render())
    return exit_code


if __name__ == "__main__":
    sys.exit(serve_main())
