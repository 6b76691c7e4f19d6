"""The four workloads: child-side set-up and one *pass* of each.

A pass is one complete user-visible run over the generated files —
construct the engine or daemon, feed every event, finish, snapshot,
render the report — driven through the public Python API exactly as
the corresponding CLI loop drives it (``repro.engine.cli.main``,
``repro.serve.cli.serve_main``; ``bench/tests/test_cli_equivalence.py``
holds the two together).  The feeder is a closed loop with one client:
the next slice is handed over when the previous call returns, which is
how a file read or a back-pressured pipe feeds these CLIs.

Module-level functions of the system are called through their modules
(``cli.load_tables`` rather than an imported name) so that the tracer's
patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro import cli
from repro.engine import fastpath
from repro.engine.metrics import EngineMetrics
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.supervisor import SupervisedEngine, SupervisorConfig
from repro.errors import ServeProtocolError
from repro.serve import protocol
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.weblog import parser

from bench import inputs
from bench.clock import FeedClock
from bench.spec import SLICE_EVENTS
from bench.trace import Tracer


class SetUp:
    """What the child builds before the clock starts."""

    def __init__(self, manifest: Dict[str, Any], reuse: Optional["SetUp"]) -> None:
        """A full set-up, or with ``reuse`` only a fresh LPM table (a
        pass warms the memo and the serve passes patch the table, so
        every pass needs its own) around the already-loaded rest."""
        config = manifest["config"]
        workload = manifest["workload"]
        self.full = reuse is None
        self.timings: Dict[str, float] = {}
        self.triples: List[inputs.Triple] = []
        self.blobs: List[bytes] = []
        with FeedClock(spins_per_lap=5) as clock:
            if reuse is None:
                began = perf_counter()
                self.merged = cli.load_tables(manifest["tables"])
                self.timings["cli.load_tables_s"] = perf_counter() - began
                clock.lap()
            else:
                self.merged = reuse.merged
            began = perf_counter()
            self.table = self._build(config)
            #: ``serve_durable`` restarts into a second daemon, which
            #: needs a table of its own to adopt the checkpoint into.
            self.spare_table = (
                self._build(config) if workload == "serve_durable" else None
            )
            self.timings["engine.fastpath.build_s"] = perf_counter() - began
            clock.lap()
            if reuse is not None:
                self.triples, self.blobs = reuse.triples, reuse.blobs
            elif workload == "batch_sharded":
                self.triples = inputs.read_triples(manifest["files"]["triples"])
            elif workload in ("serve_churn", "serve_durable"):
                with open(manifest["files"]["stream"], "rb") as handle:
                    lines = handle.read().splitlines(keepends=True)
                self.blobs = [
                    b"".join(lines[start:start + SLICE_EVENTS])
                    for start in range(0, len(lines), SLICE_EVENTS)
                ]
        #: Normalised to the reference machine, like the passes.
        self.seconds = clock.normal_s

    def release(self) -> None:
        """Drop the per-pass tables; what ``reuse`` needs stays."""
        self.table = self.spare_table = None

    def _build(self, config: Dict[str, Any]) -> Any:
        return fastpath.build_lpm_table(
            config["lpm"], self.merged, config["memo_size"]
        )


def render_report(clusters: Any, top: int) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.print_cluster_report(clusters, top, None)
    return buffer.getvalue()


def _result(
    clock: FeedClock, clusters: Any, text: str, counters: Dict[str, float],
    failed: float,
) -> Dict[str, Any]:
    return {
        "clock": clock,
        "events": clock.events,
        "clusters": clusters,
        "report": text,
        "counters": counters,
        "failed": int(failed),
    }


def run_batch_file(
    manifest: Dict[str, Any], state: SetUp, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    """``repro-engine LOG --table ... --lpm stride --memo-size N``."""
    config = manifest["config"]
    path = manifest["files"]["log"]
    chunk_size = config["chunk_size"]
    engine = SupervisedEngine(
        ShardedClusterEngine(
            state.table,
            EngineConfig(num_shards=1, chunk_size=chunk_size, name=path),
            EngineMetrics(1),
        ),
        SupervisorConfig(),
    )
    report = parser.ParseReport()
    with FeedClock(tracer) as clock, engine:
        with open(path) as handle:
            entries: Iterable[Any] = parser.iter_clf_entries(handle, report)
            if tracer is not None:
                entries = tracer.iterate(entries, "weblog.parser")
            entries = clock.pull(entries)
            while True:
                batch = list(itertools.islice(entries, chunk_size))
                if not batch:
                    break
                engine.ingest(batch)
        engine.metrics.record_malformed(report.malformed)
        clusters = engine.snapshot()
        text = render_report(clusters, config["top"])
    counters = engine.metrics.snapshot()
    result = _result(
        clock, clusters, text, counters,
        report.malformed + counters["entries_quarantined"],
    )
    # Lines the parser swallowed never crossed the feed boundary.
    result["events"] = result["parser_lines"] = report.total_lines
    return result


def run_batch_sharded(
    manifest: Dict[str, Any],
    state: SetUp,
    tracer: Optional[Tracer],
    num_shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Pre-parsed triples straight into ``ingest_triples``."""
    config, sizes = manifest["config"], manifest["sizes"]
    shards = num_shards or sizes["sharded_shards"]
    engine = ShardedClusterEngine(
        state.table,
        EngineConfig(
            num_shards=shards, chunk_size=config["chunk_size"], name="triples"
        ),
        EngineMetrics(shards),
    )
    cycled = itertools.chain.from_iterable(
        itertools.repeat(state.triples, sizes["sharded_cycles"])
    )
    with FeedClock(tracer) as clock, engine:
        engine.ingest_triples(clock.pull(cycled))
        clusters = engine.snapshot()
        text = render_report(clusters, config["top"])
    counters = engine.metrics.snapshot()
    return _result(
        clock, clusters, text, counters, counters["entries_quarantined"]
    )


def run_serve(
    manifest: Dict[str, Any], state: SetUp, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    """``repro-engine serve --stdin --table ...`` over the stream file;
    ``serve_durable`` adds ``--wal --checkpoint --checkpoint-every`` and
    a crash: ``abort()`` mid-stream, then a new daemon ``recover()``s
    and is fed the rest."""
    config, sizes = manifest["config"], manifest["sizes"]
    durable = manifest["workload"] == "serve_durable"
    batch_size = config["batch_size"]
    serve_config = ServeConfig(name="stdin", batch_size=batch_size)
    abort_slice = -1
    if durable:
        scratch = os.path.join(manifest["workdir"], "durable")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        serve_config.checkpoint_path = os.path.join(scratch, "serve.ckpt")
        serve_config.checkpoint_every = sizes["durable_checkpoint_every"]
        serve_config.wal_dir = os.path.join(scratch, "wal")
        serve_config.wal_sync_every = config["wal_sync_every"]
        serve_config.wal_segment_bytes = config["wal_segment_bytes"]
        abort_slice = sizes["durable_abort_after"] // SLICE_EVENTS
    metrics = EngineMetrics(1)
    daemon = ServeDaemon(state.table, serve_config, metrics)
    if durable:
        daemon.attach_wal()
    splitter = protocol.LineSplitter(protocol.DEFAULT_MAX_LINE_BYTES)
    clock = FeedClock(tracer)
    refed = 0

    def consume(line: str) -> None:
        try:
            event = protocol.parse_event(line)
        except ServeProtocolError:
            metrics.record_malformed()
            return
        if event is None:
            return
        daemon.submit(event)
        if daemon.ingress_depth >= batch_size:
            daemon.pump()

    with clock:
        for index, blob in enumerate(state.blobs):
            if index == abort_slice:
                daemon.abort()
                daemon = ServeDaemon(state.spare_table, serve_config, metrics)
                refed = daemon.recover()
            # Push side: one slice is the time to push 256 lines through
            # split / parse / submit / pump.
            clock.begin()
            splitter.push(blob)
            while True:
                line = splitter.next_line()
                if line is None:
                    break
                consume(line)
            lines = blob.count(b"\n")
            clock.end(full=lines == SLICE_EVENTS)
            clock.events += lines
        tail = splitter.flush()
        if tail is not None:
            clock.events += 1
            consume(tail)
        daemon.finish()
        clusters = daemon.snapshot()
        text = render_report(clusters, config["top"])
    counters = metrics.snapshot()
    result = _result(
        clock, clusters, text, counters,
        counters["malformed_skipped"] + counters["shed_events"],
    )
    result.update(
        daemon=daemon, refed=refed,
        abort_after=abort_slice * SLICE_EVENTS if durable else 0,
    )
    return result


RUNNERS = {
    "batch_file": run_batch_file,
    "batch_sharded": run_batch_sharded,
    "serve_churn": run_serve,
    "serve_durable": run_serve,
}
