"""Long-lived clustering service with incremental routing updates.

The batch pipeline (:mod:`repro.engine`) compiles one routing state and
ingests one log.  This package keeps both live: a daemon consumes an
ndjson event stream mixing weblog requests with BGP deltas, patches the
LPM tables in place (:meth:`~repro.engine.packed.PackedLpm.apply_delta`)
and re-resolves only the clients whose longest match could have changed
(:meth:`~repro.engine.state.ClusterStore.reassign_clients`) — the
paper's §3.4 self-correction running as an online process instead of a
post-hoc repair pass.

Layout:

* :mod:`repro.serve.protocol` — the wire format (one JSON object per
  line: ``log`` / ``announce`` / ``withdraw`` events) and the bounded
  :class:`LineSplitter` that reassembles it from byte chunks;
* :mod:`repro.serve.wal` — the segmented write-ahead log
  (:class:`WalWriter` / :func:`recover_wal`) behind ``--wal``;
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, the event loop
  state machine (batching, delta coalescing, checkpoint/resume, WAL
  recovery);
* :mod:`repro.serve.cli` — ``repro-engine serve``.
"""
