"""High-throughput streaming clustering engine.

The paper's §3 pipeline — one longest-prefix match per client against a
pointer-chasing radix trie — is the right shape for correctness but the
wrong shape for throughput.  This package is the streaming substrate:

* :mod:`repro.engine.packed` — :class:`PackedLpm`, an immutable,
  array-packed longest-prefix-match table compiled once from a
  :class:`~repro.bgp.table.MergedPrefixTable` (or any radix tree);
  batch lookups run one binary search per address instead of one trie
  walk.
* :mod:`repro.engine.fastpath` — the hot-path accelerators:
  :class:`StrideLpm` (a stride-16 direct-index overlay on the packed
  layout — most lookups are one array index), :class:`MemoizedLookup`
  (a bounded exact-IP memo exploiting heavy-tailed client repetition),
  and :class:`PackedBatch` (one shard's batch as flat buffers).
  Select the first two with the CLIs' ``--lpm {packed,stride}`` and
  ``--memo-size``.
* :mod:`repro.engine.state` — :class:`ClusterStore`, the incremental,
  mergeable cluster accumulator, and the one versioned, parse-only
  checkpoint layout (:func:`write_checkpoint` / :func:`read_checkpoint`).
* :mod:`repro.engine.shard` — :class:`ShardedClusterEngine`, which
  hash-partitions client addresses across N per-shard stores in one
  process and merges them in shard order so results are deterministic.
* :mod:`repro.engine.metrics` — :class:`EngineMetrics` counters/timers
  (entries/sec, lookups, batch latency, shard skew, fault accounting).
* :mod:`repro.engine.supervisor` — :class:`SupervisedEngine`, the
  recovery layer: bounded retries with exponential backoff, dead-letter
  quarantine, and read-back-verified checkpoints.
* :mod:`repro.engine.cli` — the ``repro-engine`` command line.

Fault tolerance is testable: :mod:`repro.faults` injects failed and
slow chunks, checkpoint corruption, and dirty input on a
deterministic schedule, and ``tests/faults/`` proves a disturbed run
still emits output identical to an undisturbed one.

Everything downstream still receives a plain
:class:`~repro.core.clustering.ClusterSet`, so validation,
thresholding, placement, and the caching simulation run on engine
output unchanged.
"""
