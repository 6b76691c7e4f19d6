"""High-throughput streaming clustering engine.

The paper's §3 pipeline — one longest-prefix match per client against a
pointer-chasing radix trie — is the right shape for correctness but the
wrong shape for throughput.  This package is the streaming substrate:

* :mod:`repro.engine.packed` — :class:`PackedLpm`, an array-packed
  longest-prefix-match table compiled once from a
  :class:`~repro.bgp.table.MergedPrefixTable` and patched in place;
  batch lookups run one binary search per address instead of one trie
  walk.
* :mod:`repro.engine.fastpath` — :class:`StrideLpm`, the production
  table both CLIs compile (a stride-16 direct-index overlay on the
  packed layout — most lookups are one array index),
  :class:`MemoizedLookup` (a bounded exact-IP memo exploiting
  heavy-tailed client repetition, ``--memo-size``), and
  :class:`PackedBatch` (one shard's batch as flat buffers).
* :mod:`repro.engine.state` — :class:`ClusterStore`, the incremental,
  mergeable cluster accumulator, and the one versioned, parse-only
  checkpoint layout (:func:`write_checkpoint` / :func:`read_checkpoint`).
* :mod:`repro.engine.shard` — :class:`ShardedClusterEngine`, which
  hash-partitions client addresses across N per-shard stores in one
  process, merges them in shard order so results are deterministic, and
  rewrites any checkpoint that does not read back.
* :mod:`repro.engine.metrics` — :class:`EngineMetrics` counters/timers
  (entries/sec, lookups, batch latency, shard skew, fault accounting).
* :mod:`repro.engine.supervisor` — two names the benchmark harness
  still imports, kept as shims until ROADMAP item 1.
* :mod:`repro.engine.cli` — the ``repro-engine`` command line.

Fault tolerance is testable: :mod:`repro.faults` injects checkpoint
corruption and dirty input on a deterministic schedule, and ``tests/faults/`` proves a disturbed run
still emits output identical to an undisturbed one.

Everything downstream still receives a plain
:class:`~repro.core.clustering.ClusterSet`, so validation,
thresholding, placement, and the caching simulation run on engine
output unchanged.
"""
