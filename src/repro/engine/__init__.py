"""High-throughput streaming clustering engine.

The paper's §3 pipeline — one longest-prefix match per client against a
pointer-chasing radix trie — is the right shape for correctness but the
wrong shape for throughput.  This package is the scale-out substrate:

* :mod:`repro.engine.packed` — :class:`PackedLpm`, an immutable,
  array-packed longest-prefix-match table compiled once from a
  :class:`~repro.bgp.table.MergedPrefixTable` (or any radix tree);
  batch lookups run one binary search per address instead of one trie
  walk.
* :mod:`repro.engine.fastpath` — the hot-path accelerators:
  :class:`StrideLpm` (a stride-16 direct-index overlay on the packed
  layout — most lookups are one array index), :class:`MemoizedLookup`
  (a bounded exact-IP memo exploiting heavy-tailed client repetition),
  and :class:`PackedBatch` (flat-buffer shard dispatch — IPC cost no
  longer scales with per-entry object count).  Select with the CLIs'
  ``--lpm {packed,stride}`` and ``--memo-size``.
* :mod:`repro.engine.state` — :class:`ClusterStore`, the incremental,
  mergeable cluster accumulator, and the one versioned, parse-only
  checkpoint layout (:func:`write_checkpoint` / :func:`read_checkpoint`).
* :mod:`repro.engine.shard` — :class:`ShardedClusterEngine`, which
  hash-partitions client addresses across N shards, fans batches out to
  worker processes, and merges per-shard states in shard order so
  results are deterministic.
* :mod:`repro.engine.shm` — the zero-copy hot path:
  :class:`SharedLpm` publishes the packed interval arrays into
  ``multiprocessing.shared_memory`` segments, persistent workers attach
  once (:func:`attach_shared_table`) and pull batches from a queue —
  only segment *names* (:class:`SharedLpmHandle`) cross the pickle
  boundary.  The one parallel transport: in use whenever
  ``num_shards > 1``.
* :mod:`repro.engine.metrics` — :class:`EngineMetrics` counters/timers
  (entries/sec, lookups, batch latency, shard skew, fault accounting).
* :mod:`repro.engine.supervisor` — :class:`SupervisedEngine`, the
  recovery layer: bounded retries with exponential backoff, dead-letter
  quarantine, read-back-verified checkpoints, and graceful degradation
  to inline ingestion when the workers keep dying.
* :mod:`repro.engine.cli` — the ``repro-engine`` command line.

Fault tolerance is testable: :mod:`repro.faults` injects worker
crashes, hangs, checkpoint corruption, and dirty input on a
deterministic schedule, and ``tests/faults/`` proves a disturbed run
still emits output identical to an undisturbed one.

Everything downstream still receives a plain
:class:`~repro.core.clustering.ClusterSet`, so validation,
thresholding, placement, and the caching simulation run on engine
output unchanged.
"""

from repro.engine.fastpath import (
    LPM_KINDS,
    MemoizedLookup,
    PackedBatch,
    StrideLpm,
    build_lpm_table,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.packed import PackedLpm
from repro.engine.shard import EngineConfig, ShardedClusterEngine, shard_of
from repro.engine.state import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointTableMismatchError,
    CheckpointVersionError,
    ClusterStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.shm import SharedLpm, SharedLpmHandle, attach_shared_table
from repro.engine.supervisor import SupervisedEngine, SupervisorConfig

__all__ = [
    "PackedLpm",
    "StrideLpm",
    "MemoizedLookup",
    "PackedBatch",
    "build_lpm_table",
    "LPM_KINDS",
    "ClusterStore",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointTableMismatchError",
    "read_checkpoint",
    "write_checkpoint",
    "SharedLpm",
    "SharedLpmHandle",
    "attach_shared_table",
    "ShardedClusterEngine",
    "EngineConfig",
    "shard_of",
    "EngineMetrics",
    "SupervisedEngine",
    "SupervisorConfig",
]
