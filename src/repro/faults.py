"""Deterministic fault injection for the ingestion pipeline.

The paper's own pipeline survived fourteen messy routing snapshots and
multi-day log collection; ours has to survive the equivalents we can
manufacture.  This module is the chaos harness: a :class:`FaultPlan`
names *what* goes wrong and *when* (the Nth visit to an injection
site), and a :class:`FaultInjector` executes the plan — seeded, so a
failing chaos run replays exactly.

Injection sites
---------------

=========================  =================================================
site                       effect
=========================  =================================================
``worker.crash``           a shard worker raises mid-batch (clean exception
                           surfaced to the driver as a pool failure)
``worker.die``             a shard worker hard-exits (``os._exit``) — the
                           batch never completes; only a dispatch timeout
                           can recover
``worker.slow``            a shard worker sleeps ``arg`` seconds first
``shm.worker_crash``       a persistent shared-memory worker applies its
                           batch into the local delta store and then
                           hard-exits before acking — the driver must
                           discard worker deltas, replay, and retry over
                           an intact shared table
``checkpoint.corrupt``     one byte of a just-written checkpoint is flipped
``checkpoint.truncate``    a just-written checkpoint is cut to ``arg``
                           fraction of its length
``log.truncate``           a text stream ends after ``arg`` lines
                           (simulates a log cut mid-transfer)
``dump.mangle``            a routing-dump line is replaced with garbage
``serve.crash``            the serve daemon raises just before applying a
                           routing delta batch (simulates dying mid-patch;
                           the checkpoint on disk predates the batch)
``serve.wal.torn``         a WAL append writes only half its frame and then
                           the daemon dies — the torn write a crash leaves
                           behind; recovery must truncate at the bad frame
``serve.wal.enospc``       a WAL append fails with ``ENOSPC`` (disk full);
                           the daemon must checkpoint, reclaim covered
                           segments, and retry before giving up
``serve.disconnect``       a serve client's connection drops mid-chunk
                           (half the received bytes arrive, then a reset);
                           the accept loop must count-and-skip the torn
                           frame and keep serving
=========================  =================================================

Worker faults are *decided in the driver* at dispatch time and shipped
to the worker as a directive alongside its batch — the decision stays
deterministic and the plan never has to cross a process boundary.
Everything is stdlib-only and a plan round-trips through JSON, so chaos
runs can be driven from the CLI (``repro-engine --inject plan.json``).

The no-op default costs one ``is None`` check per dispatch: the happy
path is untouched.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import InjectedFault

__all__ = [
    "SITE_WORKER_CRASH",
    "SITE_WORKER_DIE",
    "SITE_WORKER_SLOW",
    "SITE_SHM_WORKER_CRASH",
    "SITE_CHECKPOINT_CORRUPT",
    "SITE_CHECKPOINT_TRUNCATE",
    "SITE_LOG_TRUNCATE",
    "SITE_DUMP_MANGLE",
    "SITE_SERVE_CRASH",
    "SITE_SERVE_WAL_TORN",
    "SITE_SERVE_WAL_ENOSPC",
    "SITE_SERVE_DISCONNECT",
    "ALL_SITES",
    "WORKER_SITES",
    "SHM_WORKER_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "execute_worker_directive",
]

SITE_WORKER_CRASH = "worker.crash"
SITE_WORKER_DIE = "worker.die"
SITE_WORKER_SLOW = "worker.slow"
SITE_SHM_WORKER_CRASH = "shm.worker_crash"
SITE_CHECKPOINT_CORRUPT = "checkpoint.corrupt"
SITE_CHECKPOINT_TRUNCATE = "checkpoint.truncate"
SITE_LOG_TRUNCATE = "log.truncate"
SITE_DUMP_MANGLE = "dump.mangle"
SITE_SERVE_CRASH = "serve.crash"
SITE_SERVE_WAL_TORN = "serve.wal.torn"
SITE_SERVE_WAL_ENOSPC = "serve.wal.enospc"
SITE_SERVE_DISCONNECT = "serve.disconnect"

ALL_SITES = (
    SITE_WORKER_CRASH,
    SITE_WORKER_DIE,
    SITE_WORKER_SLOW,
    SITE_CHECKPOINT_CORRUPT,
    SITE_CHECKPOINT_TRUNCATE,
    SITE_LOG_TRUNCATE,
    SITE_DUMP_MANGLE,
    SITE_SERVE_CRASH,
    SITE_SERVE_WAL_TORN,
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_DISCONNECT,
    SITE_SHM_WORKER_CRASH,
)

#: Sites whose faults are executed inside a worker process (the driver
#: arms them; :func:`execute_worker_directive` runs them).
WORKER_SITES = (SITE_WORKER_CRASH, SITE_WORKER_DIE, SITE_WORKER_SLOW)

#: The worker sites visited by the persistent shared-memory dispatch
#: path: everything the inline path injects, plus the post-apply hard
#: death unique to shm recovery.  Appended after :data:`WORKER_SITES`
#: so per-site visit ordering (and plan determinism) is unchanged for
#: existing chaos plans.
SHM_WORKER_SITES = WORKER_SITES + (SITE_SHM_WORKER_CRASH,)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire at visit ``at`` to ``site``.

    ``count`` is how many consecutive visits fire (``-1`` = every visit
    from ``at`` on — "the pool keeps dying").  ``arg`` is site-specific:
    seconds for ``worker.slow``, surviving length fraction for
    ``checkpoint.truncate``, line budget for ``log.truncate``.
    ``shard`` pins a worker fault to one shard's batch; ``-1`` lets the
    injector's RNG pick.
    """

    site: str
    at: int = 0
    count: int = 1
    arg: float = 0.0
    shard: int = -1

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown injection site: {self.site!r}")
        if self.at < 0:
            raise ValueError(f"at must be >= 0: {self.at!r}")
        if self.count < -1 or self.count == 0:
            raise ValueError(f"count must be positive or -1: {self.count!r}")

    def covers(self, visit: int) -> bool:
        """Does this spec fire on the ``visit``-th visit to its site?"""
        if visit < self.at:
            return False
        return self.count == -1 or visit < self.at + self.count


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of faults.

    Plans are value objects: build one in a test, save it next to a CI
    job, hand it to ``repro-engine --inject`` — the same plan produces
    the same failures in the same places.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, *specs: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(specs=tuple(specs), seed=seed)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec(**spec) for spec in data.get("specs", ())),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def sites(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.site for spec in self.specs}))


class FaultInjector:
    """Executes a :class:`FaultPlan`: counts visits, arms faults.

    One injector instance serves one run; its per-site visit counters
    and seeded RNG are the whole state, so two injectors built from the
    same plan misbehave identically.  ``fired`` keeps per-site totals
    for the accounting the chaos tests assert on.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.visits: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}
        self._rng = random.Random(self.plan.seed)

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def fire(self, site: str) -> Optional[FaultSpec]:
        """Record one visit to ``site``; return the armed spec, if any."""
        visit = self.visits.get(site, 0)
        self.visits[site] = visit + 1
        for spec in self.plan.specs:
            if spec.site == site and spec.covers(visit):
                self.fired[site] = self.fired.get(site, 0) + 1
                return spec
        return None

    # -- driver-side helpers ---------------------------------------------

    def worker_directive(
        self, num_shards: int, sites: Optional[Tuple[str, ...]] = None
    ) -> Optional[Tuple[int, str, float]]:
        """Arm at most one worker fault for the next dispatch.

        Visits every worker site once per dispatch (``sites`` defaults
        to :data:`WORKER_SITES`; the shm dispatch path passes
        :data:`SHM_WORKER_SITES`); returns ``(shard, site, arg)`` for
        the first armed fault, or ``None``.
        """
        for site in (sites if sites is not None else WORKER_SITES):
            spec = self.fire(site)
            if spec is not None:
                shard = spec.shard
                if not 0 <= shard < num_shards:
                    shard = self._rng.randrange(num_shards)
                return (shard, site, spec.arg)
        return None

    def damage_file(self, path: str) -> Optional[str]:
        """Apply any armed checkpoint corruption/truncation to ``path``.

        Returns the site that fired (for accounting), or ``None``.
        Corruption flips one payload byte at a seeded offset; truncation
        keeps ``max(1, arg * size)`` bytes — both leave a file present
        but undecodable, the failure mode a torn write or bad disk
        produces.
        """
        spec = self.fire(SITE_CHECKPOINT_CORRUPT)
        if spec is not None:
            size = os.path.getsize(path)
            # Flip a byte in the back half: that is payload, not header,
            # so only a checksum (not the magic check) can catch it.
            offset = self._rng.randrange(size // 2, size)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0xFF]))
            return SITE_CHECKPOINT_CORRUPT
        spec = self.fire(SITE_CHECKPOINT_TRUNCATE)
        if spec is not None:
            size = os.path.getsize(path)
            keep = max(1, int(size * spec.arg)) if spec.arg else size // 2
            with open(path, "r+b") as handle:
                handle.truncate(min(keep, size - 1))
            return SITE_CHECKPOINT_TRUNCATE
        return None

    def wrap_lines(self, lines: Iterable[str], site: str) -> Iterator[str]:
        """Stream ``lines`` through the plan's input faults.

        ``log.truncate`` ends the stream after ``arg`` lines;
        ``dump.mangle`` replaces armed lines with un-parseable garbage.
        Each yielded line counts as one visit to ``site``.
        """
        if site == SITE_LOG_TRUNCATE:
            budget: Optional[int] = None
            for spec in self.plan.specs:
                if spec.site == site:
                    budget = int(spec.arg)
                    break
            for number, line in enumerate(lines):
                if budget is not None and number >= budget:
                    self.fired[site] = self.fired.get(site, 0) + 1
                    return
                yield line
            return
        if site == SITE_DUMP_MANGLE:
            for line in lines:
                if self.fire(site) is not None:
                    yield "%% mangled-by-fault-injection %%\n"
                else:
                    yield line
            return
        raise ValueError(f"wrap_lines cannot serve site {site!r}")


def execute_worker_directive(directive: Tuple[int, str, float]) -> None:
    """Run an armed worker fault inside the worker process.

    Called by the shard worker when the driver shipped it a directive.
    ``worker.crash`` raises (a clean pool failure the driver sees as the
    task's exception); ``worker.die`` hard-exits without cleanup, the
    closest stdlib analogue to ``kill -9`` — the task never returns and
    only the supervisor's dispatch timeout can recover; ``worker.slow``
    sleeps and then processes normally.
    """
    _, site, arg = directive
    if site == SITE_WORKER_SLOW:
        time.sleep(arg)
        return
    if site == SITE_WORKER_CRASH:
        raise InjectedFault(site, "injected worker crash")
    if site == SITE_WORKER_DIE:
        os._exit(17)
    if site == SITE_SHM_WORKER_CRASH:
        # The shm worker calls this *after* applying the batch into its
        # local delta store and before acking: the strongest test of
        # exactly-once recovery — the driver must throw the doomed
        # deltas away, replay its acked chunks, and retry this one.
        os._exit(19)
    raise ValueError(f"unknown worker directive site: {site!r}")
