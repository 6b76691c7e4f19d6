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

The checkpoint sites are visited after each checkpoint write, before
the file is read back.  Everything is stdlib-only and a plan
round-trips through JSON, so chaos runs can be driven from the CLI
(``repro-engine --inject plan.json``); :meth:`FaultPlan.from_dict`
rejects any malformed plan with a :class:`ValueError`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "SITE_CHECKPOINT_CORRUPT",
    "SITE_CHECKPOINT_TRUNCATE",
    "SITE_LOG_TRUNCATE",
    "SITE_DUMP_MANGLE",
    "SITE_SERVE_CRASH",
    "SITE_SERVE_WAL_TORN",
    "SITE_SERVE_WAL_ENOSPC",
    "SITE_SERVE_DISCONNECT",
    "ALL_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
]

SITE_CHECKPOINT_CORRUPT = "checkpoint.corrupt"
SITE_CHECKPOINT_TRUNCATE = "checkpoint.truncate"
SITE_LOG_TRUNCATE = "log.truncate"
SITE_DUMP_MANGLE = "dump.mangle"
SITE_SERVE_CRASH = "serve.crash"
SITE_SERVE_WAL_TORN = "serve.wal.torn"
SITE_SERVE_WAL_ENOSPC = "serve.wal.enospc"
SITE_SERVE_DISCONNECT = "serve.disconnect"

ALL_SITES = (
    SITE_CHECKPOINT_CORRUPT,
    SITE_CHECKPOINT_TRUNCATE,
    SITE_LOG_TRUNCATE,
    SITE_DUMP_MANGLE,
    SITE_SERVE_CRASH,
    SITE_SERVE_WAL_TORN,
    SITE_SERVE_WAL_ENOSPC,
    SITE_SERVE_DISCONNECT,
)


#: The JSON types each key of a plan / spec may hold (``bool`` is an
#: ``int`` subclass, so it is rejected separately).
_PLAN_FIELDS: Dict[str, Tuple[type, ...]] = {"seed": (int,), "specs": (list,)}
_SPEC_FIELDS: Dict[str, Tuple[type, ...]] = {
    "site": (str,), "at": (int,), "count": (int,), "arg": (int, float),
}


def _check_fields(
    what: str, data: Any, allowed: Dict[str, Tuple[type, ...]]
) -> None:
    """Reject ``data`` unless it is a dict of known keys, each holding
    one of its allowed types."""
    if not isinstance(data, dict):
        raise ValueError(f"a fault {what} must be a JSON object: {data!r}")
    for key, value in data.items():
        if key not in allowed:
            raise ValueError(
                f"unknown fault {what} key {key!r} "
                f"(known: {', '.join(sorted(allowed))})"
            )
        if isinstance(value, bool) or not isinstance(value, allowed[key]):
            raise ValueError(f"fault {what} key {key!r} has a bad value: {value!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire at visit ``at`` to ``site``.

    ``count`` is how many consecutive visits fire (``-1`` = every visit
    from ``at`` on — "every write is damaged").  ``arg`` is site-specific:
    surviving length fraction for ``checkpoint.truncate``, line budget
    for ``log.truncate``.
    """

    site: str
    at: int = 0
    count: int = 1
    arg: float = 0.0

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
    def from_dict(cls, data: Any) -> "FaultPlan":
        """Build a plan from its :meth:`to_dict` form; anything else —
        a non-object, an unknown key, a wrongly typed value, an unknown
        site — is a :class:`ValueError` naming what is wrong."""
        _check_fields("plan", data, _PLAN_FIELDS)
        specs = data.get("specs", [])
        for spec in specs:
            _check_fields("spec", spec, _SPEC_FIELDS)
            if "site" not in spec:
                raise ValueError(f"spec has no site: {spec!r}")
        return cls(
            specs=tuple(FaultSpec(**spec) for spec in specs),
            seed=data.get("seed", 0),
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
        """Read a saved plan: :class:`OSError` if the file cannot be
        read, :class:`ValueError` if it is not a valid plan."""
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

