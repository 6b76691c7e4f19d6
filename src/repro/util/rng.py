"""Deterministic random-number plumbing.

Every synthetic component (topology, snapshots, logs, churn) takes an
explicit seed so that experiments are reproducible run-to-run.  This
module centralises seed derivation: a parent seed fans out into
independent child streams by hashing a label, so adding a new consumer
never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "make_rng", "spawn"]


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a stream ``label``.

    Stable across runs and Python versions (uses SHA-256, not ``hash``).
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int) -> random.Random:
    """Return a fresh :class:`random.Random` seeded with ``seed``.

    Under ``REPRO_SANITIZE=1`` the returned RNG counts its draws into
    the sanitize statistics (sequence-identical to an uninstrumented
    ``random.Random(seed)``), so two runs that should be byte-identical
    can be audited for hidden extra randomness.  The import is lazy:
    RNG construction is rare (once per stream), and the common disabled
    path must not tax ``import repro.util.rng``.
    """
    from repro.analysis import sanitize

    if sanitize.is_enabled():
        return sanitize.counting_rng(seed)
    return random.Random(seed)


def spawn(parent_seed: int, label: str) -> random.Random:
    """Shorthand for ``make_rng(derive_seed(parent_seed, label))``."""
    return make_rng(derive_seed(parent_seed, label))
