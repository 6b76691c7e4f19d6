"""Two names the benchmark still imports; nothing in ``src/`` uses them."""

from typing import Any, Iterable, Optional

from repro.core.clustering import ClusterSet
from repro.engine.shard import ShardedClusterEngine, Triple


class SupervisorConfig:
    """Empty; ``bench/workloads.py`` still builds one (goes with ROADMAP item 1)."""


class SupervisedEngine:
    """Forwards to ``engine``; ``bench/workloads.py`` drives it and
    ``bench/child.py`` traces its ``ingest`` (goes with ROADMAP item 1)."""

    def __init__(self, engine: ShardedClusterEngine, config: Optional[SupervisorConfig] = None):
        self.engine, self.metrics = engine, engine.metrics

    def __enter__(self) -> "SupervisedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.engine.close()

    def ingest(self, triples: Iterable[Triple]) -> int:
        return self.engine.ingest(triples)

    def snapshot(self) -> ClusterSet:
        return self.engine.snapshot()
