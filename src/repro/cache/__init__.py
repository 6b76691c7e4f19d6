"""Web-caching simulation substrate (§4.1).

Byte-capacity LRU caches, the TTL + Piggyback Cache Validation
consistency policy, an origin-server model with deterministic resource
modification, and the trace-driven simulator that places one proxy per
client cluster and replays a server log.
"""

from repro.cache.lru import CacheItem, LruCache
from repro.cache.policy import DEFAULT_TTL_SECONDS, ProxyCache, ProxyStats
from repro.cache.server import FetchResult, OriginServer
from repro.cache.cooperative import CooperativeResult, CooperativeSimulator
from repro.cache.multiserver import (
    MultiServerResult,
    MultiServerSimulator,
    OriginSpec,
    merge_logs,
)
from repro.cache.simulator import (
    CachingSimulator,
    ProxyResult,
    SimulationResult,
    filter_rare_urls,
)

__all__ = [
    "CooperativeSimulator",
    "CooperativeResult",
    "OriginSpec",
    "MultiServerSimulator",
    "MultiServerResult",
    "merge_logs",
    "CacheItem",
    "LruCache",
    "ProxyCache",
    "ProxyStats",
    "DEFAULT_TTL_SECONDS",
    "OriginServer",
    "FetchResult",
    "CachingSimulator",
    "SimulationResult",
    "ProxyResult",
    "filter_rare_urls",
]
