"""Web-caching simulation substrate (§4.1).

Byte-capacity LRU caches, the TTL + Piggyback Cache Validation
consistency policy, an origin-server model with deterministic resource
modification, and the trace-driven simulator that places one proxy per
client cluster and replays a server log.
"""
