"""repro — network-aware clustering of web clients.

A full reproduction of Krishnamurthy & Wang, *On Network-Aware
Clustering of Web Clients* (SIGCOMM 2000): client clustering by
longest-prefix match over merged BGP routing snapshots, validation via
nslookup/traceroute suffix tests, self-correction, spider/proxy
detection, busy-cluster thresholding, and the per-cluster proxy-caching
simulation — plus every substrate the paper relies on (radix-trie LPM,
BGP snapshot sources and dynamics, a ground-truth synthetic Internet,
web-log generation, and an LRU/TTL/PCV cache simulator).

Quickstart: :func:`repro.pipeline.quick_pipeline` runs the whole
identification pipeline in one call.

Subpackages (each is a namespace: import from the module that defines
a name, not from the package):

- :mod:`repro.net` — IPv4/prefix machinery and LPM engines
- :mod:`repro.bgp` — routing-table formats, sources, synthesis, dynamics
- :mod:`repro.simnet` — ground-truth topology, simulated DNS/traceroute
- :mod:`repro.weblog` — log entries/parsing/stats and workload synthesis
- :mod:`repro.core` — clustering, validation, detection, thresholding
- :mod:`repro.cache` — the web-caching simulation
- :mod:`repro.engine` — the streaming batch engine (``repro-engine``)
- :mod:`repro.serve` — the live daemon (``repro-engine serve``)
- :mod:`repro.analysis` — the repo-specific lint pass (``repro-lint``)
- :mod:`repro.experiments` — regenerates every paper table and figure
"""

__version__ = "1.0.0"
