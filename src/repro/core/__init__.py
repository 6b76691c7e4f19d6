"""The paper's core contribution: network-aware client clustering.

Cluster identification by longest-prefix match on merged BGP tables
(§3.2) with the simple-/24 and classful baselines (§2), distribution
metrics (Figures 3–7), nslookup/traceroute validation (§3.3),
self-correction and adaptation (§3.5), spider/proxy detection (§4.1.2),
busy-cluster thresholding (§4.1.3), server clustering (§3.6), and
second-level network clusters (§3.6).
"""
