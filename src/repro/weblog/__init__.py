"""Web server log substrate.

Common Log Format entries and streaming parsing, log containers with
the indexes the clustering pipeline needs, per-log summary statistics,
a deterministic URL catalog (sizes + modification histories for the
caching simulation), the synthetic workload generator, and per-paper-
log presets (Nagano, Apache, EW3, Sun, ISP trace).
"""
