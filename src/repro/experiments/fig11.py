"""Figure 11: server performance vs proxy cache size (Nagano).

Paper: with one proxy per cluster (ttl = 1 h, PCV + LRU) both hit and
byte-hit ratios observed at the server rise with cache size, reaching
60–75 %; the simple approach *under-estimates* both by ~10 % once the
per-proxy cache is larger than ~700 KB.
"""

from __future__ import annotations

from repro.cache.simulator import CachingSimulator
from repro.experiments.context import ExperimentContext
from repro.util.tables import render_table

NAME = "fig11"
TITLE = "Server hit / byte-hit ratio vs per-proxy cache size (Nagano)"
PAPER = (
    "Paper: ratios rise with cache size to 60-75%; simple under-"
    "estimates both by ~10% for caches > ~700KB."
)

#: The paper sweeps 100 KB – 100 MB.
CACHE_SIZES = (100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
               30_000_000, 100_000_000)
MIN_URL_ACCESSES = 10  # footnote 9


def run(ctx: ExperimentContext) -> str:
    synthetic = ctx.log("nagano")
    log, aware, simple = ctx.cleaned("nagano")
    sim_aware = CachingSimulator(log, synthetic.catalog, aware,
                                 min_url_accesses=MIN_URL_ACCESSES)
    sim_simple = CachingSimulator(log, synthetic.catalog, simple,
                                  min_url_accesses=MIN_URL_ACCESSES)

    rows = []
    gaps = []
    for size in CACHE_SIZES:
        r_aware = sim_aware.run(cache_bytes=size)
        r_simple = sim_simple.run(cache_bytes=size)
        gap = r_aware.server_hit_ratio - r_simple.server_hit_ratio
        gaps.append((size, gap))
        rows.append(
            [
                f"{size / 1e6:g} MB",
                f"{r_aware.server_hit_ratio:.3f}",
                f"{r_simple.server_hit_ratio:.3f}",
                f"{r_aware.server_byte_hit_ratio:.3f}",
                f"{r_simple.server_byte_hit_ratio:.3f}",
                f"{100 * gap:+.1f}%",
            ]
        )
    table = render_table(
        ["cache size", "hit (aware)", "hit (simple)",
         "byte-hit (aware)", "byte-hit (simple)", "simple underestimates"],
        rows,
        title=TITLE,
    )
    large_gaps = [gap for size, gap in gaps if size >= 700_000]
    verdict = (
        f"simple under-estimates hit ratio for caches >= 700KB by "
        f"{100 * min(large_gaps):.1f}% .. {100 * max(large_gaps):.1f}%"
        if large_gaps
        else "no large-cache points"
    )
    return f"{table}\n\n{verdict}\n{PAPER}"
