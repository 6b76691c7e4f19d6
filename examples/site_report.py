#!/usr/bin/env python3
"""The whole paper as one function call: a site operator's report.

``analyze_log`` runs clustering, coverage, spider/proxy detection, the
client census, validation sampling, and busy-cluster thresholding in
one pass and renders a digest — what a Nagano-sized site's operations
team would read each morning.

Run:  python examples/site_report.py
"""

from repro.core.report import analyze_log
from repro.pipeline import quick_pipeline
from repro.simnet.dns import SimulatedDns


def main() -> None:
    result = quick_pipeline(seed=1998, preset="sun", scale=0.25)
    dns = SimulatedDns(result.topology)
    report = analyze_log(
        result.synthetic_log.log,
        result.table,
        dns=dns,
        topology=result.topology,
    )
    print(report.render(top=8))


if __name__ == "__main__":
    main()
