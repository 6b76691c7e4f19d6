"""Extension: the §4.1.1 client census, with hidden-client estimates.

Classifies every client of the Sun log as visible / spider / proxy and
estimates the users hidden behind each detected proxy from its
User-Agent mix and demand.
"""

from __future__ import annotations

from repro.core.hidden import census
from repro.experiments.context import ExperimentContext
from repro.util.tables import render_table

NAME = "ext-census"
TITLE = "Client census: visible / hidden / spiders (Sun log)"
PAPER = (
    "Paper (§4.1.1): clients are visible clients, hidden clients "
    "(behind proxies), or spiders; hidden clients are invisible to the "
    "server but matter for proxy placement."
)


def run(ctx: ExperimentContext) -> str:
    log = ctx.log("sun").log
    detections = ctx.detections("sun")
    result = census(log, detections)

    parts = [TITLE, PAPER, "", result.describe()]
    if result.estimates:
        rows = [
            [
                estimate.proxy_client,
                f"{estimate.proxy_requests:,}",
                estimate.user_agent_lower_bound,
                estimate.demand_based_estimate,
                estimate.estimated_users,
            ]
            for estimate in result.estimates
        ]
        parts.append("")
        parts.append(render_table(
            ["proxy", "requests", "UA lower bound", "demand estimate",
             "estimated users"],
            rows,
            title="hidden clients behind each detected proxy",
        ))
    parts.append("")
    parts.append(
        f"effective user population: {result.total_effective_users:,} "
        f"(visible {result.visible_clients:,} + hidden "
        f"{result.estimated_hidden_clients:,})"
    )
    return "\n".join(parts)
