"""Property test: summary-based analysis agrees with inlining.

Hypothesis generates small two-function programs — a caller that
opens a file and a helper the handle is handed to,
with a raising step and a release sprinkled in various positions.  For
each program, the interprocedural verdict on the two-function version
(combined with the intraprocedural pass, which owns the directly
visible cases) must equal the intraprocedural verdict on the manually
*inlined* single-function version.  Summaries are an abstraction of
inlining; this pins down that the abstraction loses no verdicts on the
programs it claims to cover.
"""

from __future__ import annotations

import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.core import LintModule
from repro.analysis.flow import analyze_flow
from repro.analysis.inter import analyze_inter

RELEASE_LINES = ["handle.close()"]
RAISING_LINE = "danger()"


def _helper_body(helper_raises: bool, helper_releases: bool) -> list:
    lines = []
    if helper_raises:
        lines.append(RAISING_LINE)
    if helper_releases:
        lines.extend(RELEASE_LINES)
    if not lines:
        lines.append("pass")
    return lines


def _two_function_program(
    helper_raises: bool,
    helper_releases: bool,
    risky_between: bool,
    caller_shape: str,
) -> str:
    helper = ["def helper(handle):"] + [
        "    " + line for line in _helper_body(helper_raises, helper_releases)
    ]
    caller = [
        "def caller(path):",
        '    handle = open(path, "w")',
    ]
    if caller_shape == "linear":
        if risky_between:
            caller.append("    " + RAISING_LINE)
        caller.append("    helper(handle)")
    else:  # try/finally
        caller.append("    try:")
        caller.append(
            "        " + (RAISING_LINE if risky_between else "record(path)")
        )
        caller.append("    finally:")
        caller.append("        helper(handle)")
    return "\n".join(
        helper
        + [""]
        + caller
        + [""]
    )


def _inlined_program(
    helper_raises: bool,
    helper_releases: bool,
    risky_between: bool,
    caller_shape: str,
) -> str:
    body = _helper_body(helper_raises, helper_releases)
    caller = [
        "def caller(path):",
        '    handle = open(path, "w")',
    ]
    if caller_shape == "linear":
        if risky_between:
            caller.append("    " + RAISING_LINE)
        caller.extend("    " + line for line in body)
    else:
        caller.append("    try:")
        caller.append(
            "        " + (RAISING_LINE if risky_between else "record(path)")
        )
        caller.append("    finally:")
        caller.extend("        " + line for line in body)
    return "\n".join(
        caller
        + [""]
    )


def _leaks(findings) -> bool:
    return any(
        f.rule_id in ("resource-leak", "inter-resource-leak") for f in findings
    )


@given(
    helper_raises=st.booleans(),
    helper_releases=st.booleans(),
    risky_between=st.booleans(),
    caller_shape=st.sampled_from(["linear", "try_finally"]),
)
@settings(max_examples=60, deadline=None)
def test_summary_based_verdict_agrees_with_inlining(
    helper_raises, helper_releases, risky_between, caller_shape
):
    two_fn = _two_function_program(
        helper_raises, helper_releases, risky_between, caller_shape
    )
    inlined = _inlined_program(
        helper_raises, helper_releases, risky_between, caller_shape
    )
    two_fn_module = LintModule(
        textwrap.dedent(two_fn), path="two_fn.py", module="repro.simnet.two_fn"
    )
    inlined_module = LintModule(
        textwrap.dedent(inlined),
        path="inlined.py",
        module="repro.simnet.inlined",
    )
    combined = analyze_flow([two_fn_module]) + analyze_inter([two_fn_module])
    oracle = analyze_flow([inlined_module])
    assert _leaks(combined) == _leaks(oracle), (
        f"summary verdict diverged from inlining:\n{two_fn}\n--- inlined "
        f"---\n{inlined}\ncombined={combined}\noracle={oracle}"
    )
