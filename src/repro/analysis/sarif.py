"""SARIF 2.1.0 output for ``repro-lint --format=sarif``.

The Static Analysis Results Interchange Format is what GitHub code
scanning ingests: uploading the artifact from the CI lint job turns
every finding into a PR annotation at its file/line.  The rendering is
deliberately minimal — one ``run``, one ``tool.driver`` named
``repro-lint``, a rule catalogue drawn from the rule registry, and one
``result`` per finding.  SARIF columns and lines are 1-based;
``Finding.col`` is a 0-based AST offset, so columns are shifted on the
way out.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from repro.analysis.core import Finding, active_rules

__all__ = ["render_sarif", "sarif_json", "collect_rule_metadata"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def collect_rule_metadata() -> Dict[str, Tuple[str, str]]:
    """rule id -> (summary, rationale) for every registered rule."""
    metadata: Dict[str, Tuple[str, str]] = {
        rule.rule_id: (rule.summary or rule.rule_id, rule.rationale or "")
        for rule in active_rules()
    }
    # the one finding the pass emits without a registered rule object
    metadata.setdefault(
        "syntax-error", ("the file parses", "a broken file cannot be analyzed")
    )
    return metadata


def render_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """The findings as a SARIF 2.1.0 ``log`` object (JSON-ready dict)."""
    metadata = collect_rule_metadata()
    used_ids = sorted({finding.rule_id for finding in findings})
    rules: List[Dict[str, object]] = []
    rule_index: Dict[str, int] = {}
    for rule_id in used_ids:
        summary, rationale = metadata.get(rule_id, (rule_id, ""))
        rule_index[rule_id] = len(rules)
        descriptor: Dict[str, object] = {
            "id": rule_id,
            "shortDescription": {"text": summary},
        }
        if rationale:
            descriptor["fullDescription"] = {"text": rationale}
        rules.append(descriptor)
    results: List[Dict[str, object]] = []
    for finding in findings:
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index[finding.rule_id],
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def sarif_json(findings: Sequence[Finding]) -> str:
    return json.dumps(render_sarif(findings), indent=2, sort_keys=True)
