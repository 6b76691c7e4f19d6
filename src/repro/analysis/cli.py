"""``repro-lint`` — run the repo's static-analysis pass from the shell.

One pass: every file under the given paths is parsed once, the
per-module rules of :mod:`repro.analysis.rules` run over each module,
the cross-module rules of :mod:`repro.analysis.xmodule` run over all of
them (with README/DESIGN as the docs ``cli-doc-drift`` checks), and
``# lint: ignore[...]`` suppressions are applied once.

Exit codes: 0 clean, 1 findings reported, 2 usage error (unknown rule
id, no such path or doc file).  ``--format=json`` emits a stable
machine-readable array for CI, ``--format=sarif`` SARIF 2.1.0 for
GitHub code scanning; the default human format is one
``path:line:col: [rule-id] message`` line per finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.core import Finding, ProjectRule, active_rules, lint_paths

__all__ = ["main", "build_parser"]

#: Doc files auto-discovered next to (or one level above) each analyzed
#: path, unless ``--doc`` overrides them.
_DEFAULT_DOC_NAMES = ("README.md", "DESIGN.md")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="repo-specific static analysis (determinism, pickle "
        "protocol, error taxonomy, parser discipline, and the "
        "cross-module metrics/CLI-doc/error-taxonomy drift rules)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human); sarif emits SARIF 2.1.0 "
        "for GitHub code scanning",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--doc",
        action="append",
        metavar="FILE",
        help="documentation file for the cli-doc-drift rule (repeatable; "
        "default: README.md/DESIGN.md discovered near each path)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_ids(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    if values is None:
        return None
    ids: List[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def _list_rules() -> str:
    lines = []
    for rule in active_rules():
        marker = ""
        if isinstance(rule, ProjectRule):
            marker = " (cross-module)"
        elif rule.require_reason:
            marker = " (suppression requires a reason)"
        lines.append(f"{rule.rule_id}{marker}\n    {rule.summary}")
    return "\n".join(lines)


def _default_docs(paths: Sequence[str]) -> List[Path]:
    """README/DESIGN files living next to (or one above) each path."""
    docs: List[Path] = []
    for raw in paths:
        base = Path(raw).resolve()
        directories = [base, base.parent] if base.is_dir() else [base.parent]
        for directory in directories:
            for name in _DEFAULT_DOC_NAMES:
                candidate = directory / name
                if candidate.is_file() and candidate not in docs:
                    docs.append(candidate)
    return docs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    for raw in args.paths:
        if not Path(raw).exists():
            parser.error(f"no such path: {raw}")
    docs = (
        [Path(doc) for doc in args.doc] if args.doc else _default_docs(args.paths)
    )
    for doc in docs:
        if not doc.is_file():
            parser.error(f"no such doc file: {doc}")

    selected = _split_ids(args.select)
    ignored = _split_ids(args.ignore)
    known = {rule.rule_id for rule in active_rules()}
    unknown = (set(selected or ()) | set(ignored or ())) - known
    if unknown:
        parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    findings = lint_paths(
        args.paths, active_rules(select=selected, ignore=ignored), docs=docs
    )
    _emit(findings, args.format)
    return 1 if findings else 0


def _emit(findings: Sequence[Finding], fmt: str) -> None:
    if fmt == "sarif":
        from repro.analysis.sarif import sarif_json

        print(sarif_json(findings))
        return
    if fmt == "json":
        print(json.dumps([finding.to_json() for finding in findings], indent=2))
        return
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"repro-lint: {len(findings)} finding(s) across "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())
