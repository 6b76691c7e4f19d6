"""``repro-lint`` — run the repo's static-analysis pass from the shell.

Exit codes: 0 clean, 1 findings reported, 2 usage error (unknown rule
id, no such path, unreadable baseline).  ``--format=json`` emits a
stable machine-readable array for CI; the default human format is one
``path:line:col: [rule-id] message`` line per finding.

``--project`` additionally runs the cross-module rules of
:mod:`repro.analysis.xmodule` over the whole tree (metrics drift,
CLI/doc drift, error-taxonomy reachability, checkpoint schema drift).
``--flow`` additionally runs the path-sensitive rules of
:mod:`repro.analysis.flow` (resource leaks on exception edges, WAL
append-before-mutate ordering, swallowed count-and-skip tallies).
``--inter`` (requires ``--flow``) adds the summary-based
interprocedural rules of :mod:`repro.analysis.inter` — cross-function
ownership and helper-hidden WAL mutations.  ``--baseline`` suppresses previously recorded findings
(path-sensitive witnesses are normalized, so a recorded flow finding
survives unrelated line drift) so a new rule can land without blocking
on legacy debt.  ``--cache [FILE]`` memoizes the expensive
``--project``/``--flow``/``--inter`` results by content hash (default
file: ``.repro-lint-cache.json``); ``--inter`` keys are
dependency-aware — they fold in the effect summaries of out-of-module
callees.  ``--format=sarif`` emits SARIF 2.1.0 for GitHub code
scanning.  ``--timings`` prints a per-rule timing table to stderr, and
``--budget SECONDS`` fails the run when the ``--inter`` pass exceeds
its time budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    RULES,
    Finding,
    active_rules,
    apply_suppressions,
    lint_paths,
)

__all__ = ["main", "build_parser"]

#: Doc files ``--project`` auto-discovers next to (or one level above)
#: each analyzed path, unless ``--doc`` overrides them.
_DEFAULT_DOC_NAMES = ("README.md", "DESIGN.md")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="repo-specific static analysis (determinism, pickle "
        "protocol, error taxonomy, parser discipline; --project adds the "
        "cross-module drift rules; --flow adds the path-sensitive "
        "lifecycle rules)",
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
        "--project",
        action="store_true",
        help="also run the whole-program (cross-module) rules over the tree",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the path-sensitive (CFG/typestate) rules: resource "
        "leaks on exception edges, WAL ordering, swallowed truncation "
        "tallies",
    )
    parser.add_argument(
        "--inter",
        action="store_true",
        help="with --flow: also run the summary-based interprocedural "
        "rules (cross-function resource ownership, helper-hidden WAL "
        "mutations)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print a per-rule timing table for the --flow/--inter "
        "passes to stderr",
    )
    parser.add_argument(
        "--budget",
        type=float,
        metavar="SECONDS",
        help="fail (exit 1) when the --inter pass exceeds this many "
        "seconds — keeps the interprocedural fixpoint honest as the "
        "tree grows",
    )
    parser.add_argument(
        "--doc",
        action="append",
        metavar="FILE",
        help="documentation file for the cli-doc-drift rule (repeatable; "
        "default: README.md/DESIGN.md discovered near each path)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in FILE (a previous --format=json "
        "report); lets new rules land without blocking on legacy findings",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=".repro-lint-cache.json",
        metavar="FILE",
        help="memoize --project/--flow results by content hash in FILE "
        "(default: .repro-lint-cache.json); unchanged modules are not "
        "re-analyzed",
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
    from repro.analysis.flow import FLOW_RULES
    from repro.analysis.xmodule import PROJECT_RULES

    active_rules()  # force catalogue import
    lines = []
    for rule_id, rule in sorted(RULES.items()):
        marker = " (suppression requires a reason)" if rule.require_reason else ""
        lines.append(f"{rule_id}{marker}\n    {rule.summary}")
    lines.append("")
    lines.append("cross-module rules (--project):")
    for rule_id, project_rule in sorted(PROJECT_RULES.items()):
        lines.append(f"{rule_id}\n    {project_rule.summary}")
    lines.append("")
    lines.append("path-sensitive rules (--flow):")
    for rule_id, flow_rule in sorted(FLOW_RULES.items()):
        lines.append(f"{rule_id}\n    {flow_rule.summary}")
    from repro.analysis.inter import INTER_RULES

    lines.append("")
    lines.append("interprocedural rules (--flow --inter):")
    for rule_id, inter_rule in sorted(INTER_RULES.items()):
        lines.append(f"{rule_id}\n    {inter_rule.summary}")
    return "\n".join(lines)


def _default_docs(paths: Sequence[str]) -> List[Path]:
    """README/DESIGN files living next to (or one above) each path."""
    docs: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        base = Path(raw).resolve()
        directories = [base, base.parent] if base.is_dir() else [base.parent]
        for directory in directories:
            for name in _DEFAULT_DOC_NAMES:
                candidate = directory / name
                if candidate.is_file() and candidate not in seen:
                    seen.add(candidate)
                    docs.append(candidate)
    return docs


#: Path-sensitive messages embed a concrete witness ("via line(s)
#: 3 -> 5 to exception exit") whose line numbers drift under unrelated
#: edits; baseline matching strips it from both sides.
_WITNESS_RE = re.compile(r" \((?:via line\(s\) |straight to )[^)]*\)")


def _normalize_message(message: str) -> str:
    return _WITNESS_RE.sub("", message)


def _load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    """Baseline entries as (path, rule, normalized message) — line/col
    and path witnesses are ignored so unrelated edits above a legacy
    finding don't un-baseline it.  Covers every pass, ``--flow`` and
    ``--inter`` findings included."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError("baseline must be a JSON array of findings")
    entries: Set[Tuple[str, str, str]] = set()
    for item in data:
        if isinstance(item, dict):
            entries.add(
                (
                    str(item.get("path", "")),
                    str(item.get("rule", "")),
                    _normalize_message(str(item.get("message", ""))),
                )
            )
    return entries


class _TimedRule:
    """Wraps a rule so its check() time accrues to a timings table."""

    def __init__(self, rule, label: str, timings: Dict[str, float]) -> None:
        self.rule_id = rule.rule_id
        self.summary = rule.summary
        self.rationale = rule.rationale
        self._rule = rule
        self._label = label
        self._timings = timings

    def check(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return list(self._rule.check(*args, **kwargs))
        finally:
            elapsed = time.perf_counter() - start
            self._timings[self._label] = (
                self._timings.get(self._label, 0.0) + elapsed
            )


def _timed(rules, prefix: str, timings: Optional[Dict[str, float]]):
    if timings is None:
        return rules
    return [
        _TimedRule(rule, f"{prefix}:{rule.rule_id}", timings) for rule in rules
    ]


def _print_timings(timings: Dict[str, float]) -> None:
    if not timings:
        return
    width = max(len(label) for label in timings)
    print("repro-lint timings:", file=sys.stderr)
    for label, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        print(f"  {label:<{width}}  {seconds * 1000:9.1f} ms", file=sys.stderr)


def _run_project(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    selected: Optional[List[str]],
    ignored: Optional[List[str]],
    cache: Optional["LintCache"],
) -> List[Finding]:
    from repro.analysis.cache import LintCache, source_hash
    from repro.analysis.xmodule import (
        PROJECT_RULES,
        Project,
        active_project_rules,
        analyze_project,
    )

    project_rules = active_project_rules(
        select=None
        if selected is None
        else [rule for rule in selected if rule in PROJECT_RULES],
        ignore=[rule for rule in ignored or () if rule in PROJECT_RULES],
    )
    doc_paths: Sequence[Path] = (
        [Path(doc) for doc in args.doc]
        if args.doc
        else _default_docs(args.paths)
    )
    for doc in doc_paths:
        if not doc.is_file():
            parser.error(f"no such doc file: {doc}")

    key: Optional[str] = None
    if cache is not None:
        from repro.analysis.core import _iter_python_files

        try:
            source_hashes = [
                source_hash(path.read_bytes())
                for path in _iter_python_files(args.paths)
            ]
            doc_hashes = [source_hash(doc.read_bytes()) for doc in doc_paths]
        except OSError:
            source_hashes = None  # type: ignore[assignment]
        if source_hashes is not None:
            key = LintCache.project_key(
                source_hashes,
                doc_hashes,
                [rule.rule_id for rule in project_rules],
            )
            cached = cache.get(key)
            if cached is not None:
                return cached

    project = Project.load(args.paths, docs=doc_paths)
    findings = analyze_project(project, project_rules)
    if cache is not None and key is not None:
        cache.put(key, findings)
    return findings


def _run_flow(
    args: argparse.Namespace,
    selected: Optional[List[str]],
    ignored: Optional[List[str]],
    cache: Optional["LintCache"],
    timings: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    from repro.analysis.cache import LintCache, source_hash
    from repro.analysis.flow import (
        FLOW_RULES,
        active_flow_rules,
        collect_specs,
        flow_findings_for_module,
        load_flow_modules,
        spec_fingerprint,
    )

    flow_rules = active_flow_rules(
        select=None
        if selected is None
        else [rule for rule in selected if rule in FLOW_RULES],
        ignore=[rule for rule in ignored or () if rule in FLOW_RULES],
    )
    rule_ids = sorted(rule.rule_id for rule in flow_rules)
    modules, findings = load_flow_modules(args.paths)
    specs, spec_findings = collect_specs(modules)
    findings.extend(f for f in spec_findings if f.rule_id in set(rule_ids))
    fingerprint = spec_fingerprint(specs, rule_ids)
    timed_rules = _timed(flow_rules, "flow", timings)
    for module in modules:
        key: Optional[str] = None
        if cache is not None:
            key = LintCache.flow_key(source_hash(module.source), fingerprint)
            cached = cache.get(key)
            if cached is not None:
                findings.extend(cached)
                continue
        module_findings = flow_findings_for_module(module, specs, timed_rules)
        if cache is not None and key is not None:
            cache.put(key, module_findings)
        findings.extend(module_findings)
    if args.inter:
        findings.extend(
            _run_inter(args, selected, ignored, cache, modules, specs, timings)
        )
    return apply_suppressions(findings, modules)


def _run_inter(
    args: argparse.Namespace,
    selected: Optional[List[str]],
    ignored: Optional[List[str]],
    cache: Optional["LintCache"],
    modules,
    specs,
    timings: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    """The summary-based interprocedural pass over the ``--flow`` modules.

    Cache keys are dependency-aware: each module's key folds in the
    effect-summary fingerprint of its transitive out-of-module callees,
    so a behavioural edit to a helper busts its callers' entries.
    """
    from repro.analysis.cache import LintCache, source_hash
    from repro.analysis.flow import spec_fingerprint
    from repro.analysis.inter import (
        INTER_RULES,
        active_inter_rules,
        build_inter_context,
        dep_fingerprint,
        inter_findings_for_module,
    )

    inter_rules = active_inter_rules(
        select=None
        if selected is None
        else [rule for rule in selected if rule in INTER_RULES],
        ignore=[rule for rule in ignored or () if rule in INTER_RULES],
    )
    rule_ids = sorted(rule.rule_id for rule in inter_rules)
    fingerprint = spec_fingerprint(specs, ["inter"] + rule_ids)
    start = time.perf_counter()
    context = build_inter_context(modules, specs)
    if timings is not None:
        timings["inter:summaries"] = time.perf_counter() - start
    timed_rules = _timed(inter_rules, "inter", timings)
    findings: List[Finding] = []
    for module in modules:
        key: Optional[str] = None
        if cache is not None:
            key = LintCache.inter_key(
                source_hash(module.source),
                fingerprint,
                dep_fingerprint(module, context),
            )
            cached = cache.get(key)
            if cached is not None:
                findings.extend(cached)
                continue
        module_findings = inter_findings_for_module(
            module, context, timed_rules
        )
        if cache is not None and key is not None:
            cache.put(key, module_findings)
        findings.extend(module_findings)
    elapsed = time.perf_counter() - start
    if timings is not None:
        timings["inter:total"] = elapsed
    if args.budget is not None and elapsed > args.budget:
        print(
            f"repro-lint: --inter pass took {elapsed:.1f}s, over the "
            f"{args.budget:.1f}s budget",
            file=sys.stderr,
        )
        args._budget_exceeded = True
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    if args.inter and not args.flow:
        parser.error("--inter requires --flow")

    for raw in args.paths:
        if not Path(raw).exists():
            parser.error(f"no such path: {raw}")

    selected = _split_ids(args.select)
    ignored = _split_ids(args.ignore)

    active_rules()  # force catalogue import before validating ids
    known = set(RULES)
    if args.project:
        from repro.analysis.xmodule import PROJECT_RULES

        known |= set(PROJECT_RULES)
    if args.flow:
        from repro.analysis.flow import FLOW_RULES

        known |= set(FLOW_RULES)
    if args.inter:
        from repro.analysis.inter import INTER_RULES

        known |= set(INTER_RULES)
    unknown = (set(selected or ()) | set(ignored or ())) - known
    if unknown:
        parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    cache = None
    if args.cache:
        from repro.analysis.cache import LintCache

        cache = LintCache(args.cache)

    module_rules = active_rules(
        select=None
        if selected is None
        else [rule for rule in selected if rule in RULES],
        ignore=[rule for rule in ignored or () if rule in RULES],
    )
    timings: Optional[Dict[str, float]] = (
        {} if (args.timings or args.budget is not None) else None
    )
    args._budget_exceeded = False
    findings = lint_paths(args.paths, module_rules)
    if args.project:
        findings.extend(_run_project(args, parser, selected, ignored, cache))
    if args.flow:
        findings.extend(_run_flow(args, selected, ignored, cache, timings))
    if cache is not None:
        cache.save()
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))

    if args.baseline:
        try:
            baseline = _load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        findings = [
            finding
            for finding in findings
            if (
                finding.path,
                finding.rule_id,
                _normalize_message(finding.message),
            )
            not in baseline
        ]

    if args.timings and timings is not None:
        _print_timings(timings)
    _emit(findings, args.format)
    if args._budget_exceeded:
        return 1
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
