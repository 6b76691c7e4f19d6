"""Cross-module rules: contracts that only exist *between* files.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time.  The :class:`~repro.analysis.core.ProjectRule`\\ s here see the
whole :class:`~repro.analysis.core.Project` — the same parsed modules,
plus the prose docs — in the same ``repro-lint`` pass:

* **cli-doc-drift** — every ``add_argument`` flag across the CLIs is
  documented in the project docs (README/DESIGN), and no documented
  flag is stale.
* **error-taxonomy-reachability** — every class in ``repro.errors`` is
  exported in ``__all__`` and actually raised (or warned, or serves as
  a family root) somewhere in the tree.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    LintModule,
    Project,
    ProjectRule,
    register,
)
from repro.analysis.rules import _last_segment

__all__ = [
    "EXTERNAL_DOC_FLAGS",
    "CliDocDriftRule",
    "ErrorTaxonomyRule",
]

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


# -- rule: cli-doc-drift ----------------------------------------------------


#: Long-form flags that legitimately appear in the docs without being
#: defined by any repo CLI (flags of tools the docs tell you to run).
EXTERNAL_DOC_FLAGS = frozenset(
    {
        "--benchmark-only",  # pytest-benchmark's flag, quoted in README
    }
)

_DOC_FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")


@register
class CliDocDriftRule(ProjectRule):
    """CLI flags and prose docs must agree, both directions."""

    rule_id = "cli-doc-drift"
    summary = (
        "every add_argument --flag appears in the project docs, and every "
        "--flag the docs mention is actually defined by some CLI"
    )
    rationale = (
        "four CLIs share one README; an undocumented flag is invisible "
        "to users and a documented-but-removed flag actively misleads "
        "them.  Known external flags (pytest's, etc.) are allowlisted in "
        "EXTERNAL_DOC_FLAGS."
    )

    def check(self, project: Project) -> Iterator[Finding]:
        defined: Dict[str, Tuple[LintModule, ast.AST]] = {}
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _last_segment(node.func) == "add_argument"
                ):
                    continue
                for arg in node.args:
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("--")
                    ):
                        defined.setdefault(arg.value, (module, node))
        if not project.docs or not defined:
            return
        doc_blob = "\n".join(project.docs.values())
        for flag in sorted(defined):
            pattern = re.escape(flag) + r"(?![A-Za-z0-9-])"
            if re.search(pattern, doc_blob) is None:
                module, node = defined[flag]
                yield self.finding(
                    module.path,
                    node,
                    f"CLI flag '{flag}' is not documented in any project "
                    f"doc ({', '.join(sorted(project.docs))})",
                )
        known = set(defined) | set(EXTERNAL_DOC_FLAGS)
        for doc_path in sorted(project.docs):
            text = project.docs[doc_path]
            reported: Set[str] = set()
            for line_number, line in enumerate(text.splitlines(), start=1):
                for match in _DOC_FLAG_RE.finditer(line):
                    flag = match.group(0)
                    if flag in known or flag in reported:
                        continue
                    reported.add(flag)
                    yield self.finding(
                        doc_path,
                        None,
                        f"documented flag '{flag}' is not defined by any "
                        "CLI in the analyzed tree — stale documentation",
                        line=line_number,
                    )


# -- rule: error-taxonomy-reachability --------------------------------------


@register
class ErrorTaxonomyRule(ProjectRule):
    """Every error class is exported and actually reachable."""

    rule_id = "error-taxonomy-reachability"
    summary = (
        "each class in the errors module is listed in __all__ and raised "
        "(or warned, or subclassed) somewhere in the tree"
    )
    rationale = (
        "recovery code keys off the error *class*; a taxonomy member "
        "nothing raises is a promise the runtime never keeps, and one "
        "missing from __all__ hides from the API surface the recovery "
        "tests import against."
    )

    def check(self, project: Project) -> Iterator[Finding]:
        raised, warned = self._usage_names(project)
        for module in project.iter_modules():
            if module.module.split(".")[-1] != "errors":
                continue
            classes = project.classes(module.module)
            exported = self._declared_all(module)
            subclassed = {
                _last_segment(base)
                for class_def in classes.values()
                for base in class_def.bases
            }
            for name in sorted(classes):
                class_def = classes[name]
                if exported is not None and name not in exported:
                    yield self.finding(
                        module.path,
                        class_def,
                        f"error class '{name}' is not exported in __all__",
                    )
                if (
                    name not in raised
                    and name not in warned
                    and name not in subclassed
                ):
                    yield self.finding(
                        module.path,
                        class_def,
                        f"error class '{name}' is never raised, never passed "
                        "to warnings.warn, and roots no subclass — "
                        "unreachable taxonomy member",
                    )
            if exported is not None:
                defined = set(classes)
                for node in module.tree.body:
                    if isinstance(node, _FUNCTION_DEFS):
                        defined.add(node.name)
                    elif isinstance(node, ast.Assign):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                defined.add(target.id)
                for name in sorted(exported - defined):
                    yield self.finding(
                        module.path,
                        None,
                        f"__all__ exports '{name}' which the module does "
                        "not define — stale export",
                        line=1,
                    )

    @staticmethod
    def _declared_all(module: LintModule) -> Optional[Set[str]]:
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            return {
                                element.value
                                for element in node.value.elts
                                if isinstance(element, ast.Constant)
                                and isinstance(element.value, str)
                            }
        return None

    @staticmethod
    def _usage_names(project: Project) -> Tuple[Set[str], Set[str]]:
        raised: Set[str] = set()
        warned: Set[str] = set()
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    name = _last_segment(exc)
                    if name is not None:
                        raised.add(name)
                elif (
                    isinstance(node, ast.Call)
                    and _last_segment(node.func) == "warn"
                ):
                    candidates = list(node.args[1:]) + [
                        keyword.value
                        for keyword in node.keywords
                        if keyword.arg == "category"
                    ]
                    for candidate in candidates:
                        name = _last_segment(candidate)
                        if name is not None:
                            warned.add(name)
        return raised, warned
