"""Cross-module rules: contracts that only exist *between* files.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time.  The :class:`~repro.analysis.core.ProjectRule`\\ s here see the
whole :class:`~repro.analysis.core.Project` — the same parsed modules,
plus the prose docs — in the same ``repro-lint`` pass:

* **metrics-drift** — every ``EngineMetrics`` counter has an increment
  site and appears in ``snapshot()``/``render()`` output, and vice
  versa: no counter silently stops being reported, no reported key
  silently stops being fed.
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
    "MetricsDriftRule",
    "CliDocDriftRule",
    "ErrorTaxonomyRule",
]

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


# -- shared AST helpers -----------------------------------------------------


def _str_constants(node: ast.AST) -> Set[str]:
    """Every string constant anywhere under ``node``."""
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _dict_literal_keys(node: ast.Dict) -> Set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is the target ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# -- rule: metrics-drift ----------------------------------------------------


@register
class MetricsDriftRule(ProjectRule):
    """``EngineMetrics`` counters, their feeders, and their reporting
    must stay in sync."""

    rule_id = "metrics-drift"
    summary = (
        "every EngineMetrics counter is incremented somewhere and appears "
        "in snapshot()/render(), and every snapshot key is a real attribute"
    )
    rationale = (
        "--metrics is how operators audit a run (and how the sanitize "
        "mode proves it ran); a counter that drifts out of snapshot() or "
        "loses its last increment site reports silence as health."
    )

    #: Class whose counters the rule audits.
    metrics_class = "EngineMetrics"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            class_def = project.classes(module.module).get(self.metrics_class)
            if class_def is not None:
                yield from self._check_class(project, module, class_def)

    def _check_class(
        self, project: Project, module: LintModule, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            node.name: node
            for node in class_def.body
            if isinstance(node, _FUNCTION_DEFS)
        }
        init = methods.get("__init__")
        if init is None:
            return
        properties = {
            node.name
            for node in class_def.body
            if isinstance(node, _FUNCTION_DEFS)
            and any(
                _last_segment(dec) == "property" for dec in node.decorator_list
            )
        }
        all_attrs: Set[str] = set()
        counters: Dict[str, ast.AST] = {}
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = _self_attr_target(target)
                    if attr is None:
                        continue
                    all_attrs.add(attr)
                    value = node.value
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, (int, float, bool)
                    ):
                        counters[attr] = node
        written_outside_init: Set[str] = set()
        for name, method in methods.items():
            if name == "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.AugAssign):
                    attr = _self_attr_target(node.target)
                    if attr is not None:
                        written_outside_init.add(attr)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _self_attr_target(target)
                        if attr is not None:
                            written_outside_init.add(attr)
        snapshot = methods.get("snapshot")
        snapshot_keys: Set[str] = set()
        if snapshot is not None:
            for node in ast.walk(snapshot):
                if isinstance(node, ast.Dict):
                    snapshot_keys |= _dict_literal_keys(node)
        render = methods.get("render")
        render_strings = _str_constants(render) if render is not None else set()

        for counter, node in sorted(counters.items()):
            if counter not in written_outside_init:
                yield self.finding(
                    module.path,
                    node,
                    f"counter '{counter}' is initialised but never "
                    "incremented or set by any method",
                )
            if snapshot is not None and counter not in snapshot_keys:
                yield self.finding(
                    module.path,
                    node,
                    f"counter '{counter}' does not appear in snapshot() — "
                    "it is fed but never reported",
                )
            if render is not None and counter not in render_strings:
                yield self.finding(
                    module.path,
                    node,
                    f"counter '{counter}' does not appear in render() — "
                    "--metrics output would omit it",
                )
        if snapshot is not None:
            known = all_attrs | properties
            for key in sorted(snapshot_keys - known):
                yield self.finding(
                    module.path,
                    snapshot,
                    f"snapshot() reports '{key}' which is neither an "
                    "__init__ attribute nor a property — stale key",
                )
        yield from self._check_record_callers(project, module, class_def, methods)

    def _check_record_callers(
        self,
        project: Project,
        module: LintModule,
        class_def: ast.ClassDef,
        methods: Dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        record_methods = {
            name for name in methods if name.startswith("record_")
        }
        called: Set[str] = set()
        for other in project.iter_modules():
            if other.module == module.module:
                continue
            for node in ast.walk(other.tree):
                if isinstance(node, ast.Call):
                    name = _last_segment(node.func)
                    if name in record_methods:
                        called.add(name)
        for name in sorted(record_methods - called):
            yield self.finding(
                module.path,
                methods[name],
                f"record method '{name}' is never called outside "
                f"{module.module} — dead telemetry feeder",
            )


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
        "missing from __all__ hides from the API surface the supervisor "
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
