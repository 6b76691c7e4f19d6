"""The lint engine: modules, findings, suppressions, and the registry.

``repro-lint`` is an AST-based static-analysis pass for *this
repository's* invariants — the properties the engine's bit-identical
guarantees rest on (seeded RNG discipline, the :mod:`repro.errors`
taxonomy) that generic linters cannot know about.  The machinery is deliberately small:

* :class:`LintModule` — one parsed source file: its dotted module name,
  AST, a parent map for scope queries, and the suppression comments
  scanned from its tokens.
* :class:`Rule` — a check over one module; :class:`ProjectRule` — a
  check over the whole :class:`Project` (every module plus the prose
  docs).  Both register into the one :data:`RULES` registry with
  :func:`register` and yield :class:`Finding` objects.
* :func:`lint_modules` — the one pass: every module rule over every
  module, then every project rule over the same parsed modules, then
  suppressions once.  :func:`lint_paths` / :func:`lint_source` parse
  files (or a source string) and hand them to it.

Suppression syntax — one comment on the offending line::

    something_flagged()  # lint: ignore[rule-id]
    something_flagged()  # lint: ignore[rule-id] -- why this is safe

Several ids may be listed (``ignore[a, b]``).  Rules with
``require_reason`` (the error-taxonomy check) accept only the second
form: a bare ``ignore`` without a reason is itself reported.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

__all__ = [
    "Finding",
    "Suppression",
    "LintModule",
    "Project",
    "Rule",
    "ProjectRule",
    "RULES",
    "register",
    "active_rules",
    "apply_suppressions",
    "lint_modules",
    "lint_source",
    "lint_paths",
    "module_name_for",
]

#: ``# lint: ignore[rule-a, rule-b]`` with an optional ``-- reason``.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore\[([A-Za-z0-9_\-, ]+)\]\s*(?:--\s*(?P<reason>\S.*))?"
)

#: Scopes that shield a node from "module level" (import-time) status.
_FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """Human form: ``path:line:col: [rule-id] message``."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        """JSON form (stable keys, plain types)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One ``# lint: ignore[...]`` comment on one line."""

    rule_ids: Tuple[str, ...]
    reason: str

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.rule_ids


def _scan_suppressions(source: str) -> Dict[int, Suppression]:
    """Map line number → suppression for every lint comment in ``source``.

    Tokenising (rather than regexing raw lines) keeps a ``# lint:``
    sequence inside a string literal from registering as a suppression.
    """
    suppressions: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            reason = (match.group("reason") or "").strip()
            suppressions[token.start[0]] = Suppression(ids, reason)
    except tokenize.TokenError:
        # The AST parse will have raised (or will raise) a clearer error.
        pass
    return suppressions


def module_name_for(path: Union[str, Path]) -> str:
    """Best-effort dotted module name for ``path``.

    Recognises the ``src/<package>/...`` layout; outside it, falls back
    to the dotted path from the last ``repro`` component, or the bare
    stem — rules that scope by package simply do not fire on files whose
    package cannot be determined.
    """
    parts = Path(path).parts
    anchor: Optional[int] = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "src" and index + 1 < len(parts):
            anchor = index + 1
            break
        if parts[index] == "repro" and anchor is None:
            anchor = index
    if anchor is None:
        anchor = len(parts) - 1
    dotted = [part for part in parts[anchor:]]
    if dotted and dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][: -len(".py")]
    if dotted and dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


class LintModule:
    """One parsed source file plus the scope/suppression context rules need."""

    def __init__(
        self,
        source: str,
        path: str = "<string>",
        module: Optional[str] = None,
    ) -> None:
        self.source = source
        self.path = path
        self.module = module if module is not None else module_name_for(path)
        self.tree = ast.parse(source, filename=path)
        self.suppressions = _scan_suppressions(source)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # -- scope queries ---------------------------------------------------

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]]:
        """The innermost function/lambda containing ``node``, or None."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            if isinstance(current, _FUNCTION_SCOPES):
                return current
            current = parents.get(current)
        return None

    def at_module_level(self, node: ast.AST) -> bool:
        """True when no function scope shields ``node`` from import time."""
        return self.enclosing_function(node) is None

    def in_package(self, *packages: str) -> bool:
        """True when this module lives in (or is) any of ``packages``."""
        for package in packages:
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False


class Project:
    """Every parsed module of one source tree, plus its prose docs.

    ``modules`` maps dotted module name → :class:`LintModule`; ``docs``
    maps a documentation file's path → its text (for the doc-drift
    rule).  Project rules read the very modules the per-module rules
    walked — the tree is parsed once per run.
    """

    def __init__(
        self,
        modules: Iterable[LintModule],
        docs: Optional[Dict[str, str]] = None,
    ) -> None:
        self.modules = {module.module: module for module in modules}
        self.docs = dict(docs or {})

    def iter_modules(self) -> Iterator[LintModule]:
        for name in sorted(self.modules):
            yield self.modules[name]

    def classes(self, module_name: str) -> Dict[str, ast.ClassDef]:
        """Top-level classes of one module, by name."""
        module = self.modules.get(module_name)
        if module is None:
            return {}
        return {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }


class Rule:
    """Base class for one registered check over one module.

    Subclasses set ``rule_id`` (the suppression handle), ``summary``
    (one line for ``--list-rules``), ``rationale`` (why the repo cares),
    and implement :meth:`check`.  ``require_reason`` rules accept only
    reasoned suppressions.
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""
    require_reason: bool = False

    def check(self, module: LintModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: LintModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


class ProjectRule:
    """Base class for one registered cross-module check.

    The same surface as :class:`Rule`, but :meth:`check` receives the
    whole :class:`Project`, and a finding may sit in a prose doc (no
    AST node, just a line).
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""
    require_reason: bool = False

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, node: Optional[ast.AST], message: str, line: int = 0
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", line) if node is not None else line,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.rule_id,
            message=message,
        )


AnyRule = Union[Rule, ProjectRule]

#: The registry: rule id → singleton rule instance, both kinds.
RULES: Dict[str, AnyRule] = {}


def register(cls: Type[AnyRule]) -> Type[AnyRule]:
    """Class decorator: instantiate and register a rule by its id."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id: {cls.rule_id}")
    RULES[cls.rule_id] = cls()
    return cls


def active_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[AnyRule]:
    """Resolve ``--select`` / ``--ignore`` into a rule list."""
    _ensure_rules_loaded()
    wanted = set(select) if select is not None else set(RULES)
    wanted -= set(ignore or ())
    unknown = wanted - set(RULES)
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [rule for rule_id, rule in sorted(RULES.items()) if rule_id in wanted]


def _ensure_rules_loaded() -> None:
    # The rule catalogues register on import; import lazily so that
    # ``core`` stays import-cycle-free for the rule modules themselves.
    from repro.analysis import rules, xmodule  # noqa: F401  (import registers)


def _order(finding: Finding) -> Tuple[str, int, int, str, str]:
    return (
        finding.path, finding.line, finding.col, finding.rule_id,
        finding.message,
    )


def apply_suppressions(
    findings: Iterable[Finding], modules: Iterable[LintModule]
) -> List[Finding]:
    """Filter ``findings`` through per-line ``# lint: ignore`` comments.

    A finding is dropped when the comment on its line names its rule —
    unless the rule is ``require_reason`` and the comment gives none,
    which is itself reported.  Findings anchored outside the analyzed
    modules (prose docs) pass through: they have no comment to carry a
    suppression.  Deduplicates and sorts by location.
    """
    by_path = {module.path: module for module in modules}
    kept: Set[Finding] = set()
    for finding in findings:
        module = by_path.get(finding.path)
        suppression = (
            module.suppressions.get(finding.line) if module is not None else None
        )
        if suppression is not None and suppression.covers(finding.rule_id):
            rule = RULES.get(finding.rule_id)
            if rule is None or not rule.require_reason or suppression.reason:
                continue
            finding = Finding(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule_id=finding.rule_id,
                message=(
                    f"suppressing {finding.rule_id} requires a reason: use "
                    f"'# lint: ignore[{finding.rule_id}] -- why'"
                ),
            )
        kept.add(finding)
    return sorted(kept, key=_order)


def lint_modules(
    modules: Sequence[LintModule],
    rules: Optional[Sequence[AnyRule]] = None,
    docs: Optional[Dict[str, str]] = None,
) -> List[Finding]:
    """The one pass: module rules over every module, project rules over
    all of them (plus ``docs``, path → text), suppressions once."""
    if rules is None:
        rules = active_rules()
    findings: List[Finding] = []
    project: Optional[Project] = None
    for rule in rules:
        if isinstance(rule, ProjectRule):
            if project is None:
                project = Project(modules, docs)
            findings.extend(rule.check(project))
        else:
            for module in modules:
                findings.extend(rule.check(module))
    return apply_suppressions(findings, modules)


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[AnyRule]] = None,
) -> List[Finding]:
    """Lint a source string (the test suite's entry point).

    ``module`` overrides the dotted-name guess from ``path`` so fixture
    snippets can opt into package-scoped rules (pass e.g.
    ``module="repro.engine.fake"`` to enable the hot-path checks).
    """
    return lint_modules([LintModule(source, path=path, module=module)], rules)


def _iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[AnyRule]] = None,
    docs: Sequence[Union[str, Path]] = (),
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories),
    with ``docs`` as the prose the doc-drift rule checks against.

    A file that fails to read or parse contributes a single
    ``syntax-error`` pseudo-finding rather than aborting the run — a
    lint gate must report a broken file, not crash on it.
    """
    modules: List[LintModule] = []
    findings: List[Finding] = []
    for file_path in _iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
            modules.append(LintModule(source, path=str(file_path)))
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(
                    path=str(file_path),
                    line=getattr(exc, "lineno", 0) or 0,
                    col=getattr(exc, "offset", 0) or 0,
                    rule_id="syntax-error",
                    message=f"cannot lint file: {exc}",
                )
            )
    doc_texts = {str(doc): Path(doc).read_text(encoding="utf-8") for doc in docs}
    findings.extend(lint_modules(modules, rules, doc_texts))
    return sorted(findings, key=_order)
