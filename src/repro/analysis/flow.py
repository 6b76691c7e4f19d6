"""Path-sensitive dataflow: CFGs, a worklist engine, and typestate rules.

The per-module rules (:mod:`repro.analysis.rules`) and the cross-module
rules (:mod:`repro.analysis.xmodule`) are syntactic — they can see that
a module calls ``open`` and ``close`` *somewhere*, but not that an
exception edge skips the close.  Correctness depends on exactly those
lifecycle protocols (WAL append-before-mutate, a WAL segment file
closed on every exit path), so this module adds the missing layer:

* :func:`build_cfg` — an intraprocedural control-flow graph per
  function: basic blocks of statements, with ``true``/``false`` branch
  edges, loop ``back`` edges, ``with`` unwind blocks, ``finally``
  duplication per continuation (fallthrough / exception / return /
  break / continue each get their own copy, the classic modeling), and
  — critically — an ``except`` edge for every statement that can raise,
  originating at the statement's index inside its block so mid-block
  exception state is exact.
* :func:`run_worklist` / :func:`reaching_definitions` — a generic
  forward worklist engine over the CFG and its standard client.
* :func:`reach_without` — the typestate core: BFS over
  ``(block, statement)`` positions that asks "is there a real path from
  *here* that reaches *there* without passing a neutralising statement?"
  and returns the witness path (the actual edge sequence) when one
  exists.  Every path-sensitive rule below is a thin wrapper around it.

Three rules ship behind ``repro-lint --flow``, driven by declarative
lifecycle specs — built-in defaults here, plus ``FLOW_SPECS`` literal
tuples declared next to the code they govern (``repro.serve.wal``,
``repro.serve.daemon``):

``resource-leak``
    acquire → [use]* → release typestate: a tracked resource acquired
    on some path must reach a release on *all* paths, including
    exception edges.  Inside ``__init__`` a ``self.attr = acquire()``
    is tracked too, but only the *exceptional* exit counts as a leak
    (on normal exit the instance owns it) — a half-constructed object
    nobody can release is exactly the WAL teardown gap class.
``wal-order``
    a must-precede spec: in the functions it names, no ``self`` state
    mutation may be reachable before the append call on any path.
``unchecked-truncation``
    count-and-skip tallies incremented on a path that reaches a normal
    return without the report object ever escaping (returned, passed
    on, raised with) are silently dropped counts.

Known imprecision (deliberate, documented in DESIGN.md): "can raise"
is a syntactic over-approximation (calls, subscripts, ``raise``,
``assert``, ``await``, imports — not bare name/attribute loads); escape
analysis is flow-insensitive (a resource that is ever returned, stored,
aliased, shipped in a container, or captured by a nested function stops
being tracked rather than risk false positives); a release call is
treated as effective even on its own exception edge (a failing
``close()`` would otherwise make every ``finally`` block a finding);
and ``except Exception`` is *not* exhaustive (``BaseException`` still
propagates — only a bare ``except`` or ``except BaseException`` seals
the propagation edge).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
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

from repro.analysis.core import (
    Finding,
    LintModule,
    _iter_python_files,
    apply_suppressions,
)

__all__ = [
    "CFG",
    "Block",
    "Edge",
    "build_cfg",
    "run_worklist",
    "reaching_definitions",
    "reach_without",
    "STOP_NORMAL_ONLY",
    "PathWitness",
    "FlowRule",
    "FLOW_RULES",
    "register_flow",
    "active_flow_rules",
    "collect_specs",
    "spec_fingerprint",
    "analyze_flow",
    "flow_findings_for_module",
    "load_flow_modules",
    "find_resource_leaks",
]


# -- pseudo-statements ------------------------------------------------------
#
# Blocks hold plain ``ast.stmt`` nodes plus four pseudo-entries for the
# control constructs whose *effects* matter to dataflow but whose bodies
# live in other blocks.


@dataclass(frozen=True)
class TestExpr:
    """A branch or loop test evaluated at its position in the block."""

    node: ast.expr


@dataclass(frozen=True)
class ForIter:
    """The implicit ``next()`` + target binding at a ``for`` loop head."""

    node: ast.stmt  # the For/AsyncFor node


@dataclass(frozen=True)
class WithEnter:
    """The context-manager entries of a ``with`` statement (items only)."""

    node: ast.stmt  # the With/AsyncWith node


@dataclass(frozen=True)
class WithExit:
    """The implicit ``__exit__`` calls unwinding a ``with`` block.

    ``names`` are the context variables this exit releases — as-names,
    plus bare ``Name``/``self.attr`` context expressions.
    """

    node: ast.stmt
    names: Tuple[str, ...]


Entry = Union[ast.stmt, TestExpr, ForIter, WithEnter, WithExit]

_PSEUDO = (TestExpr, ForIter, WithEnter, WithExit)


def entry_node(entry: Entry) -> ast.AST:
    return entry.node if isinstance(entry, _PSEUDO) else entry


def entry_line(entry: Entry) -> int:
    return getattr(entry_node(entry), "lineno", 0)


# -- the graph --------------------------------------------------------------


class Block:
    """One basic block: a label (for tests/debugging) and its entries."""

    __slots__ = ("index", "label", "entries")

    def __init__(self, index: int, label: str) -> None:
        self.index = index
        self.label = label
        self.entries: List[Entry] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.index} {self.label!r} n={len(self.entries)}>"


@dataclass(frozen=True)
class Edge:
    """A CFG edge.

    ``origin`` is the index of the entry an ``except`` edge leaves from
    (mid-block), or ``None`` for block-end edges — the typestate engine
    uses it to apply exactly the effects that precede the raise.
    """

    src: int
    dst: int
    kind: str  # flow | true | false | back | except | return | break | continue
    origin: Optional[int] = None


class CFG:
    """Control-flow graph of one function.

    ``entry`` is the (empty) entry block, ``exit`` the normal-return
    exit, ``raise_exit`` the exceptional exit — an unhandled exception
    anywhere in the function reaches ``raise_exit``.
    """

    def __init__(self, name: str, node: ast.AST) -> None:
        self.name = name
        self.node = node
        self.blocks: List[Block] = []
        self.edges: List[Edge] = []
        self._edge_set: Set[Edge] = set()
        self._succs: Dict[int, List[Edge]] = {}
        self._preds: Dict[int, List[Edge]] = {}
        self.entry = self.new_block("entry").index
        self.exit = self.new_block("exit").index
        self.raise_exit = self.new_block("raise-exit").index

    def new_block(self, label: str) -> Block:
        block = Block(len(self.blocks), label)
        self.blocks.append(block)
        return block

    def add_edge(
        self, src: int, dst: int, kind: str, origin: Optional[int] = None
    ) -> None:
        edge = Edge(src, dst, kind, origin)
        if edge in self._edge_set:
            return
        self._edge_set.add(edge)
        self.edges.append(edge)
        self._succs.setdefault(src, []).append(edge)
        self._preds.setdefault(dst, []).append(edge)

    def succs(self, index: int) -> List[Edge]:
        return self._succs.get(index, [])

    def preds(self, index: int) -> List[Edge]:
        return self._preds.get(index, [])

    def blocks_labeled(self, label: str) -> List[Block]:
        return [block for block in self.blocks if block.label == label]


# -- "can this raise" -------------------------------------------------------

_RAISING_SUBNODES = (ast.Call, ast.Subscript, ast.Raise, ast.Assert, ast.Await)
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _can_raise(entry: Entry) -> bool:
    if isinstance(entry, WithExit):
        return False
    if isinstance(entry, (WithEnter, ForIter)):
        return True
    node = entry.node if isinstance(entry, TestExpr) else entry
    if isinstance(node, (ast.Raise, ast.Assert, ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # Defining a function runs decorators and defaults, not the body.
        return bool(node.decorator_list) or bool(
            node.args.defaults or node.args.kw_defaults
        )
    if isinstance(node, ast.ClassDef):
        return True
    return any(isinstance(sub, _RAISING_SUBNODES) for sub in ast.walk(node))


def _const_truth(node: ast.expr) -> Optional[bool]:
    if isinstance(node, ast.Constant):
        return bool(node.value)
    return None


def _handler_catches_all(type_node: Optional[ast.expr]) -> bool:
    if type_node is None:
        return True
    names = []
    if isinstance(type_node, ast.Tuple):
        names = [e for e in type_node.elts]
    else:
        names = [type_node]
    return any(
        isinstance(n, ast.Name) and n.id == "BaseException" for n in names
    )


# -- the builder ------------------------------------------------------------


class _LoopFrame:
    __slots__ = ("head", "after")

    def __init__(self, head: int, after: int) -> None:
        self.head = head
        self.after = after


class _FinallyFrame:
    __slots__ = ("finalbody", "outer_raise")

    def __init__(self, finalbody: List[ast.stmt], outer_raise: int) -> None:
        self.finalbody = finalbody
        self.outer_raise = outer_raise


class _WithFrame:
    __slots__ = ("node", "names", "outer_raise")

    def __init__(
        self, node: ast.stmt, names: Tuple[str, ...], outer_raise: int
    ) -> None:
        self.node = node
        self.names = names
        self.outer_raise = outer_raise


_CLEANUP_FRAMES = (_FinallyFrame, _WithFrame)


class _CfgBuilder:
    def __init__(self, func: ast.AST, name: str) -> None:
        self.cfg = CFG(name, func)
        body_entry = self.cfg.new_block("body")
        self.cfg.add_edge(self.cfg.entry, body_entry.index, "flow")
        self.current: Optional[int] = body_entry.index
        self.raise_target: int = self.cfg.raise_exit
        self.frames: List[object] = []

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        self._stmts(body)
        if self.current is not None:
            self.cfg.add_edge(self.current, self.cfg.exit, "flow")
        return self.cfg

    # -- plumbing --------------------------------------------------------

    def _block(self) -> int:
        if self.current is None:
            # Unreachable code after a jump: keep the statements in an
            # orphan block so they still exist, with no incoming edges.
            self.current = self.cfg.new_block("unreachable").index
        return self.current

    def _append(self, entry: Entry) -> None:
        index = self._block()
        block = self.cfg.blocks[index]
        block.entries.append(entry)
        if _can_raise(entry):
            self.cfg.add_edge(
                index, self.raise_target, "except", origin=len(block.entries) - 1
            )

    def _detached(
        self,
        stmts: Sequence[ast.stmt],
        raise_target: int,
        frames: Sequence[object],
        label: str,
    ) -> Tuple[int, Optional[int]]:
        """Build ``stmts`` as a fresh chain; return (entry, end) blocks."""
        saved = (self.current, self.raise_target, self.frames)
        entry = self.cfg.new_block(label).index
        self.current = entry
        self.raise_target = raise_target
        self.frames = list(frames)
        self._stmts(stmts)
        end = self.current
        self.current, self.raise_target, self.frames = saved
        return entry, end

    def _stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, ast.Return):
            self._append(stmt)
            self._jump_through(None, "return")
            self.current = None
        elif isinstance(stmt, ast.Raise):
            self._append(stmt)  # the except edge is the only way out
            self.current = None
        elif isinstance(stmt, ast.Break):
            self._jump_through(_LoopFrame, "break")
            self.current = None
        elif isinstance(stmt, ast.Continue):
            self._jump_through(_LoopFrame, "continue")
            self.current = None
        else:
            self._append(stmt)

    # -- structured statements -------------------------------------------

    def _if(self, node: ast.If) -> None:
        self._append(TestExpr(node.test))
        cond = self._block()
        then_entry = self.cfg.new_block("then").index
        self.cfg.add_edge(cond, then_entry, "true")
        self.current = then_entry
        self._stmts(node.body)
        then_end = self.current
        else_end: Optional[int] = None
        if node.orelse:
            else_entry = self.cfg.new_block("else").index
            self.cfg.add_edge(cond, else_entry, "false")
            self.current = else_entry
            self._stmts(node.orelse)
            else_end = self.current
        joins: List[Tuple[int, str]] = []
        if then_end is not None:
            joins.append((then_end, "flow"))
        if node.orelse:
            if else_end is not None:
                joins.append((else_end, "flow"))
        else:
            joins.append((cond, "false"))
        if joins:
            join = self.cfg.new_block("after-if").index
            for src, kind in joins:
                self.cfg.add_edge(src, join, kind)
            self.current = join
        else:
            self.current = None

    def _while(self, node: ast.While) -> None:
        head = self.cfg.new_block("while-head").index
        self.cfg.add_edge(self._block(), head, "flow")
        self.current = head
        self._append(TestExpr(node.test))
        truth = _const_truth(node.test)
        after = self.cfg.new_block("after-while").index
        body_entry = self.cfg.new_block("while-body").index
        if truth is not False:
            self.cfg.add_edge(head, body_entry, "true")
        false_target = after
        if node.orelse:
            else_entry = self.cfg.new_block("loop-else").index
            false_target = else_entry
        if truth is not True:
            self.cfg.add_edge(head, false_target, "false")
        self.frames.append(_LoopFrame(head, after))
        self.current = body_entry
        self._stmts(node.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, head, "back")
        self.frames.pop()
        if node.orelse:
            self.current = false_target
            self._stmts(node.orelse)
            if self.current is not None:
                self.cfg.add_edge(self.current, after, "flow")
        self.current = after if self.cfg.preds(after) else None

    def _for(self, node: Union[ast.For, ast.AsyncFor]) -> None:
        self._append(TestExpr(node.iter))
        head = self.cfg.new_block("for-head").index
        self.cfg.add_edge(self._block(), head, "flow")
        self.current = head
        self._append(ForIter(node))
        after = self.cfg.new_block("after-for").index
        body_entry = self.cfg.new_block("for-body").index
        self.cfg.add_edge(head, body_entry, "true")
        false_target = after
        if node.orelse:
            else_entry = self.cfg.new_block("loop-else").index
            false_target = else_entry
        self.cfg.add_edge(head, false_target, "false")
        self.frames.append(_LoopFrame(head, after))
        self.current = body_entry
        self._stmts(node.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, head, "back")
        self.frames.pop()
        if node.orelse:
            self.current = false_target
            self._stmts(node.orelse)
            if self.current is not None:
                self.cfg.add_edge(self.current, after, "flow")
        self.current = after if self.cfg.preds(after) else None

    def _with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        names: List[str] = []
        for item in node.items:
            var = item.optional_vars
            if isinstance(var, ast.Name):
                names.append(var.id)
            elif var is None:
                ref = _ref_string(item.context_expr)
                if ref is not None:
                    names.append(ref)
        self._append(WithEnter(node))
        frame = _WithFrame(node, tuple(names), self.raise_target)
        unwind = self.cfg.new_block("with-unwind")
        unwind.entries.append(WithExit(node, frame.names))
        self.cfg.add_edge(unwind.index, frame.outer_raise, "except")
        self.frames.append(frame)
        self.raise_target = unwind.index
        self._stmts(node.body)
        self.frames.pop()
        self.raise_target = frame.outer_raise
        if self.current is not None:
            exit_block = self.cfg.new_block("with-exit")
            exit_block.entries.append(WithExit(node, frame.names))
            self.cfg.add_edge(self.current, exit_block.index, "flow")
            self.current = exit_block.index

    def _try(self, node: ast.Try) -> None:
        outer_raise = self.raise_target
        fin_frame: Optional[_FinallyFrame] = None
        frames_outside = list(self.frames)
        if node.finalbody:
            fin_frame = _FinallyFrame(node.finalbody, outer_raise)
            self.frames.append(fin_frame)
        exc_cont_cache: Dict[str, int] = {}

        def exc_cont() -> int:
            # Where an exception escaping this try propagates to: through
            # a fresh copy of the finally body when there is one.
            if not node.finalbody:
                return outer_raise
            if "entry" not in exc_cont_cache:
                entry, end = self._detached(
                    node.finalbody, outer_raise, frames_outside, "finally-exc"
                )
                if end is not None:
                    self.cfg.add_edge(end, outer_raise, "except")
                exc_cont_cache["entry"] = entry
            return exc_cont_cache["entry"]

        dispatch: Optional[int] = None
        if node.handlers:
            dispatch = self.cfg.new_block("except-dispatch").index

        body_entry = self.cfg.new_block("try-body").index
        self.cfg.add_edge(self._block(), body_entry, "flow")
        self.current = body_entry
        self.raise_target = dispatch if dispatch is not None else exc_cont()
        self._stmts(node.body)
        body_end = self.current

        # ``else`` runs after a clean body; its exceptions skip the
        # handlers and go straight through the finally.
        self.raise_target = exc_cont() if node.finalbody else outer_raise
        if node.orelse and body_end is not None:
            self._stmts(node.orelse)
            body_end = self.current

        handler_ends: List[Optional[int]] = []
        exhaustive = False
        for handler in node.handlers:
            label = "except"
            if isinstance(handler.type, ast.Name):
                label = f"except-{handler.type.id}"
            h_entry = self.cfg.new_block(label).index
            assert dispatch is not None
            self.cfg.add_edge(dispatch, h_entry, "except")
            if _handler_catches_all(handler.type):
                exhaustive = True
            self.current = h_entry
            self.raise_target = exc_cont() if node.finalbody else outer_raise
            self._stmts(handler.body)
            handler_ends.append(self.current)
        if dispatch is not None and not exhaustive:
            self.cfg.add_edge(dispatch, exc_cont(), "except")

        if fin_frame is not None:
            self.frames.pop()
        self.raise_target = outer_raise

        ends = [end for end in [body_end] + handler_ends if end is not None]
        if node.finalbody:
            if ends:
                fentry, fend = self._detached(
                    node.finalbody, outer_raise, self.frames, "finally"
                )
                for end in ends:
                    self.cfg.add_edge(end, fentry, "flow")
                self.current = fend
            else:
                self.current = None
        else:
            if ends:
                join = self.cfg.new_block("after-try").index
                for end in ends:
                    self.cfg.add_edge(end, join, "flow")
                self.current = join
            else:
                self.current = None

    # -- jumps crossing cleanup frames -----------------------------------

    def _jump_through(
        self, stop_frame: Optional[type], kind: str
    ) -> None:
        """Route return/break/continue through pending finally/with copies."""
        cleanups: List[Tuple[int, object]] = []
        stop_index: Optional[int] = None
        for index in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[index]
            if stop_frame is not None and isinstance(frame, stop_frame):
                stop_index = index
                break
            if isinstance(frame, _CLEANUP_FRAMES):
                cleanups.append((index, frame))
        if stop_frame is _LoopFrame and stop_index is None:
            return  # break/continue outside a loop: a syntax error upstream
        src = self._block()
        for frame_index, frame in cleanups:
            below = self.frames[:frame_index]
            if isinstance(frame, _WithFrame):
                copy = self.cfg.new_block("with-exit")
                copy.entries.append(WithExit(frame.node, frame.names))
                entry, end = copy.index, copy.index
            else:
                assert isinstance(frame, _FinallyFrame)
                entry, end = self._detached(
                    frame.finalbody, frame.outer_raise, below, "finally-jump"
                )
            self.cfg.add_edge(src, entry, kind)
            if end is None:
                return  # the cleanup itself diverted control
            src = end
        if kind == "return":
            target = self.cfg.exit
        else:
            loop = self.frames[stop_index]
            assert isinstance(loop, _LoopFrame)
            target = loop.after if kind == "break" else loop.head
        self.cfg.add_edge(src, target, kind)


def build_cfg(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef], name: Optional[str] = None
) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _CfgBuilder(func, name or func.name).build(func.body)


def functions_in(tree: ast.AST) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """Every function definition in ``tree``, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# -- generic worklist engine ------------------------------------------------


def run_worklist(
    cfg: CFG,
    init: object,
    bottom: object,
    transfer: Callable[[Block, Optional[int], object], object],
    join: Callable[[object, object], object],
) -> Dict[int, object]:
    """Forward dataflow to fixpoint; returns the in-state of every block.

    ``transfer(block, upto, state)`` applies the block's effects —
    all of them when ``upto`` is ``None``, or only the entries strictly
    before index ``upto`` (the semantics of an ``except`` edge
    originating mid-block).  ``join`` merges states at confluence
    points; ``bottom`` is the not-yet-reached state.
    """
    in_states: Dict[int, object] = {index: bottom for index in range(len(cfg.blocks))}
    in_states[cfg.entry] = init
    worklist: List[int] = [cfg.entry]
    while worklist:
        index = worklist.pop()
        state = in_states[index]
        if state is bottom:
            continue
        block = cfg.blocks[index]
        for edge in cfg.succs(index):
            out = transfer(block, edge.origin, state)
            merged = (
                out
                if in_states[edge.dst] is bottom
                else join(in_states[edge.dst], out)
            )
            if merged != in_states[edge.dst] or in_states[edge.dst] is bottom:
                in_states[edge.dst] = merged
                worklist.append(edge.dst)
    return in_states


def _walk_local(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _DEF_NODES):
                yield child  # the binding itself, not its body
                continue
            stack.append(child)


def _defined_names(entry: Entry) -> Set[str]:
    names: Set[str] = set()
    node = entry_node(entry)
    if isinstance(entry, ForIter):
        target = node.target  # type: ignore[attr-defined]
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
        return names
    if isinstance(entry, WithEnter):
        for item in node.items:  # type: ignore[attr-defined]
            if isinstance(item.optional_vars, ast.Name):
                names.add(item.optional_vars.id)
        return names
    if isinstance(entry, _PSEUDO):
        return names
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            names.add((alias.asname or alias.name).split(".")[0])
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.add(node.name)
    return names


def reaching_definitions(cfg: CFG) -> Dict[int, FrozenSet[Tuple[str, int]]]:
    """Classic reaching definitions: in-state per block as (name, line).

    Parameters reach from line 0.  The standard worklist client — and
    the engine's unit-testable face.
    """
    params: Set[Tuple[str, int]] = set()
    func = cfg.node
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func.args
        all_args = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        params = {(a.arg, 0) for a in all_args}
    bottom = object()

    def transfer(block: Block, upto: Optional[int], state: object) -> object:
        defs = set(state)  # type: ignore[call-overload]
        end = len(block.entries) if upto is None else upto
        for entry in block.entries[:end]:
            defined = _defined_names(entry)
            if not defined:
                continue
            line = entry_line(entry)
            defs = {d for d in defs if d[0] not in defined}
            defs |= {(name, line) for name in defined}
        return frozenset(defs)

    def join(a: object, b: object) -> object:
        return frozenset(a) | frozenset(b)  # type: ignore[arg-type]

    raw = run_worklist(cfg, frozenset(params), bottom, transfer, join)
    return {
        index: (state if state is not bottom else frozenset())  # type: ignore[misc]
        for index, state in raw.items()
    }


# -- reachability with witnesses --------------------------------------------


@dataclass(frozen=True)
class PathWitness:
    """A concrete path through the CFG backing one finding.

    ``edges`` is the actual edge sequence used; ``blocks`` the block
    index sequence it induces.  ``end_kind`` names what was reached:
    ``"exit"``, ``"raise-exit"``, or ``"target"`` (a mid-block goal
    position).
    """

    edges: Tuple[Edge, ...]
    start: Tuple[int, int]
    end_kind: str
    end_line: int = 0

    @property
    def blocks(self) -> Tuple[int, ...]:
        if not self.edges:
            return (self.start[0],)
        return tuple([e.src for e in self.edges] + [self.edges[-1].dst])


#: Sentinel a ``stops`` callable may return instead of ``True``: the entry
#: neutralises *fallthrough* (its normal exit releases), but its own except
#: edges stay live — a callee that may raise before it releases.  Compares
#: unequal to ``True``, so boolean-returning stops are unaffected.
STOP_NORMAL_ONLY = "normal-only"


def reach_without(
    cfg: CFG,
    starts: Sequence[Tuple[int, int]],
    stops: Callable[[Entry], object],
    goal_blocks: FrozenSet[int] = frozenset(),
    goal_positions: FrozenSet[Tuple[int, int]] = frozenset(),
    stop_on_except_origin: bool = True,
) -> Optional[PathWitness]:
    """Find a path from a start position that avoids every stop entry.

    BFS over ``(block, entry-index)`` positions.  A position scans its
    block's entries forward: hitting a stop neutralises the branch;
    every ``except`` edge originating at a scanned entry is followed
    with the state *before* that entry (when the entry is itself a stop
    and ``stop_on_except_origin`` is true, its own except edge counts
    as stopped — the release-effective-even-if-it-raises asymmetry;
    a stop verdict of ``STOP_NORMAL_ONLY`` keeps the entry's own except
    edges live regardless, for callees that may raise *before* they
    release).  Falling off the block end follows every block-end edge.
    Reaching a goal block or goal position returns the shortest witness.
    """
    from collections import deque

    parents: Dict[Tuple[int, int], Tuple[Optional[Tuple[int, int]], Optional[Edge]]] = {}
    queue: deque = deque()
    for start in starts:
        if start not in parents:
            parents[start] = (None, None)
            queue.append(start)

    def witness(
        state: Tuple[int, int], end_kind: str, end_line: int, last: Optional[Edge]
    ) -> PathWitness:
        edges: List[Edge] = []
        if last is not None:
            edges.append(last)
        cursor: Optional[Tuple[int, int]] = state
        while cursor is not None:
            parent, via = parents[cursor]
            if via is not None:
                edges.append(via)
            cursor = parent
        edges.reverse()
        root = state
        while parents[root][0] is not None:
            root = parents[root][0]  # type: ignore[assignment]
        return PathWitness(tuple(edges), root, end_kind, end_line)

    def except_edges_at(block: Block, position: int) -> List[Edge]:
        return [
            e
            for e in cfg.succs(block.index)
            if e.kind == "except" and e.origin == position
        ]

    while queue:
        state = queue.popleft()
        block_index, start_at = state
        block = cfg.blocks[block_index]
        neutralised = False
        for position in range(start_at, len(block.entries)):
            if (block_index, position) in goal_positions:
                entry = block.entries[position]
                return witness(state, "target", entry_line(entry), None)
            entry = block.entries[position]
            verdict = stops(entry)
            if verdict:
                if verdict == STOP_NORMAL_ONLY or not stop_on_except_origin:
                    for edge in except_edges_at(block, position):
                        nxt = (edge.dst, 0)
                        if edge.dst in goal_blocks:
                            return witness(state, _end_kind(cfg, edge.dst), 0, edge)
                        if nxt not in parents:
                            parents[nxt] = (state, edge)
                            queue.append(nxt)
                neutralised = True
                break
            for edge in except_edges_at(block, position):
                if edge.dst in goal_blocks:
                    return witness(state, _end_kind(cfg, edge.dst), 0, edge)
                nxt = (edge.dst, 0)
                if nxt not in parents:
                    parents[nxt] = (state, edge)
                    queue.append(nxt)
        if neutralised:
            continue
        for edge in cfg.succs(block_index):
            if edge.origin is not None:
                continue  # mid-block except edges were handled in the scan
            if edge.dst in goal_blocks:
                return witness(state, _end_kind(cfg, edge.dst), 0, edge)
            nxt = (edge.dst, 0)
            if nxt not in parents:
                parents[nxt] = (state, edge)
                queue.append(nxt)
    return None


def _end_kind(cfg: CFG, block_index: int) -> str:
    if block_index == cfg.exit:
        return "exit"
    if block_index == cfg.raise_exit:
        return "raise-exit"
    return "target"


def _format_path(cfg: CFG, w: PathWitness) -> str:
    lines: List[int] = []
    for index in w.blocks:
        block = cfg.blocks[index]
        for entry in block.entries:
            line = entry_line(entry)
            if line:
                lines.append(line)
                break
    hops: List[str] = []
    for line in lines:
        text = str(line)
        if not hops or hops[-1] != text:
            hops.append(text)
    if len(hops) > 6:
        hops = hops[:3] + ["..."] + hops[-2:]
    tail = {
        "exit": "function exit",
        "raise-exit": "exception exit",
        "target": f"line {w.end_line}" if w.end_line else "here",
    }[w.end_kind]
    if hops:
        return "via line(s) " + " -> ".join(hops) + f" to {tail}"
    return f"straight to {tail}"


# -- lifecycle specs --------------------------------------------------------

_DEFAULT_CLEANUP_METHODS = (
    "close",
    "shutdown",
    "release",
    "stop",
    "cleanup",
    "terminate",
)


@dataclass(frozen=True)
class ResourceSpec:
    """``acquire -> [use]* -> release`` lifecycle for one resource kind.

    ``transfers`` and ``returns_ownership`` are interprocedural clauses
    (``--inter``): calling a ``transfers`` function with the resource
    hands ownership over (a release, not an escape), and a call to a
    ``returns_ownership`` function is an acquire site in the caller.
    """

    resource: str
    acquire: Tuple[str, ...]
    release_methods: Tuple[str, ...] = ("close",)
    release_funcs: Tuple[str, ...] = ()
    cleanup_methods: Tuple[str, ...] = _DEFAULT_CLEANUP_METHODS
    tuple_result: bool = False
    modules: Tuple[str, ...] = ()
    transfers: Tuple[str, ...] = ()
    returns_ownership: Tuple[str, ...] = ()


@dataclass(frozen=True)
class OrderSpec:
    """Must-precede: in ``functions``, ``append`` precedes any mutation."""

    functions: Tuple[str, ...]
    append: Tuple[str, ...]
    allow: Tuple[str, ...] = ()
    modules: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TruncationSpec:
    """Extra modules opted into the count-and-skip sink check."""

    modules: Tuple[str, ...] = ()


FlowSpec = Union[ResourceSpec, OrderSpec, TruncationSpec]

#: Resource lifecycles every module is checked against.
DEFAULT_RESOURCE_SPECS: Tuple[ResourceSpec, ...] = (
    ResourceSpec(
        resource="file handle",
        acquire=("open",),
        release_methods=("close",),
    ),
)

#: Parser packages the ``unchecked-truncation`` rule covers by default.
TRUNCATION_PACKAGES: Tuple[str, ...] = ("repro.weblog", "repro.bgp")

_SPEC_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # rule -> (required keys, optional keys)
    "resource-leak": (
        ("resource", "acquire"),
        (
            "release_methods",
            "release_funcs",
            "cleanup_methods",
            "tuple_result",
            "modules",
            "transfers",
            "returns_ownership",
        ),
    ),
    "wal-order": (("functions", "append"), ("allow", "modules")),
    "unchecked-truncation": ((), ("modules",)),
}


def _as_str_tuple(value: object) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (tuple, list)) and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    raise ValueError(f"expected a string or tuple of strings, got {value!r}")


def _parse_spec(raw: Dict[str, object], declaring_module: str) -> FlowSpec:
    rule = raw.get("rule")
    if not isinstance(rule, str) or rule not in _SPEC_FIELDS:
        raise ValueError(
            f"spec 'rule' must be one of {sorted(_SPEC_FIELDS)}, got {rule!r}"
        )
    required, optional = _SPEC_FIELDS[rule]
    keys = set(raw) - {"rule"}
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise ValueError(f"{rule} spec missing key(s): {', '.join(sorted(missing))}")
    if unknown:
        raise ValueError(f"{rule} spec has unknown key(s): {', '.join(sorted(unknown))}")
    modules = (
        _as_str_tuple(raw["modules"]) if "modules" in raw else (declaring_module,)
    )
    if rule == "resource-leak":
        tuple_result = raw.get("tuple_result", False)
        if not isinstance(tuple_result, bool):
            raise ValueError("'tuple_result' must be a bool")
        return ResourceSpec(
            resource=str(raw["resource"]),
            acquire=_as_str_tuple(raw["acquire"]),
            release_methods=_as_str_tuple(
                raw.get("release_methods", ("close",))
            ),
            release_funcs=_as_str_tuple(raw.get("release_funcs", ())),
            cleanup_methods=_as_str_tuple(
                raw.get("cleanup_methods", _DEFAULT_CLEANUP_METHODS)
            ),
            tuple_result=tuple_result,
            modules=modules,
            transfers=_as_str_tuple(raw.get("transfers", ())),
            returns_ownership=_as_str_tuple(raw.get("returns_ownership", ())),
        )
    if rule == "wal-order":
        return OrderSpec(
            functions=_as_str_tuple(raw["functions"]),
            append=_as_str_tuple(raw["append"]),
            allow=_as_str_tuple(raw.get("allow", ())),
            modules=modules,
        )
    return TruncationSpec(modules=modules)


def collect_specs(
    modules: Iterable[LintModule],
) -> Tuple[List[FlowSpec], List[Finding]]:
    """Extract every ``FLOW_SPECS`` declaration from ``modules``.

    Specs are module-level ``FLOW_SPECS = (...)`` tuples of dict
    *literals* — evaluated with :func:`ast.literal_eval`, never
    imported, so declaring a spec costs the governed module nothing at
    runtime.  Malformed declarations become ``flow-spec`` findings
    rather than passing silently.
    """
    specs: List[FlowSpec] = list(DEFAULT_RESOURCE_SPECS)
    findings: List[Finding] = []
    for module in modules:
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "FLOW_SPECS"
                for t in node.targets
            ):
                continue
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                findings.append(
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id="flow-spec",
                        message=(
                            "FLOW_SPECS must be a literal tuple of dicts "
                            "(ast.literal_eval-able, no names or calls)"
                        ),
                    )
                )
                continue
            if isinstance(value, dict):
                value = (value,)
            if not isinstance(value, (tuple, list)):
                findings.append(
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id="flow-spec",
                        message="FLOW_SPECS must be a tuple of spec dicts",
                    )
                )
                continue
            for raw in value:
                if not isinstance(raw, dict):
                    findings.append(
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule_id="flow-spec",
                            message=f"spec entries must be dicts, got {raw!r}",
                        )
                    )
                    continue
                try:
                    specs.append(_parse_spec(raw, module.module))
                except ValueError as exc:
                    findings.append(
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule_id="flow-spec",
                            message=str(exc),
                        )
                    )
    return specs, findings


def _spec_applies(spec: FlowSpec, module: LintModule) -> bool:
    if not spec.modules:
        return True
    return module.in_package(*spec.modules)


def spec_fingerprint(specs: Sequence[FlowSpec], rule_ids: Sequence[str]) -> str:
    """A stable content hash over the collected specs and active rules.

    Part of every per-module cache key: editing a spec in one module
    must invalidate cached results for every module it governs.
    """
    import hashlib

    digest = hashlib.sha256()
    for spec in sorted(specs, key=repr):
        digest.update(repr(spec).encode("utf-8"))
    for rule_id in sorted(rule_ids):
        digest.update(rule_id.encode("utf-8"))
    return digest.hexdigest()


# -- shared predicates ------------------------------------------------------


def _ref_string(node: ast.AST) -> Optional[str]:
    """``"x"`` for ``Name x``, ``"self.a"`` for ``self.a``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _is_ref(node: ast.AST, var: str) -> bool:
    return _ref_string(node) == var


def _dotted_callee(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = _dotted_callee(func.value)
        return f"{base}.{func.attr}" if base else None
    return None


def _callee_matches(func: ast.expr, names: Sequence[str]) -> bool:
    for name in names:
        if "." in name:
            if _dotted_callee(func) == name:
                return True
        elif isinstance(func, ast.Name) and func.id == name:
            return True
    return False


def _call_attr(func: ast.expr) -> Optional[str]:
    """The method name of an attribute call (``x.y.m(...)`` -> ``m``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _acquire_call(entry_value: ast.expr, spec: ResourceSpec) -> Optional[ast.Call]:
    if not isinstance(entry_value, ast.Call):
        return None
    if not _callee_matches(entry_value.func, spec.acquire):
        return None
    return entry_value


def _releases(entry: Entry, var: str, spec: ResourceSpec, in_init: bool) -> bool:
    if isinstance(entry, WithExit):
        return var in entry.names
    if isinstance(entry, _PSEUDO):
        node: ast.AST = entry.node
    else:
        node = entry
    if isinstance(node, ast.Delete):
        return any(_is_ref(target, var) for target in node.targets)
    for sub in _walk_local(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute):
            if func.attr in spec.release_methods and _is_ref(func.value, var):
                return True
            if (
                in_init
                and func.attr in spec.cleanup_methods
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                return True
        if spec.release_funcs and _callee_matches(func, spec.release_funcs):
            if any(_is_ref(arg, var) for arg in sub.args):
                return True
    return False


def _contains_name(node: ast.AST, var: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == var for sub in _walk_local(node)
    )


def _direct_or_container(node: ast.AST, var: str) -> bool:
    """Is ``var`` the node itself, or inside a container/starred literal?"""
    if _is_ref(node, var):
        return True
    if isinstance(node, ast.Starred):
        return _direct_or_container(node.value, var)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_direct_or_container(e, var) for e in node.elts)
    if isinstance(node, ast.Dict):
        return any(
            e is not None and _direct_or_container(e, var)
            for e in list(node.keys) + list(node.values)
        )
    return False


def _escapes(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    var: str,
    spec: ResourceSpec,
) -> bool:
    """Flow-insensitive: does ``var`` ever leave this function's hands?

    Returned, yielded, aliased, stored into an attribute/subscript,
    shipped inside a container literal, passed to any call that is not
    a release, raised with, deleted by someone else, or captured by a
    nested function — any of these transfers ownership somewhere the
    intraprocedural checker cannot see, so tracking stops.
    """
    for node in _walk_local(func):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _contains_name(node.value, var):
                return True
        elif isinstance(node, ast.Raise):
            if node.exc is not None and _contains_name(node.exc, var):
                return True
        elif isinstance(node, ast.Call):
            if _callee_matches(node.func, spec.release_funcs):
                continue
            values = list(node.args) + [k.value for k in node.keywords]
            if any(_direct_or_container(value, var) for value in values):
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is not None and value is not getattr(node, "target", None):
                if _direct_or_container(value, var) and not (
                    isinstance(value, ast.Call)
                ):
                    # an alias (`other = seg`) or container store
                    return True
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if value is not None and _direct_or_container(value, var):
                        return True
    for node in ast.walk(func):
        if isinstance(node, _DEF_NODES) and node is not func:
            body = getattr(node, "body", None)
            if body is None:
                body = [node.body]  # Lambda
            for stmt in body:
                if _contains_name(stmt, var):
                    return True
    return False


def _self_escapes(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    """Does ``__init__`` hand ``self`` to someone who could clean it up?"""
    for node in _walk_local(func):
        if isinstance(node, ast.Call):
            values = list(node.args) + [k.value for k in node.keywords]
            if any(isinstance(v, ast.Name) and v.id == "self" for v in values):
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is not None and _direct_or_container(value, "self"):
                return True
    return False


# -- flow rules -------------------------------------------------------------


class FlowRule:
    """Base class for one path-sensitive check over a module."""

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, module: LintModule, context: "FlowContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: LintModule, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


#: The path-sensitive registry: rule id -> singleton rule instance.
FLOW_RULES: Dict[str, FlowRule] = {}


def register_flow(cls: Type[FlowRule]) -> Type[FlowRule]:
    if not cls.rule_id:
        raise ValueError(f"flow rule {cls.__name__} has no rule_id")
    if cls.rule_id in FLOW_RULES:
        raise ValueError(f"duplicate flow rule id: {cls.rule_id}")
    FLOW_RULES[cls.rule_id] = cls()
    return cls


def active_flow_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[FlowRule]:
    """Resolve ``--select`` / ``--ignore`` into a flow-rule list."""
    wanted = set(select) if select is not None else set(FLOW_RULES)
    wanted -= set(ignore or ())
    unknown = wanted - set(FLOW_RULES)
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        rule for rule_id, rule in sorted(FLOW_RULES.items()) if rule_id in wanted
    ]


@dataclass
class FlowContext:
    """Per-module analysis context shared by every flow rule."""

    specs: Sequence[FlowSpec]
    _cfgs: Dict[int, Tuple[ast.AST, CFG]] = field(default_factory=dict)

    def cfgs(
        self, module: LintModule
    ) -> List[Tuple[Union[ast.FunctionDef, ast.AsyncFunctionDef], CFG]]:
        key = id(module)
        if key not in self._cfgs:
            built = [(f, build_cfg(f)) for f in functions_in(module.tree)]
            self._cfgs[key] = built  # type: ignore[assignment]
        return self._cfgs[key]  # type: ignore[return-value]

    def of_type(self, kind: type) -> List[FlowSpec]:
        return [spec for spec in self.specs if isinstance(spec, kind)]


@register_flow
class FlowSpecRule(FlowRule):
    """Registration stub: findings are produced during spec collection."""

    rule_id = "flow-spec"
    summary = "FLOW_SPECS declarations are literal, well-formed spec dicts"
    rationale = (
        "a lifecycle spec that fails to parse silently un-guards the "
        "code it was declared to protect"
    )

    def check(self, module: LintModule, context: FlowContext) -> Iterator[Finding]:
        return iter(())


@dataclass(frozen=True)
class Leak:
    """One unreleased-path diagnosis (the property-testable record)."""

    var: str
    resource: str
    line: int
    col: int
    scope: str  # "local" | "init-attr" | "with"
    witness: PathWitness
    cfg: CFG
    function: str


@register_flow
class ResourceLeakRule(FlowRule):
    rule_id = "resource-leak"
    summary = (
        "acquired resources reach a release on every path, including "
        "exception edges"
    )
    rationale = (
        "a file handle or WAL segment file acquired on a path that can "
        "exit without its release stays open behind an exception — the "
        "leak class a syntactic per-module open/close census cannot see"
    )

    def check(self, module: LintModule, context: FlowContext) -> Iterator[Finding]:
        for leak in find_resource_leaks(module, context):
            where = (
                "the exception exit"
                if leak.witness.end_kind == "raise-exit"
                else "a function exit"
            )
            path = _format_path(leak.cfg, leak.witness)
            yield self.finding(
                module,
                leak.line,
                leak.col,
                f"{leak.resource} {leak.var!r} acquired in "
                f"{leak.function}() can reach {where} without a release "
                f"({path}); release it on every path, including exception "
                "edges",
            )


def find_resource_leaks(
    module: LintModule, context: Optional[FlowContext] = None
) -> List[Leak]:
    """Every unreleased-path diagnosis in ``module`` (rich records).

    The rule formats these into findings; tests (including the
    hypothesis property test) consume the witnesses directly.
    """
    if context is None:
        specs, _ = collect_specs([module])
        context = FlowContext(specs=[s for s in specs if _spec_applies(s, module)])
    specs = [s for s in context.of_type(ResourceSpec)]
    if not specs:
        return []
    leaks: List[Leak] = []
    for func, cfg in context.cfgs(module):
        in_init = func.name == "__init__" and bool(func.args.args) and (
            func.args.args[0].arg == "self"
        )
        for spec in specs:
            assert isinstance(spec, ResourceSpec)
            for site in _acquire_sites(cfg, spec, in_init):
                var, block_index, position, scope, node = site
                if scope == "init-attr":
                    if _self_escapes(func):
                        continue
                    goals = frozenset({cfg.raise_exit})
                elif _escapes(func, var, spec):
                    continue
                else:
                    goals = frozenset({cfg.exit, cfg.raise_exit})
                witness = reach_without(
                    cfg,
                    [(block_index, position + 1)],
                    lambda entry, v=var, s=spec: _releases(entry, v, s, in_init),
                    goal_blocks=goals,
                )
                if witness is None:
                    continue
                leaks.append(
                    Leak(
                        var=var,
                        resource=spec.resource,
                        line=getattr(node, "lineno", 0),
                        col=getattr(node, "col_offset", 0),
                        scope=scope,
                        witness=witness,
                        cfg=cfg,
                        function=func.name,
                    )
                )
    return leaks


def _acquire_sites(
    cfg: CFG, spec: ResourceSpec, in_init: bool
) -> List[Tuple[str, int, int, str, ast.AST]]:
    sites: List[Tuple[str, int, int, str, ast.AST]] = []
    for block in cfg.blocks:
        for position, entry in enumerate(block.entries):
            if isinstance(entry, WithEnter):
                with_node = entry.node
                for item in with_node.items:  # type: ignore[attr-defined]
                    call = _acquire_call(item.context_expr, spec)
                    if call is None:
                        continue
                    if isinstance(item.optional_vars, ast.Name):
                        sites.append(
                            (
                                item.optional_vars.id,
                                block.index,
                                position,
                                "with",
                                with_node,
                            )
                        )
                continue
            if isinstance(entry, _PSEUDO) or not isinstance(
                entry, (ast.Assign, ast.AnnAssign)
            ):
                continue
            value = entry.value
            if value is None:
                continue
            call = _acquire_call(value, spec)
            if call is None:
                continue
            targets = (
                entry.targets if isinstance(entry, ast.Assign) else [entry.target]
            )
            if len(targets) != 1:
                continue
            target = targets[0]
            if spec.tuple_result:
                if not isinstance(target, ast.Tuple) or not target.elts:
                    continue
                target = target.elts[0]
            ref = _ref_string(target)
            if ref is None:
                continue
            if ref.startswith("self."):
                if in_init:
                    sites.append((ref, block.index, position, "init-attr", entry))
                continue
            if "." in ref:
                continue
            sites.append((ref, block.index, position, "local", entry))
    return sites


@register_flow
class WalOrderRule(FlowRule):
    rule_id = "wal-order"
    summary = "WAL append precedes every state mutation on every path"
    rationale = (
        "a mutation the WAL has not recorded yet is unrecoverable: a "
        "crash between the mutation and the append replays a stream "
        "that never contained the event"
    )

    _MUTATORS = (
        "append",
        "add",
        "update",
        "pop",
        "extend",
        "insert",
        "setdefault",
        "clear",
        "remove",
        "popleft",
        "appendleft",
    )

    def check(self, module: LintModule, context: FlowContext) -> Iterator[Finding]:
        specs = [
            s
            for s in context.of_type(OrderSpec)
            if isinstance(s, OrderSpec)
        ]
        if not specs:
            return
        for func, cfg in context.cfgs(module):
            for spec in specs:
                assert isinstance(spec, OrderSpec)
                if func.name not in spec.functions:
                    continue
                targets: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
                for block in cfg.blocks:
                    for position, entry in enumerate(block.entries):
                        mutated = self._mutation(entry, spec)
                        if mutated is None:
                            continue
                        node = entry_node(entry)
                        targets[(block.index, position)] = (
                            mutated,
                            getattr(node, "lineno", 0),
                            getattr(node, "col_offset", 0),
                        )
                if not targets:
                    continue
                stops = _call_stop(spec.append)
                for position, (attr, line, col) in sorted(
                    targets.items(), key=lambda kv: kv[1][1:]
                ):
                    witness = reach_without(
                        cfg,
                        [(cfg.entry, 0)],
                        stops,
                        goal_positions=frozenset({position}),
                        stop_on_except_origin=False,
                    )
                    if witness is None:
                        continue
                    path = _format_path(cfg, witness)
                    yield self.finding(
                        module,
                        line,
                        col,
                        f"state mutation of {attr!r} in {func.name}() is "
                        f"reachable before the WAL append "
                        f"({'/'.join(spec.append)}) on some path ({path}); "
                        "append before mutating so recovery replays the "
                        "event",
                    )

    def _mutation(self, entry: Entry, spec: OrderSpec) -> Optional[str]:
        if isinstance(entry, _PSEUDO):
            return None
        node = entry
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = self._self_state(target)
                if attr is not None and attr not in spec.allow:
                    return f"self.{attr}"
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._MUTATORS
            ):
                attr = self._self_state(func.value)
                if attr is not None and attr not in spec.allow:
                    return f"self.{attr}.{func.attr}()"
        return None

    @staticmethod
    def _self_state(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None


def _call_stop(names: Sequence[str]) -> Callable[[Entry], bool]:
    """A stop predicate: the entry performs a call to one of ``names``.

    Matches on the final callee segment, so both ``self._wal_append(e)``
    and ``wal.append(e)`` satisfy an ``("append", "_wal_append")`` spec.
    """

    def stop(entry: Entry) -> bool:
        node = entry_node(entry)
        for sub in _walk_local(node):
            if isinstance(sub, ast.Call):
                attr = _call_attr(sub.func)
                if attr is not None and attr in names:
                    return True
        return False

    return stop


@register_flow
class UncheckedTruncationRule(FlowRule):
    rule_id = "unchecked-truncation"
    summary = "count-and-skip tallies always reach the report sink"
    rationale = (
        "an error counter incremented on a path that returns without the "
        "report escaping is a silently dropped tally — 'parsed N entries' "
        "becomes a lie exactly when the input was damaged"
    )

    def check(self, module: LintModule, context: FlowContext) -> Iterator[Finding]:
        in_scope = module.in_package(*TRUNCATION_PACKAGES)
        for spec in context.of_type(TruncationSpec):
            assert isinstance(spec, TruncationSpec)
            if _spec_applies(spec, module):
                in_scope = True
        if not in_scope:
            return
        for func, cfg in context.cfgs(module):
            params = {a.arg for a in func.args.args + func.args.kwonlyargs}
            report_vars: Set[str] = set()
            for node in _walk_local(func):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Call):
                            attr = _call_attr(sub.func)
                            if attr is not None and attr.endswith("Report"):
                                report_vars.add(target.id)
            report_vars -= params  # a caller-held report is already sunk
            if not report_vars:
                continue
            for var in sorted(report_vars):
                increments: List[Tuple[int, int, int, int, str]] = []
                for block in cfg.blocks:
                    for position, entry in enumerate(block.entries):
                        if isinstance(entry, _PSEUDO):
                            continue
                        if (
                            isinstance(entry, ast.AugAssign)
                            and isinstance(entry.target, ast.Attribute)
                            and isinstance(entry.target.value, ast.Name)
                            and entry.target.value.id == var
                        ):
                            increments.append(
                                (
                                    block.index,
                                    position,
                                    entry.lineno,
                                    entry.col_offset,
                                    entry.target.attr,
                                )
                            )
                for block_index, position, line, col, attr in increments:
                    witness = reach_without(
                        cfg,
                        [(block_index, position + 1)],
                        lambda entry, v=var: _sinks_report(entry, v),
                        goal_blocks=frozenset({cfg.exit}),
                        stop_on_except_origin=False,
                    )
                    if witness is None:
                        continue
                    path = _format_path(cfg, witness)
                    yield self.finding(
                        module,
                        line,
                        col,
                        f"count-and-skip tally {var}.{attr} incremented in "
                        f"{func.name}() can reach a normal return without "
                        f"{var!r} ever escaping ({path}); return or hand "
                        "off the report so the dropped-line count survives",
                    )


def _sinks_report(entry: Entry, var: str) -> bool:
    """Does this entry hand the report object to someone who keeps it?"""
    if isinstance(entry, _PSEUDO):
        return False
    node = entry
    for sub in _walk_local(node):
        if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
            if sub.value is not None and _contains_name(sub.value, var):
                return True
        elif isinstance(sub, ast.Raise):
            if _contains_name(sub, var):
                return True
        elif isinstance(sub, ast.Call):
            values = list(sub.args) + [k.value for k in sub.keywords]
            if any(_direct_or_container(v, var) for v in values):
                return True
        elif isinstance(sub, ast.Assign):
            if _direct_or_container(sub.value, var):
                return True
            for target in sub.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if _contains_name(sub.value, var):
                        return True
    return False


# -- entry points -----------------------------------------------------------


def load_flow_modules(
    paths: Sequence[Union[str, Path]],
) -> Tuple[List[LintModule], List[Finding]]:
    """Parse every ``.py`` under ``paths``; broken files become findings."""
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
                    message=f"cannot analyze file: {exc}",
                )
            )
    return modules, findings


def flow_findings_for_module(
    module: LintModule,
    specs: Sequence[FlowSpec],
    rules: Optional[Sequence[FlowRule]] = None,
) -> List[Finding]:
    """Run the flow rules over one module; suppressions applied.

    The per-module unit the CLI caches: results depend only on this
    module's source, the collected spec set, and the active rules.
    """
    if rules is None:
        rules = active_flow_rules()
    context = FlowContext(specs=[s for s in specs if _spec_applies(s, module)])
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(module, context))
    return apply_suppressions(findings, [module])


def analyze_flow(
    modules: Sequence[LintModule],
    rules: Optional[Sequence[FlowRule]] = None,
) -> List[Finding]:
    """The ``--flow`` pass: collect specs everywhere, check each module."""
    if rules is None:
        rules = active_flow_rules()
    rule_ids = {rule.rule_id for rule in rules}
    specs, spec_findings = collect_specs(modules)
    findings: List[Finding] = [
        finding for finding in spec_findings if finding.rule_id in rule_ids
    ]
    for module in modules:
        findings.extend(flow_findings_for_module(module, specs, rules))
    return apply_suppressions(findings, modules)
