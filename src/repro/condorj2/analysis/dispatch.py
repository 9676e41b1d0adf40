"""Dispatch-complexity tier: prove set-orientation statically.

The paper's flagship property is that a scheduling pass — indeed every
API operation — issues a *bounded* number of SQL statements no matter
how many jobs, machines or events it covers (the O(1)-statements-per-
pass result the benchmarks pin).  The first two analysis tiers check
individual statements and cross-statement state machines; nothing
checked the *loop structure around the dispatches*.  A regression that
wraps an ``execute`` in a per-job ``for`` loop parses fine, walks legal
lifecycle edges, commits in one transaction — and only surfaces as a
slow benchmark.

This tier closes that hole.  It reuses the transaction tier's
name-resolved call graph machinery (:mod:`txn`) to annotate

* every execute-family call site (``execute``/``executemany``/
  ``query_all``/``query_one``/``scalar`` — one *dispatch* each, exactly
  what ``StatementCounts.statements`` meters at runtime) with its loop
  context: the stack of enclosing ``for``/``while`` loops and
  comprehensions, each classified *bounded* or *data-dependent*;
* every resolvable call site likewise, so loop context is inherited
  through call edges (a loop around a call to a dispatching function is
  a loop around its dispatches).

Loops are **bounded** (never flagged) when they
iterate a literal, a ``range()`` of constants, a name in
``schema.BOUNDED_ITERABLES`` (schema/contract declarations whose
cardinality is fixed at import time — reachable through ``.items()``/
``sorted()``-style wrappers and single local rebindings).  Everything
else is data-dependent, and no annotation overrides that verdict.  Two
structural rules fall out:

* ``per-row-dispatch`` (error) — a dispatch (or a call to a dispatching
  function) inside a data-dependent ``for``/comprehension;
* ``unbounded-loop-dispatch`` (error) — a dispatch inside a ``while``,
  or a call that closes a cycle through dispatching functions
  (recursion has no static bound either).

Together they are the static half of the paper's claim; the runtime half
is each ``OperationContract``'s constant ``statement_budget``, which the
gateway meters on every live call on every backend (``budget-exceeded``
faults).

Like the transaction tier, call resolution is name-based and
deliberately narrow; receivers may be ``self``, ``self.<attr>`` or a
simple local name, but common collection/str/logger method names
(``get``, ``update``, ``record``, ``append`` …) are never resolved for
non-``self`` receivers — ``event.get(...)`` must not alias
``ConfigService.get``.  Simulation driver files (``cas.py``,
``startd.py``, ``system.py``) are excluded: their ``while True`` event
loops *are* the simulated passage of time, not per-operation work.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.condorj2.analysis.extract import EXECUTE_METHODS
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.analysis.source import (
    FunctionIndex, SourceTree, functions_of,
)
from repro.condorj2.schema import BOUNDED_ITERABLES

__all__ = [
    "DispatchModel",
    "build_dispatch_model",
    "check_dispatch",
]

#: Simulation drivers: their event loops model wall-clock time, not
#: per-operation work, so they are outside the dispatch-complexity
#: contract (the per-*pass* services they call are what is audited).
_DRIVER_FILES = ("cas.py", "startd.py", "system.py")

#: Method names never resolved through the call graph unless the
#: receiver is literally ``self``: dict/set/list/str methods and the
#: event-log ``record`` would otherwise alias same-named service/bean
#: methods (``event.get`` → ``ConfigService.get``) and fabricate
#: per-row dispatches.
#: Bare-name calls to builtins are never resolved either: ``set(...)``
#: must not alias ``ConfigService.set``, nor ``dict(row)`` a bean method.
_BUILTIN_NAMES = frozenset(dir(builtins))

_UNRESOLVED_METHODS = frozenset({
    "get", "update", "items", "keys", "values", "append", "extend",
    "insert", "pop", "popitem", "setdefault", "add", "remove", "discard",
    "clear", "copy", "sort", "reverse", "split", "rsplit", "join",
    "strip", "lstrip", "rstrip", "format", "startswith", "endswith",
    "count", "index", "find", "rfind", "partition", "rpartition",
    "lower", "upper", "replace", "record",
}) | _BUILTIN_NAMES

#: Wrappers through which boundedness is transparent: ``sorted(TABLES)``
#: is as bounded as ``TABLES``.
_TRANSPARENT_CALLS = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "dict", "reversed",
    "enumerate", "iter",
})

#: Dict-view methods through which boundedness is transparent.
_VIEW_METHODS = frozenset({"items", "keys", "values"})


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop: kind, header line and boundedness verdict."""

    kind: str            # 'for' | 'while' | 'comp'
    line: int
    bounded: bool


@dataclass(frozen=True)
class DispatchSite:
    """One execute-family call, with its enclosing loop stack."""

    method: str
    line: int
    loops: Tuple[LoopCtx, ...]


@dataclass(frozen=True)
class DispatchCall:
    """One resolvable call site, with its enclosing loop stack."""

    name: str
    line: int
    loops: Tuple[LoopCtx, ...]


@dataclass
class DispatchInfo:
    """One function's dispatch sites and outgoing calls."""

    qualname: str
    file: str
    line: int
    sites: List[DispatchSite] = field(default_factory=list)
    calls: List[DispatchCall] = field(default_factory=list)


class _DispatchScan(ast.NodeVisitor):
    """Collects one function's dispatch and call sites with loop context.

    The iterable of a ``for`` (and the first generator of a
    comprehension) is evaluated *once*, so it is visited at the current
    depth; only the body runs per iteration.  A ``while`` test runs per
    iteration and is visited inside the loop context.
    """

    def __init__(self, info: DispatchInfo, local_env: Dict[str, ast.expr]):
        self.info = info
        self.local_env = local_env
        self._loops: List[LoopCtx] = []

    # -- boundedness ---------------------------------------------------
    def _bounded(self, node: ast.expr, depth: int = 0) -> bool:
        """Does ``node`` iterate a statically bounded collection?"""
        if depth > 4:
            return False
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict,
                             ast.Constant)):
            return True
        if isinstance(node, ast.Name):
            if node.id in BOUNDED_ITERABLES:
                return True
            assigned = self.local_env.get(node.id)
            return assigned is not None and self._bounded(assigned, depth + 1)
        if isinstance(node, ast.Attribute):
            # schema.TABLE_DEFS, contracts.CONTRACTS, ...
            return node.attr in BOUNDED_ITERABLES
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "range":
                    return all(isinstance(arg, ast.Constant)
                               for arg in node.args)
                return (func.id in _TRANSPARENT_CALLS and bool(node.args)
                        and self._bounded(node.args[0], depth + 1))
            if isinstance(func, ast.Attribute) \
                    and func.attr in _VIEW_METHODS:
                return self._bounded(func.value, depth + 1)
        return False

    def _classify(self, kind: str, node: ast.stmt,
                  iterable: Optional[ast.expr]) -> LoopCtx:
        return LoopCtx(kind, node.lineno,
                       iterable is not None and self._bounded(iterable))

    # -- loops ---------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)          # evaluated once, current depth
        self._loops.append(self._classify("for", node, node.iter))
        for statement in node.body:
            self.visit(statement)
        self._loops.pop()
        for statement in node.orelse:  # runs once, after the loop
            self.visit(statement)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self._loops.append(self._classify("while", node, None))
        self.visit(node.test)          # evaluated per iteration
        for statement in node.body:
            self.visit(statement)
        self._loops.pop()
        for statement in node.orelse:
            self.visit(statement)

    def _visit_comprehension(self, node) -> None:
        opened = 0
        for index, generator in enumerate(node.generators):
            if index == 0:
                self.visit(generator.iter)  # evaluated once
            self._loops.append(LoopCtx("comp", node.lineno,
                                       self._bounded(generator.iter)))
            opened += 1
            if index > 0:
                self.visit(generator.iter)  # re-evaluated per outer item
            for condition in generator.ifs:
                self.visit(condition)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        for _ in range(opened):
            self._loops.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # Nested function definitions get their own DispatchInfo.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        loops = tuple(self._loops)
        if isinstance(func, ast.Attribute):
            if func.attr in EXECUTE_METHODS:
                self.info.sites.append(DispatchSite(
                    method=func.attr, line=node.lineno, loops=loops))
            elif self._resolvable(func):
                self.info.calls.append(DispatchCall(
                    name=func.attr, line=node.lineno, loops=loops))
        elif isinstance(func, ast.Name) and func.id not in _BUILTIN_NAMES:
            self.info.calls.append(DispatchCall(
                name=func.id, line=node.lineno, loops=loops))
        self.generic_visit(node)

    @staticmethod
    def _resolvable(func: ast.Attribute) -> bool:
        """May this method name be resolved through the call graph?

        ``self.m(...)`` always; ``local.m(...)`` and ``self.attr.m(...)``
        only when ``m`` is not a common collection/str/logger method
        name (the aliasing guard in the module docstring).
        """
        value = func.value
        if isinstance(value, ast.Name):
            if value.id == "self":
                return True
            return func.attr not in _UNRESOLVED_METHODS
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            return func.attr not in _UNRESOLVED_METHODS
        return False


def _local_assignments(node) -> Dict[str, ast.expr]:
    """Single plain ``name = expr`` bindings in a function body.

    Names assigned more than once (or augmented, or via tuple targets)
    are dropped — only an unambiguous binding may transfer boundedness.
    """
    seen: Dict[str, List[Optional[ast.expr]]] = {}
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name):
            seen.setdefault(child.targets[0].id, []).append(child.value)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)) \
                and isinstance(child.target, ast.Name):
            # Rebinding forms that cannot transfer boundedness: record
            # an ambiguity marker so the name is dropped below.
            seen.setdefault(child.target.id, []).extend([None, None])
    return {name: values[0] for name, values in seen.items()
            if len(values) == 1 and values[0] is not None}


@dataclass
class DispatchModel(FunctionIndex):
    """The scanned tree's functions and call graph."""

    #: Functions that dispatch (directly or through callees).
    dispatching: Set[str] = field(default_factory=set)


def build_dispatch_model(root) -> DispatchModel:
    """Collect loop-annotated sites and the dispatching functions;
    ``root`` is a directory or a loaded :class:`SourceTree`."""
    model = DispatchModel()
    for module in SourceTree.of(root).application_modules(
            skip=_DRIVER_FILES):
        for qualname, node in functions_of(module.tree):
            info = DispatchInfo(qualname=f"{module.rel}:{qualname}",
                                file=module.rel, line=node.lineno)
            scan = _DispatchScan(info, _local_assignments(node))
            for statement in node.body:
                scan.visit(statement)
            model.add(info)
    _dispatching_fixpoint(model)
    return model


def _dispatching_fixpoint(model: DispatchModel) -> None:
    """Least fixpoint: functions from which a dispatch is reachable."""
    model.dispatching = {q for q, info in model.functions.items()
                         if info.sites}
    changed = True
    while changed:
        changed = False
        for qualname, info in model.functions.items():
            if qualname in model.dispatching:
                continue
            for call in info.calls:
                if any(target in model.dispatching
                       for target in model.resolve(call.name)):
                    model.dispatching.add(qualname)
                    changed = True
                    break


def _recursive_calls(model: DispatchModel
                     ) -> List[Tuple[DispatchInfo, DispatchCall]]:
    """The calls that close a cycle through dispatching functions.

    A depth-first walk over the dispatching call graph; a call to a
    function still on the walk's stack is a back edge.  Every such cycle
    has one, so each recursion is reported once.
    """
    closing: List[Tuple[DispatchInfo, DispatchCall]] = []
    on_stack: Set[str] = set()
    done: Set[str] = set()

    def walk(qualname: str) -> None:
        on_stack.add(qualname)
        info = model.functions[qualname]
        for call in info.calls:
            targets = [t for t in model.resolve(call.name)
                       if t in model.dispatching]
            if any(target in on_stack for target in targets):
                closing.append((info, call))
            for target in targets:
                if target not in on_stack and target not in done:
                    walk(target)
        on_stack.discard(qualname)
        done.add(qualname)

    for qualname in sorted(model.dispatching):
        if qualname not in done:
            walk(qualname)
    return closing


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
def check_dispatch(root) -> List[Finding]:
    """All dispatch-complexity findings for the tree under ``root``."""
    model = build_dispatch_model(root)
    findings: List[Finding] = []
    for qualname in sorted(model.functions):
        info = model.functions[qualname]
        shortname = qualname.split(":", 1)[1]
        for site in info.sites:
            findings.extend(_site_findings(
                info.file, shortname, site.line, site.loops,
                f"{site.method} dispatched"))
        for call in info.calls:
            targets = [t for t in model.resolve(call.name)
                       if t in model.dispatching]
            if not targets:
                continue
            findings.extend(_site_findings(
                info.file, shortname, call.line, call.loops,
                f"call to {call.name} (which dispatches statements)"))
    for info, call in _recursive_calls(model):
        findings.append(make_finding(
            "unbounded-loop-dispatch", info.file, call.line,
            f"{info.qualname.split(':', 1)[1]}: call to {call.name} "
            f"closes a recursion through dispatching functions with no "
            f"static bound"))
    return findings


def _site_findings(file: str, function: str, line: int,
                   loops: Tuple[LoopCtx, ...], what: str) -> List[Finding]:
    data_loops = [l for l in loops if not l.bounded and l.kind != "while"]
    while_loops = [l for l in loops if not l.bounded and l.kind == "while"]
    if data_loops:
        return [make_finding(
            "per-row-dispatch", file, line,
            f"{function}: {what} per iteration of a data-dependent "
            f"{data_loops[0].kind} loop; hoist into executemany or one "
            f"set-oriented statement")]
    if while_loops:
        return [make_finding(
            "unbounded-loop-dispatch", file, line,
            f"{function}: {what} inside a while loop with no static "
            f"bound")]
    return []
