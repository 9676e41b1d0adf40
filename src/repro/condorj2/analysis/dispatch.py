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

Loops are **bounded** (contribute nothing to complexity) when they
iterate a literal, a ``range()`` of constants, a name in
``schema.BOUNDED_ITERABLES`` (schema/contract declarations whose
cardinality is fixed at import time — reachable through ``.items()``/
``sorted()``-style wrappers and single local rebindings), or when the
loop header carries a ``# dispatch: bounded`` pragma (the escape hatch
for bounds the analyzer cannot see, e.g. a depth-capped BFS).
Everything else is data-dependent.  A memoized walk over the call graph
then assigns every function a complexity class on the lattice

    O(1)  <  O(n)  <  O(n·m)  <  unknown-recursion

(depth saturates at two nested data loops; recursion that can reach a
dispatch is unknown).  Three structural rules fall out:

* ``per-row-dispatch`` (error) — a dispatch (or a call to a dispatching
  function) inside a data-dependent ``for``/comprehension;
* ``unbounded-loop-dispatch`` (warning) — a dispatch inside a ``while``
  with no pragma;
* ``budget-undeclared`` (advice) / ``budget-mismatch`` (error) — the
  static↔runtime bridge: every ``OperationContract`` declares a
  ``statement_budget`` (constant, or affine ``a + b·|batch|``); the
  analyzer parses the declarations out of ``api/contracts.py``, maps
  operations to their handlers through the binding dict in
  ``web/services.py``, and proves each budget's *shape* consistent with
  the handler's complexity class (constant ⇔ O(1), affine ⇔ O(n)).
  The gateway enforces the declared ceiling at runtime on every
  backend (``BudgetExceeded`` faults), so the static claim and the
  observed meter check each other.

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
import re
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
    "DeclaredBudget",
    "build_dispatch_model",
    "budgets_report",
    "check_dispatch",
    "COMPLEXITY_CLASSES",
    "UNKNOWN_RECURSION",
]

#: Simulation drivers: their event loops model wall-clock time, not
#: per-operation work, so they are outside the dispatch-complexity
#: contract (the per-*pass* services they call are what is audited).
_DRIVER_FILES = ("cas.py", "startd.py", "system.py")

#: Method names never resolved through the call graph unless the
#: receiver is literally ``self``: dict/set/list/str methods and the
#: event-log ``record`` would otherwise alias same-named service/bean
#: methods (``event.get`` → ``ConfigService.get``, ``self.log.record``
#: → ``ProvenanceService.record``) and fabricate per-row dispatches.
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

#: The complexity lattice, least to greatest.
UNKNOWN_RECURSION = "unknown-recursion"
COMPLEXITY_CLASSES = ("O(1)", "O(n)", "O(n·m)", UNKNOWN_RECURSION)

#: Loop-header pragma marking a bound the analyzer cannot derive.
_PRAGMA = re.compile(r"#\s*dispatch:\s*bounded\b")


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop: kind, header line and boundedness verdict."""

    kind: str            # 'for' | 'while' | 'comp'
    line: int
    bounded: bool
    reason: str = ""     # 'literal' | 'range' | 'allow-list' | 'pragma'


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


def _data_depth(loops: Tuple[LoopCtx, ...]) -> int:
    """Nested data-dependent loops around a site (saturates later)."""
    return sum(1 for loop in loops if not loop.bounded)


class _DispatchScan(ast.NodeVisitor):
    """Collects one function's dispatch and call sites with loop context.

    The iterable of a ``for`` (and the first generator of a
    comprehension) is evaluated *once*, so it is visited at the current
    depth; only the body runs per iteration.  A ``while`` test runs per
    iteration and is visited inside the loop context.
    """

    def __init__(self, info: DispatchInfo, pragma_lines: Set[int],
                 local_env: Dict[str, ast.expr]):
        self.info = info
        self.pragma_lines = pragma_lines
        self.local_env = local_env
        self._loops: List[LoopCtx] = []

    # -- boundedness ---------------------------------------------------
    def _bounded_reason(self, node: ast.expr, depth: int = 0
                        ) -> Optional[str]:
        """Why ``node`` iterates a statically bounded collection."""
        if depth > 4:
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            return "literal"
        if isinstance(node, ast.Constant):
            return "literal"
        if isinstance(node, ast.Name):
            if node.id in BOUNDED_ITERABLES:
                return "allow-list"
            assigned = self.local_env.get(node.id)
            if assigned is not None:
                return self._bounded_reason(assigned, depth + 1)
            return None
        if isinstance(node, ast.Attribute):
            # schema.TABLE_DEFS, contracts.CONTRACTS, ...
            if node.attr in BOUNDED_ITERABLES:
                return "allow-list"
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "range":
                    if all(isinstance(arg, ast.Constant)
                           for arg in node.args):
                        return "range"
                    return None
                if func.id in _TRANSPARENT_CALLS and node.args:
                    return self._bounded_reason(node.args[0], depth + 1)
                return None
            if isinstance(func, ast.Attribute) \
                    and func.attr in _VIEW_METHODS:
                return self._bounded_reason(func.value, depth + 1)
        return None

    def _classify(self, kind: str, node: ast.stmt,
                  iterable: Optional[ast.expr]) -> LoopCtx:
        if node.lineno in self.pragma_lines:
            return LoopCtx(kind, node.lineno, True, "pragma")
        if iterable is not None:
            reason = self._bounded_reason(iterable)
            if reason is not None:
                return LoopCtx(kind, node.lineno, True, reason)
        return LoopCtx(kind, node.lineno, False)

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
            if node.lineno in self.pragma_lines:
                loop = LoopCtx("comp", node.lineno, True, "pragma")
            else:
                reason = self._bounded_reason(generator.iter)
                loop = LoopCtx("comp", node.lineno, reason is not None,
                               reason or "")
            self._loops.append(loop)
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


def _pragma_lines(source: str) -> Set[int]:
    return {index for index, line in enumerate(source.splitlines(), 1)
            if _PRAGMA.search(line)}


@dataclass
class DispatchModel(FunctionIndex):
    """The scanned tree's functions, call graph and complexity classes."""

    #: Functions that dispatch (directly or through callees).
    dispatching: Set[str] = field(default_factory=set)
    #: qualname -> loop depth (int), UNKNOWN_RECURSION, or None when the
    #: function can reach no dispatch at all.
    depth: Dict[str, object] = field(default_factory=dict)

    def complexity(self, qualname: str) -> str:
        """The function's class on the complexity lattice."""
        value = self.depth.get(qualname)
        if value == UNKNOWN_RECURSION:
            return UNKNOWN_RECURSION
        if value is None or value == 0:
            return "O(1)"
        if value == 1:
            return "O(n)"
        return "O(n·m)"


def build_dispatch_model(root) -> DispatchModel:
    """Collect loop-annotated sites and classify every function;
    ``root`` is a directory or a loaded :class:`SourceTree`."""
    model = DispatchModel()
    for module in SourceTree.of(root).application_modules(
            skip=_DRIVER_FILES):
        pragmas = _pragma_lines(module.source)
        for qualname, node in functions_of(module.tree):
            info = DispatchInfo(qualname=f"{module.rel}:{qualname}",
                                file=module.rel, line=node.lineno)
            scan = _DispatchScan(info, pragmas, _local_assignments(node))
            for statement in node.body:
                scan.visit(statement)
            model.add(info)
    _dispatching_fixpoint(model)
    _depth_walk(model)
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


def _depth_walk(model: DispatchModel) -> None:
    """Memoized DFS assigning every function its loop depth.

    A callee's dispatches inherit the call site's loop context; depth
    saturates at 2 (O(n·m) is the lattice top below recursion).  A
    cycle through a dispatching function is ``unknown-recursion``, which
    propagates to every caller that can reach it.
    """
    on_stack: Set[str] = set()

    def walk(qualname: str):
        if qualname in model.depth:
            return model.depth[qualname]
        if qualname in on_stack:
            # Cycle: the caller handles the verdict.
            return UNKNOWN_RECURSION if qualname in model.dispatching \
                else None
        on_stack.add(qualname)
        info = model.functions[qualname]
        depth: Optional[int] = None
        unknown = False
        for site in info.sites:
            depth = max(depth or 0, min(2, _data_depth(site.loops)))
        for call in info.calls:
            for target in model.resolve(call.name):
                if target == qualname or target in on_stack:
                    if target in model.dispatching:
                        unknown = True
                    continue
                below = walk(target)
                if below == UNKNOWN_RECURSION:
                    unknown = True
                elif below is not None:
                    depth = max(depth or 0,
                                min(2, _data_depth(call.loops) + below))
        on_stack.discard(qualname)
        result = UNKNOWN_RECURSION if unknown else depth
        model.depth[qualname] = result
        return result

    for qualname in model.functions:
        walk(qualname)


# ----------------------------------------------------------------------
# declared budgets (static view of api/contracts.py)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeclaredBudget:
    """One contract's declared budget, as read from the source tree.

    ``base`` is None when the contract declares no budget at all.
    """

    operation: str
    line: int
    base: Optional[int] = None
    per_item: int = 0
    batch_field: Optional[str] = None

    @property
    def declared(self) -> bool:
        return self.base is not None

    def render(self) -> str:
        if not self.declared:
            return "(undeclared)"
        if not self.per_item:
            return str(self.base)
        return f"{self.base} + {self.per_item}·|{self.batch_field}|"


def _const(node: Optional[ast.expr], default=None):
    if isinstance(node, ast.Constant):
        return node.value
    return default


def read_declared_budgets(root) -> List[DeclaredBudget]:
    """The per-operation budget declarations in ``api/contracts.py``.

    Reads the *scanned tree*, not the installed package, so seeded-
    mutation tests and out-of-tree roots behave like the real gate.
    """
    module = SourceTree.of(root).module("api/contracts.py")
    if module is None:
        return []
    tree = module.tree
    budgets: List[DeclaredBudget] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_contract", "OperationContract")):
            continue
        name = None
        if node.args:
            name = _const(node.args[0])
        for keyword in node.keywords:
            if keyword.arg == "name":
                name = _const(keyword.value, name)
        if not isinstance(name, str):
            continue
        declared = None
        for keyword in node.keywords:
            if keyword.arg == "statement_budget":
                declared = keyword.value
        if declared is None or _const(declared) is None and not isinstance(
                declared, ast.Call):
            budgets.append(DeclaredBudget(operation=name, line=node.lineno))
            continue
        base = per_item = batch_field = None
        if isinstance(declared, ast.Call):
            args = list(declared.args)
            base = _const(args[0]) if args else None
            per_item = _const(args[1]) if len(args) > 1 else None
            batch_field = _const(args[2]) if len(args) > 2 else None
            for keyword in declared.keywords:
                if keyword.arg == "base":
                    base = _const(keyword.value)
                elif keyword.arg == "per_item":
                    per_item = _const(keyword.value)
                elif keyword.arg == "batch_field":
                    batch_field = _const(keyword.value)
        if not isinstance(base, int):
            budgets.append(DeclaredBudget(operation=name, line=node.lineno))
            continue
        budgets.append(DeclaredBudget(
            operation=name, line=declared.lineno, base=base,
            per_item=per_item if isinstance(per_item, int) else 0,
            batch_field=batch_field if isinstance(batch_field, str) else None,
        ))
    return budgets


def _handler_map(root) -> Dict[str, str]:
    """operation -> handler method name, from the binding dict literal
    in ``web/services.py`` (``{"heartbeat": self._op_heartbeat, ...}``).
    """
    module = SourceTree.of(root).module("web/services.py")
    if module is None:
        return {}
    tree = module.tree
    best: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        mapping: Dict[str, str] = {}
        for key, value in zip(node.keys, node.values):
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"):
                mapping[key.value] = value.attr
        if len(mapping) == len(node.keys) and len(mapping) > len(best):
            best = mapping
    return best


def _worst_complexity(model: DispatchModel, candidates: List[str]) -> str:
    rank = {cls: index for index, cls in enumerate(COMPLEXITY_CLASSES)}
    worst = "O(1)"
    for qualname in candidates:
        cls = model.complexity(qualname)
        if rank[cls] > rank[worst]:
            worst = cls
    return worst


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
def check_dispatch(root) -> List[Finding]:
    """All dispatch-complexity findings for the tree under ``root``."""
    root = SourceTree.of(root)
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
    findings.extend(_budget_findings(root, model))
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
            f"bound; add a '# dispatch: bounded' pragma if the bound "
            f"is real but invisible")]
    return []


def _budget_findings(root: SourceTree,
                     model: DispatchModel) -> List[Finding]:
    budgets = read_declared_budgets(root)
    if not budgets:
        return []
    file = "api/contracts.py"
    handlers = _handler_map(root)
    findings: List[Finding] = []
    for budget in budgets:
        if not budget.declared:
            findings.append(make_finding(
                "budget-undeclared", file, budget.line,
                f"{budget.operation}: operation contract declares no "
                f"statement_budget"))
            continue
        attr = handlers.get(budget.operation)
        if attr is None:
            continue
        candidates = model.resolve(attr)
        if not candidates:
            continue
        complexity = _worst_complexity(model, candidates)
        if complexity == UNKNOWN_RECURSION:
            findings.append(make_finding(
                "budget-mismatch", file, budget.line,
                f"{budget.operation}: handler dispatch complexity is "
                f"{UNKNOWN_RECURSION}; no finite budget can be proven"))
        elif budget.per_item == 0 and complexity != "O(1)":
            findings.append(make_finding(
                "budget-mismatch", file, budget.line,
                f"{budget.operation}: constant budget "
                f"{budget.render()} but the handler dispatches "
                f"{complexity} statements"))
        elif budget.per_item > 0 and complexity == "O(1)":
            findings.append(make_finding(
                "budget-mismatch", file, budget.line,
                f"{budget.operation}: affine budget {budget.render()} "
                f"but the handler's dispatch count is constant "
                f"(declare the tight constant budget instead)"))
    return findings


# ----------------------------------------------------------------------
# the budgets report (cli --report budgets)
# ----------------------------------------------------------------------
def budgets_report(root) -> Dict[str, object]:
    """The declared-vs-derived budget document, one entry per operation.

    ``consistent`` is True when the budget's shape matches the handler's
    complexity class, False when it does not, and None when the budget
    or the handler could not be resolved statically.
    """
    root = SourceTree.of(root)
    model = build_dispatch_model(root)
    handlers = _handler_map(root)
    operations: List[Dict[str, object]] = []
    for budget in sorted(read_declared_budgets(root),
                         key=lambda b: b.operation):
        attr = handlers.get(budget.operation)
        candidates = model.resolve(attr) if attr else []
        complexity = _worst_complexity(model, candidates) \
            if candidates else None
        consistent: Optional[bool] = None
        if budget.declared and complexity is not None:
            if complexity == UNKNOWN_RECURSION:
                consistent = False
            elif budget.per_item == 0:
                consistent = complexity == "O(1)"
            else:
                consistent = complexity == "O(n)"
        operations.append({
            "operation": budget.operation,
            "budget": (
                {"base": budget.base, "per_item": budget.per_item,
                 "batch_field": budget.batch_field}
                if budget.declared else None
            ),
            "declared": budget.render(),
            "handler": candidates[0] if candidates else None,
            "complexity": complexity,
            "consistent": consistent,
        })
    functions = {
        qualname: {
            "complexity": model.complexity(qualname),
            "dispatch_sites": len(info.sites),
        }
        for qualname, info in sorted(model.functions.items())
        if info.sites
    }
    return {
        "version": 1,
        "root": str(root.root),
        "operations": operations,
        "dispatching_functions": functions,
    }
