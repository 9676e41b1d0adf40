"""Transaction-boundary tier: interprocedural dataflow over the services.

The paper's footnote 7 — "ensuring that the job queue manager does not
drop jobs is one reason why job management requires transactions" — is a
property of *call structure*, not of any single statement.  This pass
parses the application layers (``logic/``, ``beans/``, the SOAP
facade, ``startd.py``) with :mod:`ast`, maps every
``execute``/``executemany`` call site to its enclosing
``with …transaction()`` scope, and propagates protection through a
name-based call graph:

* a call site *lexically* inside a ``with …transaction()`` block is
  protected;
* a function is *externally* protected when it has callers and every
  call site is protected (lexically, or because the calling function is
  itself externally protected) — the conservative fixpoint of the
  container's ``REQUIRED`` transaction semantics, where a nested
  :meth:`Database.transaction` joins the outer scope.

Three rules fall out:

* ``txn-unprotected-write`` (error) — a function's unprotected write
  sites (its own, plus writes *exposed* by callees it invokes outside
  any scope) touch two or more distinct tables and the function is not
  externally protected: a crash between the writes leaves the tables
  mutually inconsistent.  Single-table writes are atomic per statement
  and never flagged.
* ``txn-split-transition`` (error) — one function performs a lifecycle
  state write in one transaction scope and companion writes in another
  (or outside any): the transition can commit while its bookkeeping
  does not.
* ``txn-nested`` (warning) — a ``with …transaction()`` lexically nested
  inside another in the same function (the inner scope is a no-op that
  usually signals a misunderstanding), or direct ``begin``/``commit``/
  ``rollback`` calls outside the storage access layer.

Call resolution is deliberately narrow: a method call propagates to
same-named functions in the scanned tree only when its receiver is
``self`` or a simple local name (``machine.record_boot(now)``,
``bean.change_value(...)``).  Calls through attribute chains
(``self.log.record``, ``self._row.update``) are not resolved — that
keeps dict/logger method names from aliasing bean methods, at the cost
of treating such callees as having no callers (which only ever *widens*
the set of functions that must prove their own protection).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.analysis.source import (
    FunctionIndex, SourceTree, functions_of,
)
from repro.condorj2.schema import LIFECYCLES
from repro.condorj2.storage.counters import statement_table, statement_verb
from repro.condorj2.storage.transitions import transition_spec

__all__ = ["TxnModel", "FunctionInfo", "build_txn_model", "check_transactions"]

#: Statement verbs that mutate tables.
_WRITE_VERBS = ("INSERT", "UPDATE", "DELETE", "REPLACE")

#: Placeholder table for templated writes (``UPDATE {self.TABLE} …``):
#: the target is unknown statically, so all such writes share one
#: conservative bucket when counting distinct tables.
DYNAMIC_TABLE = "<dynamic>"


@dataclass(frozen=True)
class WriteSite:
    """One ``execute``/``executemany`` call site that mutates a table."""

    table: str
    verb: str
    line: int
    #: Innermost enclosing ``with …transaction()`` scope id (None when
    #: the write is lexically outside every scope).
    scope: Optional[int]
    #: True when the statement writes a lifecycle state column.
    state_write: bool


@dataclass(frozen=True)
class CallSite:
    """One resolvable method/function call (see module docstring)."""

    name: str
    line: int
    scope: Optional[int]


@dataclass
class FunctionInfo:
    """Everything the fixpoints need to know about one function."""

    qualname: str
    file: str
    line: int
    writes: List[WriteSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: Lines where a transaction scope opens inside another (same fn).
    nested_scopes: List[int] = field(default_factory=list)
    #: Lines of direct ``.begin()``/``.commit()``/``.rollback()`` calls.
    txn_control: List[int] = field(default_factory=list)

    def unprotected_writes(self) -> List[WriteSite]:
        return [w for w in self.writes if w.scope is None]


class _FunctionScan(ast.NodeVisitor):
    """Collects one function's write sites, call sites and scopes."""

    def __init__(self, info: FunctionInfo, constants: Dict[str, str]):
        self.info = info
        self.constants = constants
        self._scope_stack: List[int] = []
        self._next_scope = 0

    # -- scopes --------------------------------------------------------
    @property
    def _scope(self) -> Optional[int]:
        return self._scope_stack[-1] if self._scope_stack else None

    @staticmethod
    def _is_transaction_item(item: ast.withitem) -> bool:
        call = item.context_expr
        return (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "transaction")

    def visit_With(self, node: ast.With) -> None:
        opened = sum(1 for item in node.items
                     if self._is_transaction_item(item))
        for _ in range(opened):
            if self._scope_stack:
                self.info.nested_scopes.append(node.lineno)
            self._scope_stack.append(self._next_scope)
            self._next_scope += 1
        self.generic_visit(node)
        for _ in range(opened):
            self._scope_stack.pop()

    # Nested function definitions get their own FunctionInfo; do not
    # let their bodies leak events into the enclosing function.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    # -- call sites ----------------------------------------------------
    def _sql_text(self, arg: ast.expr) -> Optional[str]:
        """The (possibly templated) SQL text of an execute argument."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return self.constants.get(arg.id)
        if isinstance(arg, ast.JoinedStr):
            parts = []
            for value in arg.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append("{_}")
            return "".join(parts)
        return None

    def _record_execute(self, node: ast.Call) -> None:
        if not node.args:
            return
        sql = self._sql_text(node.args[0])
        if sql is None:
            return
        verb = statement_verb(sql)
        if verb not in _WRITE_VERBS:
            return
        table = statement_table(sql)
        if not table or "{" in table or table == "_":
            table = DYNAMIC_TABLE
        state_write = False
        if table in LIFECYCLES:
            spec = transition_spec(sql)
            state_write = spec is not None and spec.verb == "UPDATE"
        self.info.writes.append(WriteSite(
            table=table, verb=verb, line=node.lineno, scope=self._scope,
            state_write=state_write))

    @staticmethod
    def _resolvable_receiver(func: ast.Attribute) -> bool:
        value = func.value
        return isinstance(value, ast.Name)  # self.m(...) or local.m(...)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("execute", "executemany"):
                self._record_execute(node)
            elif func.attr in ("begin", "commit", "rollback"):
                self.info.txn_control.append(node.lineno)
            elif self._resolvable_receiver(func):
                self.info.calls.append(CallSite(
                    name=func.attr, line=node.lineno, scope=self._scope))
        elif isinstance(func, ast.Name):
            self.info.calls.append(CallSite(
                name=func.id, line=node.lineno, scope=self._scope))
        self.generic_visit(node)


@dataclass
class TxnModel(FunctionIndex):
    """The scanned tree's functions, call graph and fixpoint results."""

    #: qualname -> exposed table set (writes reachable outside scopes).
    exposure: Dict[str, Set[str]] = field(default_factory=dict)
    #: qualname -> externally-protected verdict.
    protected: Dict[str, bool] = field(default_factory=dict)


def _module_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "sql literal"`` bindings."""
    constants: Dict[str, str] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            constants[node.targets[0].id] = node.value.value
    return constants


def build_txn_model(root) -> TxnModel:
    """Scan the application modules and run both interprocedural
    fixpoints; ``root`` is a directory or a loaded :class:`SourceTree`."""
    modules = SourceTree.of(root).application_modules()
    constants: Dict[str, str] = {}
    for module in modules:
        constants.update(_module_constants(module.tree))
    model = TxnModel()
    for module in modules:
        for qualname, node in functions_of(module.tree):
            info = FunctionInfo(qualname=f"{module.rel}:{qualname}",
                                file=module.rel, line=node.lineno)
            scan = _FunctionScan(info, constants)
            for statement in node.body:
                scan.visit(statement)
            model.add(info)
    _exposure_fixpoint(model)
    _protection_fixpoint(model)
    return model


def _exposure_fixpoint(model: TxnModel) -> None:
    """Least fixpoint: tables a call to ``f`` may write with no scope.

    A write lexically inside a scope contributes nothing; an unprotected
    call site contributes the callee's exposure (transitively).
    """
    for qualname, info in model.functions.items():
        model.exposure[qualname] = {
            w.table for w in info.unprotected_writes()}
    changed = True
    while changed:
        changed = False
        for qualname, info in model.functions.items():
            exposed = model.exposure[qualname]
            before = len(exposed)
            for call in info.calls:
                if call.scope is not None:
                    continue
                for target in model.resolve(call.name):
                    exposed |= model.exposure[target]
            if len(exposed) != before:
                changed = True


def _protection_fixpoint(model: TxnModel) -> None:
    """Greatest fixpoint: is every path to ``f`` inside a transaction?

    Start from "every called function is protected" and strip any whose
    call sites include an unprotected site in an unprotected caller;
    functions with no resolvable callers (service entry points) are
    never externally protected.
    """
    callers: Dict[str, List[Tuple[str, Optional[int]]]] = {}
    for qualname, info in model.functions.items():
        for call in info.calls:
            for target in model.resolve(call.name):
                callers.setdefault(target, []).append((qualname, call.scope))
    for qualname in model.functions:
        model.protected[qualname] = qualname in callers
    changed = True
    while changed:
        changed = False
        for qualname, sites in callers.items():
            if not model.protected[qualname]:
                continue
            ok = all(scope is not None or model.protected.get(caller, False)
                     for caller, scope in sites)
            if not ok:
                model.protected[qualname] = False
                changed = True
    return


def check_transactions(root) -> List[Finding]:
    """All transaction-boundary findings for the tree under ``root``."""
    model = build_txn_model(root)
    findings: List[Finding] = []
    for qualname in sorted(model.functions):
        info = model.functions[qualname]
        exposed = model.exposure[qualname]
        if len(exposed) >= 2 and not model.protected[qualname]:
            unprotected = info.unprotected_writes()
            line = unprotected[0].line if unprotected else info.line
            findings.append(make_finding(
                "txn-unprotected-write", info.file, line,
                f"{info.qualname.split(':', 1)[1]}: writes to "
                f"{', '.join(sorted(exposed))} can execute outside any "
                f"transaction scope"))
        scopes = {w.scope for w in info.writes}
        state_writes = [w for w in info.writes if w.state_write]
        if len(scopes) >= 2 and state_writes:
            first = state_writes[0]
            findings.append(make_finding(
                "txn-split-transition", info.file, first.line,
                f"{info.qualname.split(':', 1)[1]}: state transition on "
                f"{first.table} and companion writes span separate "
                f"transaction scopes"))
        for line in info.nested_scopes:
            findings.append(make_finding(
                "txn-nested", info.file, line,
                f"{info.qualname.split(':', 1)[1]}: transaction scope "
                f"lexically nested inside another (the inner scope joins "
                f"the outer and is redundant)"))
        for line in info.txn_control:
            findings.append(make_finding(
                "txn-nested", info.file, line,
                f"{info.qualname.split(':', 1)[1]}: direct engine "
                f"transaction control outside the storage access layer"))
    return findings
