"""The scanned tree, read and parsed once per run, and its one call graph.

Every tier starts from the same thing — the ``*.py`` files under a root
as :mod:`ast` trees (:class:`SourceTree`).  The two call-graph tiers
(:mod:`txn`, :mod:`dispatch`) also read the same model of what the
application functions do (:class:`FunctionIndex`): one scan records, for
each function above the storage and analysis machinery, every
execute-family dispatch and every resolvable call, each with its
``with …transaction()`` scope and its stack of enclosing loops, plus
nested scopes and direct ``begin``/``commit``/``rollback`` lines.  A
call resolves to the same-named functions in the tree by one rule
(:func:`_resolvable`): ``self.m()`` always; ``local.m()`` and
``self.attr.m()`` unless ``m`` is a common collection/str/logger method
name or ``local`` is an item of a call's result; a bare ``f()`` unless
``f`` is a builtin.  So ``event.get(...)`` and ``set(...)`` never alias
``ConfigService.get``/``set``, ``self.config.set(...)`` does reach
``ConfigService.set``, and ``token.start()`` on each match of a
``finditer`` reaches no ``start`` method of the tree.

Every entry point that takes a ``root`` accepts a directory or an
already loaded :class:`SourceTree`, so one CLI run parses each file once;
:func:`build_function_index` also accepts an index already built.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.condorj2.schema import BOUNDED_ITERABLES

#: Directories/files that *are* the storage and analysis machinery; the
#: call-graph tiers audit the layers above them.
_MACHINERY_PARTS = ("storage", "analysis")
_MACHINERY_FILES = ("database.py",)

#: Methods whose first argument is SQL text: one *dispatch* each,
#: exactly what ``StatementCounts.statements`` meters at runtime.
EXECUTE_METHODS = ("execute", "executemany", "query_all", "query_one",
                   "scalar")

#: Direct engine transaction control.
_TXN_CONTROL = ("begin", "commit", "rollback")

#: Bare-name calls to builtins are never resolved: ``set(...)`` must not
#: alias ``ConfigService.set``.  A builtin's name says nothing about a *method* of that name:
#: ``self.config.set(...)`` is ``ConfigService.set``.
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Method names never resolved unless the receiver is literally
#: ``self``: dict/set/list/str methods and the event-log ``record``
#: would otherwise alias same-named service methods
#: (``event.get`` → ``ConfigService.get``).
_UNRESOLVED_METHODS = frozenset({
    "get", "update", "items", "keys", "values", "append", "extend",
    "insert", "pop", "popitem", "setdefault", "add", "remove", "discard",
    "clear", "copy", "sort", "reverse", "split", "rsplit", "join",
    "strip", "lstrip", "rstrip", "format", "startswith", "endswith",
    "count", "index", "find", "rfind", "partition", "rpartition",
    "lower", "upper", "replace", "record",
})

#: Wrappers through which boundedness is transparent: ``sorted(TABLES)``
#: is as bounded as ``TABLES``.
_TRANSPARENT_CALLS = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "dict", "reversed",
    "enumerate", "iter",
})

#: Dict-view methods through which boundedness is transparent.
_VIEW_METHODS = frozenset({"items", "keys", "values"})


@dataclass(frozen=True)
class Module:
    """One parsed source file; ``rel`` is its posix path under the root,
    so findings and baselines do not depend on the checkout location."""

    rel: str
    source: str
    tree: ast.Module


class SourceTree:
    """Every parseable ``*.py`` beneath ``root``, in path order."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.modules: List[Module] = []
        for path in sorted(self.root.rglob("*.py")):
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError):
                continue
            self.modules.append(Module(
                path.relative_to(self.root).as_posix(), source, tree))

    @classmethod
    def of(cls, root: Union[str, Path, "SourceTree"]) -> "SourceTree":
        return root if isinstance(root, cls) else cls(root)

    def module(self, rel: str) -> Optional[Module]:
        return next((m for m in self.modules if m.rel == rel), None)

    def application_modules(self) -> List[Module]:
        """The modules above the storage/analysis machinery."""
        kept = []
        for module in self.modules:
            path = PurePosixPath(module.rel)
            if any(part in _MACHINERY_PARTS for part in path.parts):
                continue
            if path.name in _MACHINERY_FILES:
                continue
            kept.append(module)
        return kept


def functions_of(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, node) for every function/method in ``tree``."""
    def walk(nodes, prefix):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}"
                yield name, node
                yield from walk(node.body, f"{name}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
    yield from walk(tree.body, "")


@dataclass(frozen=True)
class Loop:
    """One enclosing loop: kind, header line and boundedness verdict."""

    kind: str            # 'for' | 'while' | 'comp'
    line: int
    bounded: bool


@dataclass(frozen=True)
class CallSite:
    """One execute-family dispatch (``name`` is the method) or one
    resolvable call (``name`` is the callee's bare name)."""

    name: str
    line: int
    #: Innermost enclosing ``with …transaction()`` scope id (None when
    #: the call is lexically outside every scope).
    scope: Optional[int]
    loops: Tuple[Loop, ...]


@dataclass
class Function:
    """What the call-graph tiers know about one function."""

    qualname: str
    file: str
    line: int
    dispatches: List[CallSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: Lines where a transaction scope opens inside another (same fn).
    nested_scopes: List[int] = field(default_factory=list)
    #: Lines of direct ``.begin()``/``.commit()``/``.rollback()`` calls.
    txn_control: List[int] = field(default_factory=list)


def _resolvable(func: ast.Attribute, items: FrozenSet[str]) -> bool:
    """May this method call be resolved through the call graph?"""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id == "self" or (func.attr not in _UNRESOLVED_METHODS
                                      and value.id not in items)
    return (isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and func.attr not in _UNRESOLVED_METHODS)


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


def _call_items(node) -> FrozenSet[str]:
    """Names a loop binds to the items of a call's result.

    ``for token in pattern.finditer(text)`` and ``for row in
    db.query_all(...)`` hand out returned data — a match, a row — never
    a collaborator, so a method call on one resolves to nothing.  A loop
    over what the object holds (``for startd in self.startds``) still
    resolves.
    """
    return frozenset(
        target.id
        for child in ast.walk(node)
        if isinstance(child, (ast.For, ast.AsyncFor, ast.comprehension))
        and isinstance(child.iter, ast.Call)
        for target in ast.walk(child.target)
        if isinstance(target, ast.Name))


class FunctionScan(ast.NodeVisitor):
    """Records one function's dispatches and calls with their scope and
    loop stack.

    The iterable of a ``for`` (and the first generator of a
    comprehension) is evaluated *once*, so it is visited at the current
    depth; only the body runs per iteration.  A ``while`` test runs per
    iteration and is visited inside the loop context.  Nested function
    definitions are functions of their own and are not entered.
    """

    def __init__(self, function: Function, local_env: Dict[str, ast.expr],
                 items: FrozenSet[str]):
        self.function = function
        self.local_env = local_env
        self.items = items
        self._scopes: List[int] = []
        self._next_scope = 0
        self._loops: List[Loop] = []

    # -- transaction scopes --------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        opened = sum(
            1 for item in node.items
            if isinstance(item.context_expr, ast.Call)
            and isinstance(item.context_expr.func, ast.Attribute)
            and item.context_expr.func.attr == "transaction")
        for _ in range(opened):
            if self._scopes:
                self.function.nested_scopes.append(node.lineno)
            self._scopes.append(self._next_scope)
            self._next_scope += 1
        self.generic_visit(node)
        del self._scopes[len(self._scopes) - opened:]

    # -- loops -----------------------------------------------------------
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

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)          # evaluated once, current depth
        self._loops.append(Loop("for", node.lineno, self._bounded(node.iter)))
        for statement in node.body:
            self.visit(statement)
        self._loops.pop()
        for statement in node.orelse:  # runs once, after the loop
            self.visit(statement)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self._loops.append(Loop("while", node.lineno, False))
        self.visit(node.test)          # evaluated per iteration
        for statement in node.body:
            self.visit(statement)
        self._loops.pop()
        for statement in node.orelse:
            self.visit(statement)

    def _visit_comprehension(self, node) -> None:
        for index, generator in enumerate(node.generators):
            if index == 0:
                self.visit(generator.iter)  # evaluated once
            self._loops.append(Loop("comp", node.lineno,
                                    self._bounded(generator.iter)))
            if index > 0:
                self.visit(generator.iter)  # re-evaluated per outer item
            for condition in generator.ifs:
                self.visit(condition)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        del self._loops[len(self._loops) - len(node.generators):]

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    # -- calls -----------------------------------------------------------
    def _site(self, name: str, node: ast.Call) -> CallSite:
        scope = self._scopes[-1] if self._scopes else None
        return CallSite(name, node.lineno, scope, tuple(self._loops))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in EXECUTE_METHODS:
                self.function.dispatches.append(self._site(func.attr, node))
            elif func.attr in _TXN_CONTROL:
                self.function.txn_control.append(node.lineno)
            elif _resolvable(func, self.items):
                self.function.calls.append(self._site(func.attr, node))
        elif isinstance(func, ast.Name) and func.id not in _BUILTIN_NAMES:
            self.function.calls.append(self._site(func.id, node))
        self.generic_visit(node)


@dataclass
class FunctionIndex:
    """The application functions by ``file:qualname``, plus the
    bare-name index calls resolve through: the one call graph both
    call-graph tiers read."""

    functions: Dict[str, Function] = field(default_factory=dict)
    #: Bare name -> qualnames defining it.
    by_name: Dict[str, List[str]] = field(default_factory=dict)

    def add(self, function: Function) -> None:
        self.functions[function.qualname] = function
        bare = function.qualname.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
        self.by_name.setdefault(bare, []).append(function.qualname)

    def resolve(self, name: str) -> List[str]:
        return self.by_name.get(name, [])


def build_function_index(root) -> FunctionIndex:
    """Scan every function of the application modules under ``root``
    (a directory, a loaded :class:`SourceTree`, or an index already
    built, which is returned as it is)."""
    if isinstance(root, FunctionIndex):
        return root
    index = FunctionIndex()
    for module in SourceTree.of(root).application_modules():
        for qualname, node in functions_of(module.tree):
            function = Function(f"{module.rel}:{qualname}", module.rel,
                                node.lineno)
            scan = FunctionScan(function, _local_assignments(node),
                                _call_items(node))
            for statement in node.body:
                scan.visit(statement)
            index.add(function)
    return index
