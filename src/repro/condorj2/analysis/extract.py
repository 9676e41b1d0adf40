"""Static extraction of the SQL corpus from Python sources.

The daemons talk to the store exclusively through the execute family
(``execute``/``executemany``/``query_all``/``query_one``/``scalar``), so
the corpus is recovered by walking each module's AST and resolving the
first argument of every such call into a :class:`SqlTemplate` — a
sequence of constant text parts and :class:`Slot` interpolation points.

Resolution follows the shapes the codebase actually uses:

* plain string constants (adjacent literals fold into one constant),
* f-strings, whose interpolations become slots classified by the
  identifier allow-list (``table``) — anything else is a *value* slot,
  the injection signal,
* ``+`` concatenation of resolvable pieces,
* names bound by a single assignment in the enclosing function or at
  module scope (``MATCH_INSERT_SQL``); a name that is assigned twice or
  grown by ``sql += ...`` is not resolved.

Calls whose first argument cannot be resolved are *skipped*, not
flagged: the storage layer forwards SQL through variables
(``self._conn.execute(sql, ...)``) and those texts are extracted at the
original call site instead.  A resolved template only enters the corpus
if its leading constant text starts with a dialect verb, which excludes
``BEGIN``/``PRAGMA`` plumbing and diagnostic wrappers like
``f"EXPLAIN QUERY PLAN {sql}"``.

Identifier templates are *rendered* into concrete statements the checker
can parse: the ``table`` slot renders once per schema table.  The one
such template is ``Database.table_count``; every other statement the
services send is written out as a constant.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.condorj2 import schema
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.analysis.source import EXECUTE_METHODS, SourceTree

#: A template is SQL only if its leading constant text starts with one
#: of the dialect's verbs.
DIALECT_VERBS = ("SELECT", "INSERT", "UPDATE", "DELETE", "WITH")

#: Substrings that mark a string literal as SQL-bearing, for the
#: injection rule (which scans *all* f-strings, not just call sites).
SQL_MARKERS = (
    "SELECT ", "INSERT ", "UPDATE ", "DELETE ",
    " FROM ", " WHERE ", " VALUES ",
)

#: Allow-listed f-string interpolations and what they interpolate:
#: ``table`` renders once per schema table.
SLOT_CATEGORIES: Dict[str, str] = {"table": "table"}

#: Files allowed to interpolate extra expressions into SQL-looking
#: strings, keyed by path suffix.  The parser builds error messages from
#: token text; that is diagnostics, not statement construction.
ALLOWED_BY_FILE_SUFFIX: Dict[str, Set[str]] = {
    "storage/sqlparser.py": {
        "self.sql", "self.peek().value", "token.value"
    },
    # The ledger's trigger DDL is built from LifecycleDef table/column
    # names — a schema-bounded identifier set, never a value.
    "schema.py": {"column"},
    # Finding messages quote lifecycle table/column names; that is
    # diagnostics, not statement construction.
    "analysis/lifecycle.py": {"lifecycle.table", "lifecycle.column"},
}

#: Categories the renderer knows how to substitute.
_RENDERABLE = set(SLOT_CATEGORIES.values())


@dataclass(frozen=True)
class Slot:
    """One interpolation point in a template."""

    expr: str      # source text of the interpolated expression
    category: str  # a SLOT_CATEGORIES value, or "value" if not allowed


@dataclass
class SqlTemplate:
    """Constant text parts interleaved with slots."""

    parts: Tuple[Union[str, Slot], ...]

    @property
    def constant(self) -> bool:
        return all(isinstance(part, str) for part in self.parts)

    @property
    def slots(self) -> List[Slot]:
        return [part for part in self.parts if isinstance(part, Slot)]

    @property
    def text(self) -> str:
        """Template text with slots shown as ``{expr}``."""
        return "".join(
            part if isinstance(part, str) else "{%s}" % part.expr
            for part in self.parts
        )

    @property
    def leading_text(self) -> str:
        return self.parts[0] if self.parts and isinstance(
            self.parts[0], str) else ""


@dataclass
class ExtractedStatement:
    """One SQL-bearing call site."""

    file: str
    line: int
    method: str
    template: SqlTemplate
    #: Concrete statement texts the checker validates (the constant text
    #: itself, or one render per table for an identifier template;
    #: empty when the template has value slots).
    renders: List[str] = field(default_factory=list)
    #: Named parameter keys at the call site, if a dict literal.
    named: Optional[Tuple[str, ...]] = None

    @property
    def constant(self) -> bool:
        return self.template.constant

    def coverage_pattern(self) -> "re.Pattern[str]":
        pieces = []
        for part in self.template.parts:
            if isinstance(part, str):
                pieces.append(re.escape(part))
            else:
                pieces.append(r".+?")
        return re.compile("^" + "".join(pieces) + "$", re.DOTALL)


@dataclass
class Corpus:
    """Everything extraction recovered from a tree."""

    root: Path
    statements: List[ExtractedStatement] = field(default_factory=list)
    #: Findings produced at extraction time (dynamic/templated SQL and
    #: the f-string injection rule).
    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    def covers(self, sql: str) -> Optional[ExtractedStatement]:
        """The extracted statement accounting for a runtime text."""
        for statement in self.statements:
            if statement.constant and statement.renders and \
                    statement.renders[0] == sql:
                return statement
        for statement in self.statements:
            if sql in statement.renders:
                return statement
        for statement in self.statements:
            if not statement.constant and \
                    statement.coverage_pattern().match(sql):
                return statement
        return None


def _is_sql_text(text: str) -> bool:
    return any(marker in text for marker in SQL_MARKERS)


def _starts_with_verb(text: str) -> bool:
    words = text.split(None, 1)
    return bool(words) and words[0].upper() in DIALECT_VERBS


def _allowed_for(rel: str) -> Set[str]:
    allowed = set(SLOT_CATEGORIES)
    for suffix, extra in ALLOWED_BY_FILE_SUFFIX.items():
        if rel.endswith(suffix) or Path(rel).as_posix().endswith(suffix):
            allowed |= extra
    return allowed


# ----------------------------------------------------------------------
# template resolution
# ----------------------------------------------------------------------

class _ModuleExtractor:
    def __init__(self, tree: ast.Module, rel: str):
        self.tree = tree
        self.rel = rel
        self.allowed = _allowed_for(rel)
        self.module_env = self._collect_assigns(tree, module_level=True)
        self.statements: List[ExtractedStatement] = []
        self.findings: List[Finding] = []

    # -- name environments ---------------------------------------------
    @staticmethod
    def _collect_assigns(scope: ast.AST, module_level: bool = False
                         ) -> Dict[str, List[ast.AST]]:
        """name -> list of assigned value nodes (an AugAssign as itself:
        it makes the name a second assignment, hence unresolvable)."""
        env: Dict[str, List[ast.AST]] = {}
        nodes = scope.body if module_level else list(ast.walk(scope))
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                env.setdefault(node.targets[0].id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and isinstance(node.target, ast.Name):
                env.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Name):
                env.setdefault(node.target.id, []).append(node)
        return env

    def _lookup(self, name: str, local_env: Dict[str, List[ast.AST]]
                ) -> Optional[ast.AST]:
        """Resolve a name to its single assignment, innermost scope
        first; None when it has several (``sql += ...`` is one more)."""
        for env in (local_env, self.module_env):
            if name in env:
                nodes = env[name]
                single = len(nodes) == 1 and not isinstance(
                    nodes[0], ast.AugAssign)
                return nodes[0] if single else None
        return None

    def _resolve_template(self, node: ast.AST,
                          local_env: Dict[str, List[ast.AST]],
                          seen: Optional[Set[int]] = None
                          ) -> Optional[SqlTemplate]:
        """Resolve an expression into a template, or None if opaque."""
        if seen is None:
            seen = set()
        if id(node) in seen:
            return None
        seen.add(id(node))

        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return SqlTemplate(parts=(node.value,))
        if isinstance(node, ast.JoinedStr):
            parts: List[Union[str, Slot]] = []
            for value in node.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                elif isinstance(value, ast.FormattedValue):
                    expr = ast.unparse(value.value)
                    category = SLOT_CATEGORIES.get(expr, "value")
                    parts.append(Slot(expr=expr, category=category))
            return SqlTemplate(parts=_fold(parts))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self._resolve_template(node.left, local_env, seen)
            right = self._resolve_template(node.right, local_env, seen)
            if left is None or right is None:
                return None
            return SqlTemplate(
                parts=_fold(list(left.parts) + list(right.parts)))
        if isinstance(node, ast.Name):
            value = self._lookup(node.id, local_env)
            if value is not None:
                return self._resolve_template(value, local_env, seen)
        return None

    # -- call-site parameters ------------------------------------------
    def _named_keys(self, call: ast.Call, method: str,
                    local_env: Dict[str, List[ast.AST]]
                    ) -> Optional[Tuple[str, ...]]:
        """The keys of a dict-literal parameter argument, else None."""
        if method == "executemany" or len(call.args) < 2:
            return None
        node = call.args[1]
        if isinstance(node, ast.Name):
            node = self._lookup(node.id, local_env)
        if not isinstance(node, ast.Dict) or not all(
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                for key in node.keys):
            return None
        return tuple(key.value for key in node.keys)

    # -- rendering ------------------------------------------------------
    @staticmethod
    def _render(template: SqlTemplate) -> List[str]:
        if template.constant:
            return ["".join(template.parts)]
        if not {slot.category for slot in template.slots} <= _RENDERABLE:
            return []
        return [
            "".join(part if isinstance(part, str) else table
                    for part in template.parts)
            for table in schema.TABLES
        ]

    # -- walking --------------------------------------------------------
    def run(self) -> None:
        self._visit_body(self.tree.body, func=None)
        self._injection_scan()

    def _visit_body(self, body: Sequence[ast.stmt],
                    func: Optional[ast.AST]) -> None:
        for statement in body:
            self._visit_stmt(statement, func)

    def _visit_stmt(self, node: ast.stmt, func: Optional[ast.AST]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_body(node.body, func=node)
            return
        if isinstance(node, ast.ClassDef):
            self._visit_body(node.body, func=func)
            return
        local_env = self._collect_assigns(func) if func is not None else {}
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._visit_call(child, local_env)

    def _visit_call(self, call: ast.Call,
                    local_env: Dict[str, List[ast.AST]]) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        if method not in EXECUTE_METHODS or not call.args:
            return
        template = self._resolve_template(call.args[0], local_env)
        if template is None:
            return
        if not _starts_with_verb(template.leading_text):
            return
        statement = ExtractedStatement(
            file=self.rel,
            line=call.lineno,
            method=method,
            template=template,
            renders=self._render(template),
            named=self._named_keys(call, method, local_env),
        )
        self.statements.append(statement)
        if not template.constant:
            categories = {slot.category for slot in template.slots}
            if categories <= _RENDERABLE:
                self.findings.append(make_finding(
                    "templated-sql", self.rel, call.lineno,
                    "identifier template: " + _one_line(template.text),
                    statement=template.text,
                ))
            else:
                self.findings.append(make_finding(
                    "dynamic-sql", self.rel, call.lineno,
                    "non-constant SQL text: " + _one_line(template.text),
                    statement=template.text,
                ))

    # -- injection rule -------------------------------------------------
    def _injection_scan(self) -> None:
        """The f-string value-interpolation rule.

        Unlike extraction this scans *every* f-string whose constant
        text looks like SQL, whether or not it reaches an execute call
        in this module — building an injectable string is the defect,
        not executing it here.
        """
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.JoinedStr):
                continue
            text = "".join(
                str(value.value) for value in node.values
                if isinstance(value, ast.Constant)
            )
            if not _is_sql_text(text):
                continue
            offending = [
                ast.unparse(value.value)
                for value in node.values
                if isinstance(value, ast.FormattedValue)
                and ast.unparse(value.value) not in self.allowed
            ]
            for expr in offending:
                self.findings.append(make_finding(
                    "fstring-value-interpolation", self.rel, node.lineno,
                    f"expression {expr!r} interpolated into SQL text",
                    statement=_one_line(text),
                ))


def _fold(parts: Sequence[Union[str, Slot]]) -> Tuple[Union[str, Slot], ...]:
    """Merge adjacent constant parts."""
    folded: List[Union[str, Slot]] = []
    for part in parts:
        if isinstance(part, str) and folded and isinstance(folded[-1], str):
            folded[-1] = folded[-1] + part
        else:
            folded.append(part)
    return tuple(folded)


def _one_line(text: str, limit: int = 120) -> str:
    squeezed = " ".join(text.split())
    return squeezed if len(squeezed) <= limit else squeezed[:limit] + "..."


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def extract_corpus(root) -> Corpus:
    """Extract the full SQL corpus beneath ``root`` (a directory or a
    loaded :class:`SourceTree`).

    File provenance is reported relative to ``root`` so baselines do not
    depend on where the tree is checked out.
    """
    source = SourceTree.of(root)
    corpus = Corpus(root=source.root)
    corpus.files_scanned = len(source.modules)
    for module in source.modules:
        extractor = _ModuleExtractor(module.tree, module.rel)
        extractor.run()
        corpus.statements.extend(extractor.statements)
        corpus.findings.extend(extractor.findings)
    return corpus
