"""Schema-aware validation of extracted SQL statements.

Every render of every extracted statement is parsed with the engines'
own :mod:`sqlparser` and bound against ``schema.TABLE_DEFS``.  What an
engine rejects the first time a statement runs — text outside the
dialect, an unknown table or column, an ambiguous name, an INSERT whose
values miss its columns, a call binding the wrong parameters — is left
to the engines: tier-1's two-way coverage test runs every extracted
statement on SQLite and on the memory engine.  What is checked here is
what runs *silently*:

* NOT NULL coverage — an INSERT omitting a NOT NULL column without a
  default (a zero-row ``INSERT … SELECT`` or an ``OR IGNORE`` never
  says so), or an explicit NULL written to one;
* literal domains — values compared with or written to a
  ``CHECK (col IN (...))`` column must come from the declared domain;
* type affinity — a TEXT column compared against a numeric literal (or
  a numeric column against a non-numeric string) can never match, which
  is an error; a write that affinity would coerce is a warning;
* unused named parameters — a call-site dict key no ``:name`` binds.

A column reference that does not resolve is skipped, not reported, and
so is a source whose output columns are statically unknown (a subquery
selecting ``*`` from another subquery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.condorj2 import schema
from repro.condorj2.analysis.extract import ExtractedStatement
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.storage import sqlparser as sp

#: Virtual columns every ``json_each(...)`` source provides (SQLite's
#: table-valued function contract; the engines implement ``value``).
JSON_EACH_COLUMNS = ("key", "value", "type", "atom", "id", "parent",
                     "fullkey", "path")

_COMPARE_OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
_EQUALITY_OPS = ("=", "==", "!=", "<>")


@dataclass
class _Source:
    """One FROM-clause source, resolved."""

    alias: str
    table: Optional[schema.TableDef]
    #: Output column names; None when statically unknown.
    columns: Optional[Tuple[str, ...]]

    def column(self, name: str) -> Optional[schema.ColumnDef]:
        if self.table is None or name not in (self.columns or ()):
            return None
        return self.table.column(name)


def _table_source(table: schema.TableDef, alias: str) -> _Source:
    return _Source(alias, table, tuple(c.name for c in table.columns))


class _Scope:
    """A select's name-resolution frame, chained to the outer query."""

    def __init__(self, sources: List[_Source], parent: Optional["_Scope"]):
        self.sources = sources
        self.parent = parent


def _resolve(col: sp.Col, scope: Optional[_Scope],
             aliases: FrozenSet[str] = frozenset()
             ) -> Optional[schema.ColumnDef]:
    """The :class:`ColumnDef` a column reference lands on.

    None when it resolves to something without a schema type (subquery
    output, json_each, a select alias in GROUP BY / ORDER BY)
    or does not resolve at all.
    """
    first_frame = True
    while scope is not None:
        if col.table is not None:
            for source in scope.sources:
                if source.alias == col.table:
                    return source.column(col.name)
        else:
            for source in scope.sources:
                if source.columns is not None and col.name in source.columns:
                    return source.column(col.name)
            if any(source.columns is None for source in scope.sources) or (
                    first_frame and col.name in aliases):
                return None
        first_frame = False
        scope = scope.parent
    return None


class _Checker:
    def __init__(self, file: str, line: int, sql: str):
        self.file = file
        self.line = line
        self.sql = sql
        self.findings: List[Finding] = []

    def emit(self, rule: str, message: str) -> None:
        self.findings.append(make_finding(
            rule, self.file, self.line, message, statement=self.sql))

    # -- statement dispatch --------------------------------------------
    def check(self, node) -> None:
        if isinstance(node, sp.Select):
            self._check_select(node, None)
        elif isinstance(node, sp.Insert):
            self._check_insert(node)
        elif isinstance(node, (sp.Update, sp.Delete)):
            table = schema.TABLE_BY_NAME.get(node.table)
            if table is None:
                return
            source = _table_source(table, node.table)
            scope = _Scope([source], None)
            if isinstance(node, sp.Update):
                for name, expr in node.sets:
                    column = source.column(name)
                    if column is not None:
                        self._check_write(table, column, expr)
                    self._check_expr(expr, scope)
            if node.where is not None:
                self._check_expr(node.where, scope)

    # -- SELECT ---------------------------------------------------------
    def _check_select(self, select: sp.Select, parent: Optional[_Scope]
                      ) -> Optional[Tuple[str, ...]]:
        """Check a select; returns its output column names (or None)."""
        sources: List[_Source] = []
        for source in select.sources:
            if source.kind == "table":
                table = schema.TABLE_BY_NAME.get(source.name)
                sources.append(_table_source(table, source.alias)
                               if table is not None
                               else _Source(source.alias, None, None))
            elif source.kind == "json_each":
                sources.append(_Source(
                    source.alias or "json_each", None, JSON_EACH_COLUMNS))
            else:  # subquery
                output = self._check_select(source.subquery, parent)
                sources.append(_Source(source.alias or "", None, output))
        scope = _Scope(sources, parent)

        for source in select.sources:
            if source.kind == "json_each" and source.arg is not None:
                self._check_expr(source.arg, scope)
            if source.on is not None:
                self._check_expr(source.on, scope)

        aliases = set()
        output: Optional[List[str]] = []
        for item in select.items:
            if isinstance(item.expr, sp.Star):
                expanded = _expand_star(item.expr, scope)
                output = (None if output is None or expanded is None
                          else output + expanded)
                continue
            self._check_expr(item.expr, scope)
            if item.alias:
                aliases.add(item.alias)
            if output is not None:
                output.append(item.alias or (
                    item.expr.name if isinstance(item.expr, sp.Col)
                    else item.text))
        alias_set = frozenset(aliases)

        if select.where is not None:
            self._check_expr(select.where, scope)
        for expr in select.group_by:
            self._check_expr(expr, scope, alias_set)
        for expr, _desc in select.order_by:
            self._check_expr(expr, scope, alias_set)
        for bound in (select.limit, select.offset):
            if bound is not None:
                self._check_expr(bound, scope)
        return tuple(output) if output is not None else None

    # -- writes ---------------------------------------------------------
    def _check_insert(self, insert: sp.Insert) -> None:
        table = schema.TABLE_BY_NAME.get(insert.table)
        if table is None:
            return
        covered = set(insert.columns)
        for column in table.columns:
            if (column.not_null and not column.has_default
                    and column.name not in covered
                    and column.name != table.integer_primary_key):
                self.emit("not-null-write",
                          f"insert into {insert.table!r} omits NOT NULL "
                          f"column {column.name!r} (no default)")
        if insert.select is not None:
            self._check_select(insert.select, None)
            written = [item.expr for item in insert.select.items]
        else:
            for expr in insert.values:
                self._check_expr(expr, None)
            written = insert.values
        source = _table_source(table, insert.table)
        for name, expr in zip(insert.columns, written):
            column = source.column(name)
            if column is not None:
                self._check_write(table, column, expr)

    def _check_write(self, table: schema.TableDef,
                     column: schema.ColumnDef, expr) -> None:
        if not isinstance(expr, sp.Lit):
            return
        value = expr.value
        if value is None:
            if column.not_null:
                self.emit("not-null-write",
                          f"NULL written to NOT NULL column "
                          f"{table.name}.{column.name}")
            return
        if column.check_in is not None and isinstance(value, str) and \
                value not in column.check_in:
            self.emit("check-domain",
                      f"value {value!r} written to {table.name}."
                      f"{column.name} is outside its CHECK domain "
                      f"{column.check_in}")
        if _affinity_conflict(column, value):
            self.emit("affinity-write",
                      f"literal {value!r} written to {column.affinity} "
                      f"column {table.name}.{column.name} will be "
                      f"coerced by affinity")

    # -- expressions ----------------------------------------------------
    def _check_expr(self, node, scope: Optional[_Scope],
                    aliases: FrozenSet[str] = frozenset()) -> None:
        for child in sp.children(node, nested=False):
            self._check_expr(child, scope, aliases)
        if isinstance(node, (sp.InSelect, sp.Exists, sp.ScalarSelect)):
            self._check_select(node.select, scope)
        elif isinstance(node, sp.Bin) and node.op in _COMPARE_OPS:
            self._check_comparison(node, scope, aliases)
        elif isinstance(node, sp.InList):
            self._check_domain_inlist(node, scope, aliases)

    def _check_comparison(self, node: sp.Bin, scope, aliases) -> None:
        for column_side, literal_side in (
                (node.left, node.right), (node.right, node.left)):
            column = _column_of(column_side, scope, aliases)
            if column is None or not isinstance(literal_side, sp.Lit):
                continue
            value = literal_side.value
            if value is None:
                continue
            if _affinity_conflict(column, value):
                self.emit("affinity-mismatch",
                          f"comparing {column.affinity} column "
                          f"{column.name!r} with literal {value!r} can "
                          f"never match")
            elif (node.op in _EQUALITY_OPS
                    and column.check_in is not None
                    and isinstance(value, str)
                    and value not in column.check_in):
                self.emit("check-domain",
                          f"literal {value!r} compared with "
                          f"{column.name!r} is outside its CHECK domain "
                          f"{column.check_in}")

    def _check_domain_inlist(self, node: sp.InList, scope, aliases) -> None:
        column = _column_of(node.needle, scope, aliases)
        if column is None:
            return
        for item in node.items:
            if not isinstance(item, sp.Lit):
                continue
            if isinstance(item.value, str) and column.check_in is not None \
                    and item.value not in column.check_in:
                self.emit("check-domain",
                          f"literal {item.value!r} in IN-list for "
                          f"{column.name!r} is outside its CHECK domain "
                          f"{column.check_in}")
            elif item.value is not None and _affinity_conflict(
                    column, item.value):
                self.emit("affinity-mismatch",
                          f"comparing {column.affinity} column "
                          f"{column.name!r} with literal "
                          f"{item.value!r} can never match")


def _expand_star(star: sp.Star, scope: _Scope) -> Optional[List[str]]:
    """The columns ``*`` or ``alias.*`` stands for; None when unknown."""
    columns: List[str] = []
    for source in scope.sources:
        if star.table is None or source.alias == star.table:
            if source.columns is None:
                return None
            columns.extend(source.columns)
    if star.table is not None and not columns:
        return None  # an alias no source has
    return columns


def _column_of(node, scope, aliases) -> Optional[schema.ColumnDef]:
    """The ColumnDef a side of a comparison refers to, if any."""
    return _resolve(node, scope, aliases) if isinstance(node, sp.Col) \
        else None


def _affinity_conflict(column: schema.ColumnDef, value) -> bool:
    """True when affinity conversion cannot reconcile column and value."""
    if isinstance(value, bool) or value is None:
        return False
    if column.affinity in ("INTEGER", "REAL"):
        if isinstance(value, str):
            try:
                float(value)
            except ValueError:
                return True
        return False
    if column.affinity == "TEXT":
        return isinstance(value, (int, float))
    return False


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def check_extracted(statement: ExtractedStatement) -> List[Finding]:
    """All findings for one extracted statement (every render)."""
    findings: List[Finding] = []
    for render in statement.renders:
        try:
            parsed = sp.parse_info(render)
        except sp.SqlSyntaxError:
            continue  # the engines refuse it the first time it runs
        checker = _Checker(statement.file, statement.line, render)
        checker.check(parsed.ast)
        findings.extend(checker.findings)
        if statement.constant and statement.named is not None:
            extra = sorted(set(statement.named) - set(parsed.named_params))
            if extra:
                findings.append(make_finding(
                    "param-extra", statement.file, statement.line,
                    f"call passes unused named parameters {extra}",
                    statement=render))
    return findings
