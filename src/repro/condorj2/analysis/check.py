"""Schema-aware validation of extracted SQL statements.

Every render of every extracted statement is parsed with the engines'
own :mod:`sqlparser` (so "the analyzer accepts it" and "the engines
execute it" are the same judgement) and then bound against
``schema.TABLE_DEFS``:

* name resolution — tables must exist, columns must be provided by an
  in-scope source (table, subquery output list, ``json_each`` virtual
  columns, or — in GROUP BY / HAVING / ORDER BY — a select-item alias),
  with proper scoping for correlated subqueries;
* write shape — INSERT column/value arity, NOT NULL coverage (a column
  with a default, or the rowid-aliasing INTEGER PRIMARY KEY, is not
  required), explicit NULLs into NOT NULL columns;
* literal domains — values compared with or written to a
  ``CHECK (col IN (...))`` column must come from the declared domain;
* type affinity — a TEXT column compared against a numeric literal (or
  a numeric column against a non-numeric string) can never match, which
  is an error; a write that affinity would coerce is a warning;
* bind surface — the statement's placeholder count and named-parameter
  set must match what the call site actually passes.

The binder is deliberately conservative: a source with an *unknown*
output column set (a subquery selecting ``*`` from another subquery)
suppresses unknown-column findings inside that scope rather than
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.condorj2 import schema
from repro.condorj2.analysis import advisor
from repro.condorj2.analysis.extract import ExtractedStatement
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.storage import sqlparser as sp

#: Virtual columns every ``json_each(...)`` source provides (SQLite's
#: table-valued function contract; the engines implement ``value``).
JSON_EACH_COLUMNS = ("key", "value", "type", "atom", "id", "parent",
                     "fullkey", "path")

_COMPARE_OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
_EQUALITY_OPS = ("=", "==", "!=", "<>")


class Catalog:
    """The schema the checker binds against."""

    def __init__(self, table_defs: Sequence[schema.TableDef] = schema.TABLE_DEFS):
        self.tables = {table.name: table for table in table_defs}

    def table(self, name: str) -> Optional[schema.TableDef]:
        return self.tables.get(name)


@dataclass
class _Source:
    """One FROM-clause source, resolved."""

    alias: str
    table: Optional[schema.TableDef]
    #: Output column names; None when statically unknown.
    columns: Optional[Tuple[str, ...]]


class _Scope:
    """A select's name-resolution frame, chained to the outer query."""

    def __init__(self, sources: List[_Source], parent: Optional["_Scope"]):
        self.sources = sources
        self.parent = parent


class _Checker:
    def __init__(self, catalog: Catalog, file: str, line: int, sql: str):
        self.catalog = catalog
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
        elif isinstance(node, sp.Update):
            self._check_update(node)
        elif isinstance(node, sp.Delete):
            self._check_delete(node)

    # -- name resolution ------------------------------------------------
    def _resolve(self, col: sp.Col, scope: Optional[_Scope],
                 aliases: FrozenSet[str] = frozenset()
                 ) -> Optional[schema.ColumnDef]:
        """Resolve a column reference; emits findings on failure.

        Returns the :class:`ColumnDef` when the reference lands on a
        real table column, None when it resolves to something without a
        schema type (subquery output, json_each, select alias) or does
        not resolve at all.
        """
        if col.table is not None:
            frame = scope
            while frame is not None:
                for source in frame.sources:
                    if source.alias == col.table:
                        if source.columns is None:
                            return None
                        if col.name in source.columns:
                            if source.table is not None:
                                return source.table.column(col.name)
                            return None
                        self.emit("unknown-column",
                                  f"no column {col.name!r} in "
                                  f"{source.alias!r}")
                        return None
                frame = frame.parent
            self.emit("unknown-table",
                      f"unknown table or alias {col.table!r}")
            return None

        first_frame = True
        frame = scope
        while frame is not None:
            matches = [s for s in frame.sources
                       if s.columns is not None and col.name in s.columns]
            unknowns = [s for s in frame.sources if s.columns is None]
            if len(matches) > 1:
                self.emit("ambiguous-column",
                          f"column {col.name!r} matches "
                          f"{', '.join(s.alias for s in matches)}")
                matches = matches[:1]
            if matches:
                source = matches[0]
                if source.table is not None:
                    return source.table.column(col.name)
                return None
            if unknowns:
                return None
            if first_frame and col.name in aliases:
                return None
            first_frame = False
            frame = frame.parent
        self.emit("unknown-column", f"unknown column {col.name!r}")
        return None

    # -- SELECT ---------------------------------------------------------
    def _check_select(self, select: sp.Select, parent: Optional[_Scope]
                      ) -> Optional[Tuple[str, ...]]:
        """Bind a select; returns its output column names (or None)."""
        sources: List[_Source] = []
        for source in select.sources:
            if source.kind == "table":
                table = self.catalog.table(source.name)
                if table is None:
                    self.emit("unknown-table",
                              f"unknown table {source.name!r}")
                    sources.append(_Source(source.alias, None, None))
                else:
                    sources.append(_Source(
                        source.alias, table,
                        tuple(c.name for c in table.columns)))
            elif source.kind == "json_each":
                sources.append(_Source(
                    source.alias or "json_each", None, JSON_EACH_COLUMNS))
            else:  # subquery
                output = self._check_select(source.subquery, parent)
                sources.append(_Source(
                    source.alias or "", None, output))
        scope = _Scope(sources, parent)

        for source in select.sources:
            if source.kind == "json_each" and source.arg is not None:
                self._check_expr(source.arg, scope)
            if source.on is not None:
                self._check_expr(source.on, scope)

        aliases = set()
        output: List[str] = []
        output_known = True
        for item in select.items:
            if isinstance(item.expr, sp.Star):
                expanded = self._expand_star(item.expr, scope)
                if expanded is None:
                    output_known = False
                else:
                    output.extend(expanded)
                continue
            self._check_expr(item.expr, scope)
            if item.alias:
                aliases.add(item.alias)
                output.append(item.alias)
            elif isinstance(item.expr, sp.Col):
                output.append(item.expr.name)
            else:
                output.append(item.text)
        alias_set = frozenset(aliases)

        if select.where is not None:
            self._check_expr(select.where, scope)
        for expr in select.group_by:
            self._check_expr(expr, scope, alias_set)
        if select.having is not None:
            self._check_expr(select.having, scope, alias_set)
        for expr, _desc in select.order_by:
            self._check_expr(expr, scope, alias_set)
        if select.limit is not None:
            self._check_expr(select.limit, scope)
        return tuple(output) if output_known else None

    def _expand_star(self, star: sp.Star, scope: _Scope
                     ) -> Optional[List[str]]:
        if star.table is not None:
            for source in scope.sources:
                if source.alias == star.table:
                    return list(source.columns) if source.columns else None
            self.emit("unknown-table",
                      f"unknown table or alias {star.table!r}")
            return None
        columns: List[str] = []
        for source in scope.sources:
            if source.columns is None:
                return None
            columns.extend(source.columns)
        return columns

    # -- writes ---------------------------------------------------------
    def _check_insert(self, insert: sp.Insert) -> None:
        table = self.catalog.table(insert.table)
        if table is None:
            self.emit("unknown-table", f"unknown table {insert.table!r}")
            return
        known = {column.name for column in table.columns}
        for name in insert.columns:
            if name not in known:
                self.emit("unknown-column",
                          f"no column {name!r} in {insert.table!r}")
        covered = set(insert.columns)
        for column in table.columns:
            if (column.not_null and not column.has_default
                    and column.name not in covered
                    and column.name != table.integer_primary_key):
                self.emit("not-null-write",
                          f"insert into {insert.table!r} omits NOT NULL "
                          f"column {column.name!r} (no default)")

        if insert.values is not None:
            if len(insert.values) != len(insert.columns):
                self.emit("insert-arity",
                          f"insert into {insert.table!r} lists "
                          f"{len(insert.columns)} columns but "
                          f"{len(insert.values)} values")
            for name, expr in zip(insert.columns, insert.values):
                self._check_expr(expr, None)
                if name in known:
                    self._check_write(table, table.column(name), expr)
        if insert.select is not None:
            output = self._check_select(insert.select, None)
            if output is not None and len(output) != len(insert.columns):
                self.emit("insert-arity",
                          f"insert into {insert.table!r} lists "
                          f"{len(insert.columns)} columns but its "
                          f"select produces {len(output)}")
            for name, item in zip(insert.columns, insert.select.items):
                if name in known and isinstance(item.expr, sp.Lit):
                    self._check_write(table, table.column(name), item.expr)

    def _table_scope(self, table: schema.TableDef, alias: str) -> _Scope:
        return _Scope([_Source(alias, table,
                               tuple(c.name for c in table.columns))], None)

    def _check_update(self, update: sp.Update) -> None:
        table = self.catalog.table(update.table)
        if table is None:
            self.emit("unknown-table", f"unknown table {update.table!r}")
            return
        scope = self._table_scope(table, update.table)
        known = {column.name for column in table.columns}
        for name, expr in update.sets:
            if name not in known:
                self.emit("unknown-column",
                          f"no column {name!r} in {update.table!r}")
            else:
                self._check_write(table, table.column(name), expr)
            self._check_expr(expr, scope)
        if update.where is not None:
            self._check_expr(update.where, scope)

    def _check_delete(self, delete: sp.Delete) -> None:
        table = self.catalog.table(delete.table)
        if table is None:
            self.emit("unknown-table", f"unknown table {delete.table!r}")
            return
        if delete.where is not None:
            self._check_expr(delete.where, self._table_scope(
                table, delete.table))

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
        if isinstance(node, sp.Col):
            self._resolve(node, scope, aliases)
            return
        if isinstance(node, sp.Star):
            if node.table is not None and scope is not None:
                self._expand_star(node, scope)
            return
        for child in sp.children(node, nested=False):
            self._check_expr(child, scope, aliases)
        if isinstance(node, (sp.InSelect, sp.Exists, sp.ScalarSelect)):
            self._check_select(node.select, scope)
        elif isinstance(node, sp.Bin) and node.op in _COMPARE_OPS:
            self._check_comparison(node, scope, aliases)
        elif isinstance(node, sp.InList):
            self._check_domain_inlist(node, scope, aliases)

    def _column_of(self, node, scope, aliases) -> Optional[schema.ColumnDef]:
        """The ColumnDef a side of a comparison refers to, if any.

        Resolution findings were already emitted by the recursive
        expression walk; this is a second, silent resolution.
        """
        if not isinstance(node, sp.Col):
            return None
        silent = _Checker(self.catalog, self.file, self.line, self.sql)
        return silent._resolve(node, scope, aliases)

    def _check_comparison(self, node: sp.Bin, scope, aliases) -> None:
        for column_side, literal_side in (
                (node.left, node.right), (node.right, node.left)):
            column = self._column_of(column_side, scope, aliases)
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
        column = self._column_of(node.needle, scope, aliases)
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
# call-site bind surface
# ----------------------------------------------------------------------

def _check_params(statement: ExtractedStatement,
                  parsed: sp.ParsedStatement) -> List[Finding]:
    findings: List[Finding] = []

    def emit(rule: str, message: str) -> None:
        findings.append(make_finding(
            rule, statement.file, statement.line, message,
            statement=parsed.sql))

    if parsed.named_params:
        if statement.arity is not None and statement.arity > 0:
            emit("param-style",
                 f"statement binds named parameters "
                 f"{sorted(parsed.named_params)} but the call passes a "
                 f"positional sequence")
        elif statement.named is not None:
            missing = sorted(set(parsed.named_params) - set(statement.named))
            extra = sorted(set(statement.named) - set(parsed.named_params))
            if missing:
                emit("param-names",
                     f"call omits named parameters {missing}")
            if extra:
                emit("param-extra",
                     f"call passes unused named parameters {extra}")
        elif statement.no_params:
            emit("param-names",
                 f"statement binds named parameters "
                 f"{sorted(parsed.named_params)} but the call passes none")
        return findings

    if statement.named is not None:
        emit("param-style",
             f"statement uses positional placeholders but the call "
             f"passes named parameters {sorted(statement.named)}")
        return findings
    if statement.arity is not None and \
            statement.arity != parsed.placeholder_count:
        emit("placeholder-arity",
             f"statement has {parsed.placeholder_count} placeholders "
             f"but the call binds {statement.arity} parameters")
    return findings


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def check_extracted(statement: ExtractedStatement,
                    catalog: Catalog) -> List[Finding]:
    """All findings for one extracted statement (every render)."""
    findings: List[Finding] = []
    for render in statement.renders:
        try:
            parsed = sp.parse_info(render)
        except sp.SqlSyntaxError as exc:
            findings.append(make_finding(
                "sql-parse-error", statement.file, statement.line,
                f"does not parse: {exc}", statement=render))
            continue
        checker = _Checker(catalog, statement.file, statement.line, render)
        checker.check(parsed.ast)
        findings.extend(checker.findings)
        findings.extend(advisor.advise(
            parsed.ast, catalog, statement.file, statement.line, render))
        if statement.constant:
            findings.extend(_check_params(statement, parsed))
    return findings
