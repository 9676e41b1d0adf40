"""Classifying DML against the declared lifecycle machines.

:func:`transition_spec` decides, from SQL text alone, whether a write
statement touches the ``state`` column of one of the
:data:`~repro.condorj2.schema.LIFECYCLES` tables and, if so, what can be
known lexically: the target state (literal, parameter position, or the
column default) and the ``state = .. / state IN (..)`` guard literals in
the WHERE clause.

The spec has two consumers:

* the static analyzer's lifecycle pass
  (``repro.condorj2.analysis.lifecycle``), which turns the specs
  extracted from the source tree into the statically-implied transition
  graph checked against the declaration;
* the storage engines' runtime transition ledger
  (:attr:`StatementCounts.transitions`), for INSERT only: rows are born
  in the state the text names, times the rowcount.  UPDATE and DELETE
  edges are not inferred from text at all — each engine reports them
  from the row write itself (``TableStore._update_row`` /
  ``_delete_key``, SQLite's ``LEDGER_TRIGGER_STATEMENTS``), where the
  pre-image is in hand.

Classification is a pure function of the SQL text; the engines keep the
spec on the statement's cache entry (``storage/statements.py``), so the
write path parses a text once per admission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import repro.condorj2.storage.sqlparser as sp
from repro.condorj2.schema import GONE, LIFECYCLES, TABLE_BY_NAME


@dataclass(frozen=True)
class TransitionSpec:
    """What one lifecycle-table write says about the state machine."""

    table: str
    #: 'INSERT' | 'UPDATE' | 'DELETE'
    verb: str
    #: Literal target state, when the statement pins one (INSERT value,
    #: ``SET state = 'x'``, or the column default for an INSERT that
    #: omits the column).  ``None`` when parameter-bound or dynamic.
    to_state: Optional[str] = None
    #: Positional index of a parameter-bound target state.
    to_param: Optional[int] = None
    #: Name of a named-parameter-bound target state.
    to_named: Optional[str] = None
    #: Literal ``state =``/``state IN`` guard in the WHERE clause;
    #: ``None`` means the write is unguarded.
    guard_states: Optional[Tuple[str, ...]] = None
    #: INSERT OR IGNORE — affected-row attribution is aggregate only.
    or_ignore: bool = False

    def resolve_to(self, params: Any) -> Optional[str]:
        """The target state for one bound parameter row."""
        if self.to_state is not None:
            return self.to_state
        try:
            if self.to_param is not None:
                return params[self.to_param]
            if self.to_named is not None:
                return params[self.to_named]
        except (IndexError, KeyError, TypeError):
            return None
        return None


def _is_state_col(node: Any, table: str, column: str) -> bool:
    if isinstance(node, sp.Un) and node.op == "+":
        # ``+state = 'x'`` guards exactly as ``state = 'x'`` does; the
        # no-op plus only keeps SQLite from driving the scan by it.
        node = node.operand
    return (isinstance(node, sp.Col) and node.name == column
            and node.table in (None, table))


def _guard_literals(where: Any, table: str,
                    column: str) -> Optional[Tuple[str, ...]]:
    """Literal states a WHERE clause pins the row's state to, if any."""
    for conjunct in sp.split_conjuncts(where):
        if isinstance(conjunct, sp.Bin) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if _is_state_col(left, table, column) and isinstance(right, sp.Lit):
                return (str(right.value),)
            if _is_state_col(right, table, column) and isinstance(left, sp.Lit):
                return (str(left.value),)
        if (isinstance(conjunct, sp.InList) and not conjunct.negated
                and _is_state_col(conjunct.needle, table, column)
                and all(isinstance(item, sp.Lit) for item in conjunct.items)):
            return tuple(str(item.value) for item in conjunct.items)
    return None


def _default_state(table: str, column: str) -> Optional[str]:
    col = TABLE_BY_NAME[table].column(column)
    return col.default if col.has_default else None


def _to_fields(expr: Any) -> Dict[str, Any]:
    """How a SET/VALUES expression determines the target state."""
    if isinstance(expr, sp.Lit):
        return {"to_state": str(expr.value)}
    if isinstance(expr, sp.Param):
        if expr.index is not None:
            return {"to_param": expr.index}
        return {"to_named": expr.name}
    return {}  # dynamic expression: target unknown lexically


def transition_spec(sql: str) -> Optional[TransitionSpec]:
    """The :class:`TransitionSpec` for ``sql``, or None.

    None means the statement is irrelevant to every lifecycle machine:
    it does not parse, targets a non-lifecycle table, or is an UPDATE
    that never touches the state column.
    """
    try:
        ast = sp.parse(sql)
    except sp.SqlSyntaxError:
        return None
    if not isinstance(ast, (sp.Update, sp.Delete, sp.Insert)):
        return None
    lifecycle = LIFECYCLES.get(ast.table)
    if lifecycle is None:
        return None
    column = lifecycle.column
    if isinstance(ast, sp.Update):
        assignment = next(
            (expr for name, expr in ast.sets if name == column), None)
        if assignment is None:
            return None
        return TransitionSpec(
            table=ast.table,
            verb="UPDATE",
            guard_states=_guard_literals(ast.where, ast.table, column),
            **_to_fields(assignment),
        )
    if isinstance(ast, sp.Delete):
        return TransitionSpec(
            table=ast.table,
            verb="DELETE",
            to_state=GONE,
            guard_states=_guard_literals(ast.where, ast.table, column),
        )
    if ast.select is not None:
        return None  # INSERT..SELECT: per-row states not resolvable
    fields: Dict[str, Any] = {}
    if ast.columns and column in ast.columns:
        fields = _to_fields(ast.values[ast.columns.index(column)])
    else:
        default = _default_state(ast.table, column)
        if default is not None:
            fields = {"to_state": str(default)}
    return TransitionSpec(
        table=ast.table,
        verb="INSERT",
        or_ignore=ast.or_ignore,
        **fields,
    )
