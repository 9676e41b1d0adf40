"""Expression compilation for the memory engine.

:class:`_Scope` resolves a column reference to a frame slot at compile
time; :class:`_ExprCompiler` turns every expression node of the dialect
(:mod:`.sqlparser`) into a closure ``fn(rt)`` whose value follows
SQLite's scalar rules (:mod:`.scalars`) — three-valued AND/OR,
comparison affinity, IN over lists and subqueries, EXISTS (probing per
outer row, or cached when uncorrelated), scalar subqueries,
``ROW_NUMBER`` slots, CASE, CAST, COALESCE and the aggregates.
What a node kind *means* is stated here; which fields of a node are
sub-expressions is not — that is :func:`.sqlparser.children`'s to say.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.condorj2.storage import sqlparser as sp
from repro.condorj2.storage.plans import _SelectPlan
from repro.condorj2.storage.scalars import (
    _BIN_OPS, _NUMERIC_AFFINITIES, _coerce_numeric, _coerce_text,
    _comparison_coercions, _is_true, _probe_norm, _sql_eq,
    _to_number, _to_text, sql_sort_key,
)
from repro.condorj2.storage.store import MemoryEngineError, TableStore


class _Scope:
    """Compile-time name resolution: alias -> visible columns (plus the
    column affinities for table sources — subquery columns have none and
    json_each's have BLOB affinity, exactly as in SQLite).

    Each alias also carries its frame *slot*: runtime environments are
    flat lists indexed by source position (plus trailing window slots),
    not per-row dicts, so a compiled column reference is two list
    indexings and one row lookup."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.aliases: Dict[str, Tuple[str, ...]] = {}
        self.affinities: Dict[str, Optional[Dict[str, str]]] = {}
        self.slots: Dict[str, int] = {}

    def add(self, alias: str, columns: Tuple[str, ...],
            affinities: Optional[Dict[str, str]] = None,
            slot: int = 0) -> None:
        self.aliases[alias] = columns
        self.affinities[alias] = affinities
        self.slots[alias] = slot

    def remove(self, alias: str) -> None:
        del self.aliases[alias]
        del self.affinities[alias]
        del self.slots[alias]

    def _find(self, qualifier: Optional[str], name: str
              ) -> Tuple[int, "_Scope", str]:
        """(depth, defining scope, alias) for a column reference.

        An unqualified name binds in the innermost scope that provides
        it, and, as in SQLite, is an error when two sources of that
        scope both do."""
        depth, scope = 0, self
        while scope is not None:
            if qualifier is not None:
                columns = scope.aliases.get(qualifier)
                if columns is not None:
                    if name not in columns:
                        raise MemoryEngineError(
                            f"no such column: {qualifier}.{name}")
                    return depth, scope, qualifier
            else:
                found = [alias for alias, columns in scope.aliases.items()
                         if name in columns]
                if len(found) > 1:
                    raise MemoryEngineError(f"ambiguous column name: {name}")
                if found:
                    return depth, scope, found[0]
            depth, scope = depth + 1, scope.parent
        raise MemoryEngineError(
            f"no such column: {(qualifier + '.') if qualifier else ''}{name}")

    def resolve(self, qualifier: Optional[str], name: str
                ) -> Tuple[int, str, int]:
        """(depth, alias, frame slot) for a column reference."""
        depth, scope, alias = self._find(qualifier, name)
        return depth, alias, scope.slots[alias]

    def column_affinity(self, qualifier: Optional[str],
                        name: str) -> Optional[str]:
        """Affinity of the column the reference resolves to, None when
        it does not resolve or resolves to an affinity-less source."""
        try:
            _depth, scope, alias = self._find(qualifier, name)
        except MemoryEngineError:
            return None
        mapping = scope.affinities[alias]
        return mapping.get(name) if mapping else None


def _new_stats(windows: Optional[List] = None,
               win_base: int = 0) -> Dict[str, Any]:
    # "outer" is the maximum frame depth any compiled reference reaches,
    # relative to the current select (0 = local only).  A nested
    # subquery's depth-1 references resolve to *this* select's frame, so
    # crossing a select boundary decrements the depth by one — only
    # depth >= 1 after that still escapes this select.
    # "win_base" is the first window slot in the flat environment list:
    # source rows occupy slots [0, len(sources)), window values follow.
    # "windows" collects the windows of a select's result columns and
    # ORDER BY; it is None wherever a window is misuse, as in SQLite.
    return {"agg": False, "outer": 0, "win_base": win_base,
            "windows": windows}


def _wrap(fn: Callable, coerce: Callable) -> Callable:
    return lambda rt: coerce(fn(rt))


class _ExprCompiler:
    """Gives each expression node kind its meaning: a closure over the
    runtime context.  A subquery recurses into ``compile_select``, which
    the statement compiler (:class:`~.compiler._Compiler`) supplies."""

    def __init__(self, engine: TableStore):
        self.engine = engine
        #: EXPLAIN registry stack: subplans compiled inside expressions
        #: (EXISTS, IN (SELECT), scalar subqueries)
        #: attach to the select/statement being compiled.
        self._subs: List[List[Tuple[str, "_SelectPlan"]]] = []
        #: ``rt.cache`` slots for per-execution subquery results
        self._cache_keys = itertools.count()

    def _register_sub(self, label: str, subplan: "_SelectPlan") -> None:
        if self._subs:
            self._subs[-1].append((label, subplan))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def compile_expr(self, node: Any, scope: _Scope, stats: Dict) -> Callable:
        if isinstance(node, sp.Lit):
            value = node.value
            return lambda rt: value
        if isinstance(node, sp.Param):
            # The bind surface was checked once, before the run.
            index, name = node.index, node.name
            if index is not None:
                return lambda rt: rt.seq[index]
            return lambda rt: rt.named[name]
        if isinstance(node, sp.Col):
            depth, _alias, slot = scope.resolve(node.table, node.name)
            stats["outer"] = max(stats["outer"], depth)
            index = -1 - depth
            name = node.name
            def col_fn(rt, _i=index, _s=slot, _n=name):
                row = rt.frames[_i][_s]
                return row[_n] if row is not None else None
            return col_fn
        if isinstance(node, sp.Bin):
            if node.op == "AND":
                left = self.compile_expr(node.left, scope, stats)
                right = self.compile_expr(node.right, scope, stats)
                def and_fn(rt):
                    lv = left(rt)
                    if lv is not None and not _is_true(lv):
                        return 0  # FALSE AND anything = FALSE
                    rv = right(rt)
                    if rv is not None and not _is_true(rv):
                        return 0
                    if lv is None or rv is None:
                        return None
                    return 1
                return and_fn
            if node.op == "OR":
                left = self.compile_expr(node.left, scope, stats)
                right = self.compile_expr(node.right, scope, stats)
                def or_fn(rt):
                    lv = left(rt)
                    if _is_true(lv):
                        return 1  # TRUE OR anything = TRUE
                    rv = right(rt)
                    if _is_true(rv):
                        return 1
                    if lv is None or rv is None:
                        return None
                    return 0
                return or_fn
            op = _BIN_OPS.get(node.op)
            if op is None:
                raise MemoryEngineError(f"unsupported operator {node.op!r}")
            left = self.compile_expr(node.left, scope, stats)
            right = self.compile_expr(node.right, scope, stats)
            if node.op in ("=", "!=", "<", "<=", ">", ">="):
                left, right = self._affinity_wrap(node, scope, left, right)
            return lambda rt: op(left(rt), right(rt))
        if isinstance(node, sp.Un):
            operand = self.compile_expr(node.operand, scope, stats)
            if node.op == "NOT":
                def not_fn(rt):
                    value = operand(rt)
                    return None if value is None else int(not _is_true(value))
                return not_fn
            if node.op == "-":
                def neg_fn(rt):
                    value = _to_number(operand(rt))
                    return None if value is None else -value
                return neg_fn
            return operand  # unary plus: SQLite's no-op
        if isinstance(node, sp.IsNull):
            operand = self.compile_expr(node.operand, scope, stats)
            if node.negated:
                return lambda rt: int(operand(rt) is not None)
            return lambda rt: int(operand(rt) is None)
        if isinstance(node, sp.Case):
            whens = [(self.compile_expr(c, scope, stats),
                      self.compile_expr(v, scope, stats))
                     for c, v in node.whens]
            default = (self.compile_expr(node.default, scope, stats)
                       if node.default is not None else None)
            def case_fn(rt):
                for cond, value in whens:
                    if _is_true(cond(rt)):
                        return value(rt)
                return default(rt) if default is not None else None
            return case_fn
        if isinstance(node, sp.Cast):
            operand = self.compile_expr(node.operand, scope, stats)
            to_type = node.to_type
            def cast_fn(rt):
                value = operand(rt)
                if value is None:
                    return None
                if to_type in ("INTEGER", "INT"):
                    number = _to_number(value)
                    return int(number) if number is not None else 0
                if to_type == "REAL":
                    number = _to_number(value)
                    return float(number) if number is not None else 0.0
                if to_type == "TEXT":
                    return _to_text(value)
                return value
            return cast_fn
        if isinstance(node, sp.InList):
            needle = self.compile_expr(node.needle, scope, stats)
            members = [self.compile_expr(i, scope, stats)
                       for i in node.items]
            needle_aff = self._operand_affinity(node.needle, scope)
            if needle_aff in _NUMERIC_AFFINITIES:
                members = [_wrap(m, _coerce_numeric) for m in members]
            elif needle_aff == "TEXT":
                members = [_wrap(m, _coerce_text) for m in members]
            negated = node.negated
            def in_list_fn(rt):
                value = needle(rt)
                if value is None:
                    return None
                found = any(_is_true(_sql_eq(value, m(rt))) for m in members)
                return int((not found) if negated else found)
            return in_list_fn
        if isinstance(node, sp.InSelect):
            needle = self.compile_expr(node.needle, scope, stats)
            sub = self.compile_select(node.select, scope)
            self._register_sub("NOT-IN-SELECT" if node.negated
                               else "IN-SELECT", sub)
            stats["outer"] = max(stats["outer"], sub.outer_depth - 1)
            negated = node.negated
            # `x IN (SELECT y ...)` compares as `x = y` does.
            co_needle, coerce = _comparison_coercions(
                self._operand_affinity(node.needle, scope),
                self._first_item_affinity(node.select))
            if co_needle is not None:
                needle = _wrap(needle, co_needle)
            key = next(self._cache_keys)
            def in_select_fn(rt):
                value = needle(rt)
                if value is None:
                    return None
                if sub.correlated:
                    members = sub.first_column_set(rt, coerce)
                else:
                    members = rt.cache.get(key)
                    if members is None:
                        members = sub.first_column_set(rt, coerce)
                        rt.cache[key] = members
                found = _probe_norm(value) in members
                return int((not found) if negated else found)
            return in_select_fn
        if isinstance(node, sp.Exists):
            sub = self.compile_select(node.select, scope)
            stats["outer"] = max(stats["outer"], sub.outer_depth - 1)
            negated = node.negated
            self._register_sub("NOT-EXISTS" if negated else "EXISTS", sub)
            if sub.correlated:
                def exists_corr_fn(rt):
                    found = sub.any(rt)
                    return int((not found) if negated else found)
                exists_corr_fn._strict_bool = True
                return exists_corr_fn
            key = next(self._cache_keys)
            def exists_fn(rt):
                found = rt.cache.get(key)
                if found is None:
                    found = sub.any(rt)
                    rt.cache[key] = found
                return int((not found) if negated else found)
            exists_fn._strict_bool = True
            return exists_fn
        if isinstance(node, sp.ScalarSelect):
            sub = self.compile_select(node.select, scope)
            self._register_sub("SCALAR-SELECT", sub)
            stats["outer"] = max(stats["outer"], sub.outer_depth - 1)
            def scalar_fn(rt):
                rows = sub.execute(rt)
                return rows[0][0] if rows else None
            return scalar_fn
        if isinstance(node, sp.WindowFunc):
            windows = stats["windows"]
            if windows is None:
                raise MemoryEngineError(
                    f"misuse of window function {node.name}()")
            if node.name != "ROW_NUMBER":
                raise MemoryEngineError(
                    f"unsupported window function {node.name}")
            ostats = dict(stats, windows=None)  # none in a window's order
            order = [(self.compile_expr(e, scope, ostats), desc)
                     for e, desc in node.order_by]
            stats["agg"], stats["outer"] = ostats["agg"], ostats["outer"]
            slot = stats["win_base"] + len(windows)
            windows.append(order)
            def window_fn(rt, _s=slot):
                return rt.frames[-1][_s]
            return window_fn
        if isinstance(node, sp.Func):
            return self._compile_func(node, scope, stats)
        raise MemoryEngineError(f"unsupported expression {type(node).__name__}")

    def _affinity_wrap(self, node: sp.Bin, scope: _Scope,
                       left: Callable, right: Callable):
        """Apply SQLite's comparison affinity to a compiled pair."""
        co_left, co_right = _comparison_coercions(
            self._operand_affinity(node.left, scope),
            self._operand_affinity(node.right, scope))
        if co_left is not None:
            left = _wrap(left, co_left)
        if co_right is not None:
            right = _wrap(right, co_right)
        return left, right

    def _operand_affinity(self, node: Any, scope: _Scope) -> Optional[str]:
        if isinstance(node, sp.Col):
            return scope.column_affinity(node.table, node.name)
        return None

    def _select_column_affinity(self, select: sp.Select,
                                expr: Any) -> Optional[str]:
        """Affinity of ``expr`` when it names a column of one of
        ``select``'s own table or ``json_each`` sources; None for
        anything else."""
        if not isinstance(expr, sp.Col):
            return None
        for src in select.sources:
            if src.kind == "json_each" and expr.table in (None, src.alias) \
                    and expr.name in ("key", "value"):
                return "BLOB"
            table = (self.engine.tables.get(src.name)
                     if src.kind == "table" else None)
            if table is None:
                continue
            if expr.table == (src.alias or src.name) or (
                    expr.table is None and expr.name in table.columns):
                return table.affinities.get(expr.name)
        return None

    def _first_item_affinity(self, select: sp.Select) -> Optional[str]:
        """Affinity of the values ``x IN (SELECT y ...)`` compares with."""
        return self._select_column_affinity(select, select.items[0].expr)

    def _compile_func(self, node: sp.Func, scope: _Scope,
                      stats: Dict) -> Callable:
        name = node.name
        if name == "COALESCE":
            if len(node.args) < 2:
                raise MemoryEngineError(
                    "wrong number of arguments to function coalesce()")
            options = [self.compile_expr(arg, scope, stats)
                       for arg in node.args]

            def coalesce_fn(rt):
                for option in options:
                    value = option(rt)
                    if value is not None:
                        return value
                return None
            return coalesce_fn
        if name not in sp.AGGREGATES:
            raise MemoryEngineError(f"unsupported function {name}")
        stats["agg"] = True
        if node.star:
            if name != "COUNT":
                raise MemoryEngineError(f"{name}(*) is not supported")
            def count_star(rt):
                return len(rt.group) if rt.group is not None else 0
            return count_star
        if len(node.args) != 1:
            raise MemoryEngineError(f"{name} takes one argument")
        astats = dict(stats, windows=None)  # none inside an aggregate
        arg = self.compile_expr(node.args[0], scope, astats)
        stats["outer"] = astats["outer"]

        def gather(rt):
            group = rt.group if rt.group is not None else []
            frames = rt.frames
            saved = frames[-1]
            values = []
            try:
                for env in group:
                    frames[-1] = env
                    value = arg(rt)
                    if value is not None:
                        values.append(value)
            finally:
                frames[-1] = saved
            return values

        if name == "COUNT":
            return lambda rt: len(gather(rt))
        if name == "SUM":
            def sum_fn(rt):
                values = [_to_number(v) for v in gather(rt)]
                if not values:
                    return None
                total = sum(values)
                if all(isinstance(v, int) for v in values):
                    return int(total)
                return float(total)
            return sum_fn
        if name == "TOTAL":
            return lambda rt: float(sum(_to_number(v) for v in gather(rt)))
        if name == "AVG":
            def avg_fn(rt):
                values = [_to_number(v) for v in gather(rt)]
                if not values:
                    return None
                return sum(values) / len(values)
            return avg_fn
        if name == "MIN":
            def min_fn(rt):
                values = gather(rt)
                return min(values, key=sql_sort_key) if values else None
            return min_fn
        def max_fn(rt):
            values = gather(rt)
            return max(values, key=sql_sort_key) if values else None
        return max_fn
