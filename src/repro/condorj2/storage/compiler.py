"""The statement compiler of the memory engine.

:class:`_Compiler` turns a parsed statement (:mod:`.sqlparser`) into an
executable plan (:mod:`.plans`): it resolves sources into a scope,
splits WHERE and ON into conjuncts, asks the pure planning rules
(:mod:`.planner`) which conjunct should drive each access to a table —
one function, :meth:`_Compiler._choose_driver`, for SELECT, UPDATE,
DELETE and joined tables — binds the choice into an access path (a
prefix index and a rowid bound included), hash-joins a subquery
source, drops an ORDER BY that path already serves, and leaves every
expression to the base class (:mod:`.expressions`).  Statistics are
read live and are advisory: any plan compiled here is correct for any
data.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.condorj2.storage import planner as pl
from repro.condorj2.storage import sqlparser as sp
from repro.condorj2.storage.expressions import (
    _ExprCompiler, _Scope, _new_stats, _wrap,
)
from repro.condorj2.storage.plans import (
    _Access, _DeletePlan, _InsertPlan, _ProfiledSelectPlan,
    _ProfiledSourcePlan, _SelectPlan, _SelectStatement, _SourcePlan,
    _UpdatePlan, _combine_filters, _hash_access, _keyed_access,
    _lookup_access, _union_access,
)
from repro.condorj2.storage.scalars import (
    _comparison_coercions, _converts_left, _probe_coercion,
)
from repro.condorj2.storage.store import (
    MemoryEngineError, MemoryTable, TableStore,
)

#: The comparisons an index can answer, each mapped to the operator that
#: holds with its operands swapped.
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _is_count_star(node: Any) -> bool:
    return isinstance(node, sp.Func) and node.name == "COUNT" and node.star


def _local_aliases(node: Any, scope: _Scope) -> set:
    """Depth-0 aliases ``node`` may reference, subqueries included.  A
    bare name inside a subquery is resolved in ``scope`` too, so the set
    can only be too large — which costs a probe, never an answer."""
    found: set = set()
    for n in sp.walk(node):
        if isinstance(n, sp.Col):
            try:
                depth, alias, _slot = scope.resolve(n.table, n.name)
            except MemoryEngineError:
                continue
            if depth == 0:
                found.add(alias)
    return found


class _Compiler(_ExprCompiler):
    """Compiles parsed statements into executable plans over an engine.

    ``profiled=True`` compiles the same plan shape with instrumented
    node classes (per-operator row counts and timings) — used only by
    ``explain``; cached hot plans carry no instrumentation.
    """

    def __init__(self, engine: TableStore, profiled: bool = False):
        super().__init__(engine)
        self.profiled = profiled
        self._source_cls = _ProfiledSourcePlan if profiled else _SourcePlan
        self._select_cls = _ProfiledSelectPlan if profiled else _SelectPlan

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def compile(self, sql: str) -> Any:
        """The plan for ``sql``, carrying its bind surface as ``bind``:
        (positional placeholder count, ``:name`` parameters)."""
        info = sp.parse_info(sql)
        ast = info.ast
        # Fresh registry stack per statement: a failed compile must not
        # leave stale frames behind (the engine reuses one compiler).
        self._subs = [[]]
        try:
            if isinstance(ast, sp.Select):
                plan: Any = _SelectStatement(self.compile_select(ast, None))
            elif isinstance(ast, sp.Insert):
                plan = self.compile_insert(ast)
            elif isinstance(ast, sp.Update):
                plan = self.compile_update(ast)
            elif isinstance(ast, sp.Delete):
                plan = self.compile_delete(ast)
            else:
                raise MemoryEngineError(
                    f"unsupported statement {type(ast).__name__}")
        finally:
            xsubs = self._subs[0]
            self._subs = []
        plan.xsubs = xsubs
        plan.bind = (info.placeholder_count, info.named_params)
        return plan

    def _table(self, name: str) -> MemoryTable:
        table = self.engine.tables.get(name)
        if table is None:
            raise MemoryEngineError(f"no such table: {name}")
        return table

    def compile_insert(self, ast: sp.Insert) -> "_InsertPlan":
        table = self._table(ast.table)
        columns = list(ast.columns) if ast.columns else list(table.columns)
        for col in columns:
            if col not in table.columns:
                raise MemoryEngineError(
                    f"no such column: {ast.table}.{col}")
        if ast.values is not None:
            if len(ast.values) != len(columns):
                raise MemoryEngineError("INSERT arity mismatch")
            stats = _new_stats()
            fns = [self.compile_expr(v, _Scope(), stats) for v in ast.values]
            return _InsertPlan(table, columns, value_fns=fns,
                               or_ignore=ast.or_ignore)
        select = self.compile_select(ast.select, None)
        if len(select.names) != len(columns):
            raise MemoryEngineError("INSERT..SELECT arity mismatch")
        return _InsertPlan(table, columns, select=select,
                           or_ignore=ast.or_ignore)

    def compile_update(self, ast: sp.Update) -> "_UpdatePlan":
        table = self._table(ast.table)
        scope = _Scope()
        scope.add(ast.table, table.columns, table.affinities)
        stats = _new_stats()
        sets = []
        for col, expr in ast.sets:
            if col not in table.columns:
                raise MemoryEngineError(f"no such column: {ast.table}.{col}")
            sets.append((col, self.compile_expr(expr, scope, stats)))
        return _UpdatePlan(table, sets, *self._compile_dml_where(
            table, ast.table, ast.where, scope))

    def compile_delete(self, ast: sp.Delete) -> "_DeletePlan":
        table = self._table(ast.table)
        scope = _Scope()
        scope.add(ast.table, table.columns, table.affinities)
        return _DeletePlan(table, *self._compile_dml_where(
            table, ast.table, ast.where, scope))

    def _compile_dml_where(self, table, alias, where, scope):
        """``(access path, filters, estimated rows)`` for the WHERE of
        an UPDATE/DELETE: the chosen driver, or a key-order scan."""
        conjuncts = sp.split_conjuncts(where)
        stats = _new_stats()
        driven, access, est = self._choose_driver(
            table, alias, conjuncts, scope, stats)
        filters = [self.compile_expr(conjunct, scope, stats)
                   for position, conjunct in enumerate(conjuncts)
                   if position not in driven]
        if access is None:
            access = _Access(keys=lambda rt: table.scan_keys())
            est = float(len(table.rows))
        return access, filters, est

    def _choose_driver(self, table: MemoryTable, alias: str,
                       conjuncts: List[Any], scope: _Scope, stats: Dict,
                       allowed: frozenset = frozenset()):
        """Index selection for one access to ``table``: a SELECT's first
        source or the target of an UPDATE/DELETE (WHERE conjuncts), or a
        joined table (ON conjuncts, which may also read the ``allowed``
        aliases bound before it).  Price every conjunct that can probe an
        index, and the equalities that pin a prefix index, against the
        live statistics and bind the cheapest as the access path.  A
        prefix probe's keys are rowids in order, so beside it ``rowid <=
        expr`` (or ``<``) is a bisect, ``expr`` read once per probe, not
        once per row.  The conjuncts left over stay filters, so any
        choice is correct and a stale estimate can only cost time.
        Returns ``(positions of the conjuncts it answers, access path,
        estimated rows)``: ``((), None, None)`` when nothing can
        drive."""
        candidates = []
        binders: List[Tuple[Tuple[int, ...], Callable]] = []
        pinned: Dict[str, Tuple[int, Any]] = {}
        upper = None
        for position, conjunct in enumerate(conjuncts):
            if not (_local_aliases(conjunct, scope) <= allowed | {alias}):
                continue
            comparison = self._comparison_on(conjunct, alias, scope, allowed)
            equality = None
            if comparison is not None:
                column, op, other = comparison
                if op == "=":
                    equality = comparison
                    pinned.setdefault(column, (position, other))
                elif column == table.ipk and op in ("<", "<=") \
                        and upper is None:
                    upper = (position, op, other)
            found = self._driver_candidate(conjunct, equality, table, alias,
                                           scope)
            if found is not None:
                kind, column, est, bind = found
                candidates.append(
                    pl.DriverCandidate(len(binders), kind, column, est))
                binders.append(((position,), bind))
        columns = self._pinned_prefix(table, pinned)
        if columns is not None:
            answered = tuple(pinned[column][0] for column in columns)
            name = f"({', '.join(columns)})"
            if upper is not None:
                answered += (upper[0],)
                name += f", {table.ipk} {upper[1]} bound"
            # First in line: on a tie it answers more conjuncts.
            candidates.insert(0, pl.DriverCandidate(
                len(binders), "eq", name,
                self._estimate_prefix(table, columns)))
            binders.append((answered, lambda stats: self._prefix_access(
                table, columns, pinned, upper, scope, stats)))
        best = pl.choose_driver(candidates)
        if best is None:
            return (), None, None
        positions, bind = binders[best.position]
        access = bind(stats)
        access.label = f"{best.kind} probe on {best.column}"
        return positions, access, best.est_rows

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def compile_select(self, ast: sp.Select, parent: Optional[_Scope]
                       ) -> "_SelectPlan":
        scope = _Scope(parent)
        stats = _new_stats()
        self._subs.append([])
        source_plans: List[_SourcePlan] = []
        bound: List[str] = []
        for position, src in enumerate(ast.sources):
            plan = self._compile_source(src, scope, bound, position, stats)
            source_plans.append(plan)
            scope.add(plan.alias, plan.columns, plan.affinities,
                      slot=position)
            bound.append(plan.alias)

        # WHERE: split into pushdown (first source only) and post-join;
        # one pushdown conjunct may become the first source's driver.
        where_conjuncts = sp.split_conjuncts(ast.where)
        pushdown: List[Callable] = []
        post: List[Callable] = []
        driven: Tuple[int, ...] = ()
        first = source_plans[0] if source_plans else None
        if first is not None and first.kind == "table":
            driven, access, est = self._choose_driver(
                first.table, first.alias, where_conjuncts, scope, stats)
            if access is not None:
                first.access = access
                first.est_rows = est
        for position, conjunct in enumerate(where_conjuncts):
            if position in driven:
                continue
            local = _local_aliases(conjunct, scope)
            cstats = _new_stats()
            fn = self.compile_expr(conjunct, scope, cstats)
            stats["outer"] = max(stats["outer"], cstats["outer"])
            if first is not None and local <= {first.alias}:
                pushdown.append(fn)
            else:
                post.append(fn)
        if first is not None:
            first.check = _combine_filters(pushdown)

        # select items (expand stars at compile time)
        item_fns: List[Callable] = []
        names: List[str] = []
        alias_exprs: Dict[str, Any] = {}
        windows: List[Tuple[Any, List[Tuple[Callable, bool]]]] = []
        istats = _new_stats(windows, len(source_plans))
        for item in ast.items:
            if isinstance(item.expr, sp.Star):
                targets = ([item.expr.table] if item.expr.table
                           else [p.alias for p in source_plans])
                for alias in targets:
                    columns = scope.aliases.get(alias)
                    if columns is None:
                        raise MemoryEngineError(f"no such alias: {alias}")
                    for column in columns:
                        item_fns.append(
                            self.compile_expr(sp.Col(alias, column), scope,
                                              istats))
                        names.append(column)
                continue
            item_fns.append(self.compile_expr(item.expr, scope, istats))
            if item.alias:
                names.append(item.alias)
                alias_exprs[item.alias] = item.expr
            elif isinstance(item.expr, sp.Col):
                names.append(item.expr.name)
            else:
                names.append(item.text)
        has_agg = istats["agg"]
        stats["outer"] = max(stats["outer"], istats["outer"])

        def alias_for(node):
            """Column-first, select-alias-fallback resolution, wherever
            in a GROUP BY/ORDER BY expression the name appears
            (``GROUP BY minute ORDER BY minute``)."""
            if isinstance(node, sp.Col) and node.table is None \
                    and node.name in alias_exprs:
                try:
                    scope.resolve(None, node.name)
                except MemoryEngineError:
                    return alias_exprs[node.name]
            return None

        def compile_output_expr(expr, window_list):
            expr = sp.rewrite(expr, alias_for)
            ostats = _new_stats(window_list, len(source_plans))
            fn = self.compile_expr(expr, scope, ostats)
            stats["outer"] = max(stats["outer"], ostats["outer"])
            if ostats["agg"]:
                nonlocal has_agg
                has_agg = True
            return fn

        group_fns = [compile_output_expr(g, None) for g in ast.group_by]
        order_specs = [(compile_output_expr(e, windows), desc)
                       for e, desc in ast.order_by]
        if windows and (has_agg or group_fns):
            # SQLite numbers groups; the window pass numbers rows.
            raise MemoryEngineError(
                "a window beside GROUP BY or an aggregate is outside"
                " the dialect")
        if not (has_agg or windows) and self._served_order(
                ast, source_plans, scope):
            order_specs = []  # streams, and LIMIT/OFFSET stop the walk
        # No column is visible to LIMIT or OFFSET, an outer one included.
        limit_fn, offset_fn = (
            None if bound is None
            else self.compile_expr(bound, _Scope(), _new_stats())
            for bound in (ast.limit, ast.offset))

        lookup: Dict[str, int] = {}
        for index, name in enumerate(names):
            lookup.setdefault(name, index)

        # COUNT(*) alone over one source whose access path answers every
        # condition: the path's own count, when it keeps one.
        count = None
        if len(source_plans) == 1 and first.check is None and not post \
                and len(ast.items) == 1 and _is_count_star(ast.items[0].expr) \
                and not (ast.group_by or ast.order_by
                         or ast.limit or ast.offset):
            count = first.access.count

        plan = self._select_cls(
            sources=source_plans,
            post_where=post,
            item_fns=item_fns,
            names=tuple(names),
            lookup=lookup,
            group_fns=group_fns,
            order_specs=order_specs,
            limit_fn=limit_fn,
            offset_fn=offset_fn,
            has_agg=has_agg,
            windows=windows,
            outer_depth=stats["outer"],
            count=count,
        )
        plan.xsubs = self._subs.pop()
        est = source_plans[0].est_rows if source_plans else 1.0
        # A json_each source has no estimate for a literal LIMIT to cap.
        if est is not None and isinstance(ast.limit, sp.Lit) \
                and isinstance(ast.limit.value, (int, float)):
            est = min(est, float(ast.limit.value))
        plan.est_rows = est
        return plan

    def _compile_source(self, src: sp.Source, scope: _Scope,
                        bound: List[str], position: int,
                        stats: Dict) -> "_SourcePlan":
        if src.kind == "table":
            table = self._table(src.name)
            plan = self._source_cls(src.alias, "table", src.join,
                                    table=table, columns=table.columns)
            plan.affinities = table.affinities
            plan.est_rows = float(len(table.rows))
        elif src.kind == "subquery":
            sub = self.compile_select(src.subquery, scope.parent)
            if sub.correlated:
                # The closed-dialect contract: out-of-contract SQL is a
                # loud error, not a silently wrong answer.  A correlated
                # FROM-subquery would also defeat the per-statement row
                # cache in _SourcePlan.base_rows.
                raise MemoryEngineError(
                    "correlated subquery in FROM is outside the dialect")
            plan = self._source_cls(src.alias, "subquery", src.join,
                                    subplan=sub, columns=sub.names)
            plan.est_rows = sub.est_rows
        else:  # json_each
            arg_fn = self.compile_expr(src.arg, scope, stats)
            plan = self._source_cls(src.alias, "json_each", src.join,
                                    arg_fn=arg_fn, columns=("key", "value"))
            plan.affinities = {"key": "BLOB", "value": "BLOB"}
        if src.on is not None:
            scope.add(plan.alias, plan.columns, plan.affinities,
                      slot=position)  # temporarily visible for ON
            conjuncts = sp.split_conjuncts(src.on)
            driven: Tuple[int, ...] = ()
            if plan.kind == "table":
                driven, access, est = self._choose_driver(
                    plan.table, plan.alias, conjuncts, scope, stats,
                    frozenset(bound))
                if access is not None:
                    plan.access = access
                    plan.est_rows = est
            residual = []
            for index, conjunct in enumerate(conjuncts):
                if index in driven:
                    continue
                if plan.kind == "subquery" and plan.access.label is None:
                    access = self._try_hash_join(conjunct, plan, scope,
                                                 bound, stats)
                    if access is not None:
                        plan.access = access
                        continue
                residual.append(self.compile_expr(conjunct, scope, stats))
            plan.check = _combine_filters(residual)
            scope.remove(plan.alias)  # re-added by caller in order
        return plan

    def _served_order(self, ast: sp.Select, sources: List["_SourcePlan"],
                      scope: _Scope) -> bool:
        """Is the ORDER BY what the access path returns anyway?  Every
        path into a table — scan, probe, prefix probe, rowid bound —
        yields rows in key order, so a lone table ordered by its rowid
        alias, ascending, needs no sort.  Any other ORDER BY is sorted,
        whatever the path."""
        if len(sources) != 1 or sources[0].kind != "table" \
                or len(ast.order_by) != 1 or ast.group_by:
            return False
        expr, desc = ast.order_by[0]
        table = sources[0].table
        return not desc and table.ipk is not None and \
            self._own_column(expr, sources[0].alias, scope) == table.ipk

    # -- probe extraction ----------------------------------------------
    def _driver_candidate(self, conjunct: Any, equality: Optional[Tuple],
                          table: MemoryTable, alias: str,
                          scope: _Scope) -> Optional[Tuple]:
        """Recognise a WHERE or ON conjunct that can drive the access to
        ``alias``: ``alias.col = expr`` (``equality``, as
        :meth:`_comparison_on` reads the conjunct) or ``alias.col IN
        (...)`` over an indexed column, the other side reading no row of
        this select (an equality may read the aliases bound before a
        joined table) and of an affinity that leaves the column as stored
        (the index holds stored values; see
        :func:`_comparison_coercions`).  An ``IN
        (SELECT ...)`` qualifies when its compiled plan references
        nothing outside itself, so its values depend on no row.

        Returns ``(kind, column, estimated rows, bind)`` — the estimate
        from the live statistics (row count, per-index distinct count),
        ``bind(stats)`` compiling the payload into the access path — or
        None.  Payloads compile against the caller's ``stats`` so outer
        references keep marking the select as correlated."""
        rows = float(len(table.rows))
        if equality is not None:
            column, op, other = equality
            if op != "=" or not table.indexed(column):
                return None
            return ("eq", column, self._estimate_eq(table, column),
                    lambda stats: _lookup_access(
                        table, column,
                        self._compile_probe(table, column, other,
                                            scope, stats)))
        if not isinstance(conjunct, (sp.InList, sp.InSelect)) \
                or conjunct.negated:
            return None
        column = self._own_column(conjunct.needle, alias, scope)
        if not table.indexed(column):
            return None
        eq_est = self._estimate_eq(table, column)
        if isinstance(conjunct, sp.InList):
            items = conjunct.items
            if any(_local_aliases(item, scope) for item in items):
                return None

            def bind_list(stats):
                fns = [self._compile_probe(table, column, item, scope, stats)
                       for item in items]
                return _union_access(
                    table, column, lambda rt: [fn(rt) for fn in fns])

            return ("in-list", column,
                    min(rows, eq_est * max(1, len(items))), bind_list)
        item_aff = self._first_item_affinity(conjunct.select)
        if _converts_left(table.affinities[column], item_aff):
            return None
        sub = self.compile_select(conjunct.select, scope)
        if sub.correlated:
            return None
        # One probe per distinct subquery value; the value count is
        # estimated from the subquery's first table source.
        head = sub.sources[0] if sub.sources else None
        sub_rows = (float(len(head.table.rows))
                    if head is not None and head.kind == "table" else rows)

        def bind_select(stats):
            self._register_sub("IN-SELECT DRIVER", sub)
            return _union_access(
                table, column, sub.first_column_values,
                _probe_coercion(table.affinities[column], item_aff))

        return ("in-select", column, min(rows, eq_est * sub_rows),
                bind_select)

    def _compile_probe(self, table: MemoryTable, column: str, other: Any,
                       scope: _Scope, stats: Dict) -> Callable:
        """``other`` compiled as the value ``table``'s index on
        ``column`` is probed with (see :func:`_probe_coercion`)."""
        fn = self.compile_expr(other, scope, stats)
        coerce = _probe_coercion(table.affinities[column],
                                 self._operand_affinity(other, scope))
        return fn if coerce is None else _wrap(fn, coerce)

    @staticmethod
    def _is_unique_column(table: MemoryTable, column: str) -> bool:
        if table.ipk == column:
            return True
        if len(table.tdef.primary_key) == 1 \
                and table.tdef.primary_key[0] == column:
            return True
        return any(len(cols) == 1 and cols[0] == column
                   for cols in table.tdef.unique)

    def _estimate_eq(self, table: MemoryTable, column: str) -> float:
        """Expected rows of one equality lookup on ``column``."""
        return pl.estimate_eq_rows(
            len(table.rows), len(table.eq_indexes.get(column, ())),
            self._is_unique_column(table, column))

    @staticmethod
    def _own_column(node: Any, alias: str, scope: _Scope) -> Optional[str]:
        """The column's name when ``node`` is a column of ``alias``, a
        source of the select being compiled; None for anything else."""
        if not isinstance(node, sp.Col):
            return None
        try:
            depth, resolved, _slot = scope.resolve(node.table, node.name)
        except MemoryEngineError:
            return None
        return node.name if depth == 0 and resolved == alias else None

    def _comparison_on(self, conjunct: Any, alias: str, scope: _Scope,
                       allowed: set) -> Optional[Tuple[str, str, Any]]:
        """``(column, op, other)`` when ``conjunct`` compares a column of
        ``alias`` with an expression that reads no row of this select
        but those of ``allowed`` aliases (outer rows and parameters are
        always fine), by a comparison that leaves the column as stored —
        an index over stored values can answer it.  ``op`` is as read
        with the column on the left."""
        if not (isinstance(conjunct, sp.Bin) and conjunct.op in _MIRRORED):
            return None
        for col_side, other, op in (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _MIRRORED[conjunct.op])):
            column = self._own_column(col_side, alias, scope)
            if column is None or _local_aliases(other, scope) - allowed:
                continue
            if _converts_left(scope.column_affinity(alias, column),
                              self._operand_affinity(other, scope)):
                continue
            return column, op, other
        return None

    @staticmethod
    def _pinned_prefix(table: MemoryTable,
                       pinned: Dict[str, Any]) -> Optional[Tuple[str, ...]]:
        """The prefix index whose every column an equality pins."""
        return next((columns for columns in table.prefix_indexes
                     if all(column in pinned for column in columns)), None)

    @staticmethod
    def _estimate_prefix(table: MemoryTable,
                         columns: Tuple[str, ...]) -> float:
        return pl.estimate_eq_rows(len(table.rows),
                                   len(table.prefix_indexes[columns]))

    def _prefix_access(self, table: MemoryTable, columns: Tuple[str, ...],
                       pinned: Dict[str, Tuple[int, Any]],
                       upper: Optional[Tuple[int, str, Any]],
                       scope: _Scope, stats: Dict) -> "_Access":
        """The prefix index probed with the pinned values, its keys cut
        at ``upper`` — ``(position, op, expr)`` of a rowid bound — when
        there is one."""
        fns = [self._compile_probe(table, column, pinned[column][1],
                                   scope, stats) for column in columns]
        probe = table.probe_prefix
        cut = None
        if upper is not None:
            _position, op, other = upper
            bound_fn = self.compile_expr(other, scope, stats)
            coerce = _comparison_coercions(
                table.affinities[table.ipk],
                self._operand_affinity(other, scope))[1]
            if coerce is not None:
                bound_fn = _wrap(bound_fn, coerce)
            cut = (bound_fn, op == "<=")
        access = _keyed_access(
            table, lambda rt: probe(columns, [fn(rt) for fn in fns]), cut)
        if cut is None:
            count = table.count_prefix
            access.count = lambda rt: count(columns, [fn(rt) for fn in fns])
        return access

    def _try_hash_join(self, conjunct: Any, plan: "_SourcePlan",
                       scope: _Scope, bound: List[str],
                       stats: Dict) -> Optional["_Access"]:
        """ON-clause access path into a subquery source, `new.col =
        expr(bound aliases | outer)`: a hash join, whose buckets are
        built here, so both sides can take their coercion."""
        if not (isinstance(conjunct, sp.Bin) and conjunct.op == "="):
            return None
        for col_side, other in ((conjunct.left, conjunct.right),
                                (conjunct.right, conjunct.left)):
            column = self._own_column(col_side, plan.alias, scope)
            if column is None or _local_aliases(other, scope) - set(bound):
                continue
            co_key, co_other = _comparison_coercions(
                None, self._operand_affinity(other, scope))
            fn = self.compile_expr(other, scope, stats)
            if co_other is not None:
                fn = _wrap(fn, co_other)
            return _hash_access(plan, column, fn, co_key)
        return None
