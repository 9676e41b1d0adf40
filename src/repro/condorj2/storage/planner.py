"""Rule-based query planning for the memory engine.

This module is the optimization layer between the dialect parser
(:mod:`repro.condorj2.storage.sqlparser`) and the memory engine's
compiler and executors (:mod:`repro.condorj2.storage.compiler`,
:mod:`repro.condorj2.storage.plans`).  It is deliberately split in two
halves:

* **Pure AST analysis** — everything here operates on parser dataclasses
  and plain numbers, with no reference to engine state.  The executor
  feeds in cheap table statistics (live row counts and per-index distinct
  counts) and gets back *decisions*: which WHERE conjunct should drive a
  scan (:func:`choose_driver`), whether a correlated EXISTS can be
  rewritten into a hash semi-join (:func:`decorrelate_exists`), what
  order an order-insensitive join tree should run in
  (:func:`order_sources_by_cardinality`), and whether a ROW_NUMBER
  window can be fused with the outer ORDER BY/LIMIT into a single top-K
  sort (:func:`fusable_window_items`).

* **The EXPLAIN surface** — :class:`PlanNode` / :class:`ExplainReport`
  are the engine-neutral plan tree both backends render: the memory
  engine builds it from its compiled closure plans (with estimated vs.
  actual row counts and per-operator timings when profiled), SQLite maps
  ``EXPLAIN QUERY PLAN`` rows into the same shape.

Statistics are advisory-only: a compiled plan is keyed by statement text
and survives data changes, so every rewrite emitted here must be *safe*
under arbitrary statistics drift — a stale estimate may cost time, never
correctness.  That is why join reordering is only offered for
order-insensitive contexts (semi-join build sides, EXISTS probes) where
row order cannot leak into results, and why the decorrelated semi-join
keeps the original correlated plan as its small-outer fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.condorj2.storage import sqlparser as sp


# ----------------------------------------------------------------------
# the EXPLAIN plan tree (shared by both engines)
# ----------------------------------------------------------------------

@dataclass
class PlanNode:
    """One operator in an engine's chosen plan.

    ``est_rows`` is the planner's compile-time estimate; ``actual_rows``,
    ``actual_loops`` and ``seconds`` are filled by a profiled execution
    (``loops`` counts how many times the operator ran — a probed join
    side runs once per driving row).
    """

    op: str
    detail: str = ""
    est_rows: Optional[float] = None
    actual_rows: Optional[int] = None
    actual_loops: Optional[int] = None
    seconds: Optional[float] = None
    children: List["PlanNode"] = field(default_factory=list)

    def _annotations(self) -> str:
        parts = []
        if self.est_rows is not None:
            parts.append(f"est={self.est_rows:g}")
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows}")
        if self.actual_loops is not None and self.actual_loops != 1:
            parts.append(f"loops={self.actual_loops}")
        if self.seconds is not None:
            parts.append(f"time={self.seconds * 1e3:.3f}ms")
        return f"  ({' '.join(parts)})" if parts else ""

    def render(self, depth: int = 0) -> List[str]:
        label = f"{self.op} {self.detail}".rstrip()
        lines = [f"{'  ' * depth}{label}{self._annotations()}"]
        for child in self.children:
            lines.extend(child.render(depth + 1))
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "detail": self.detail,
            "est_rows": self.est_rows,
            "actual_rows": self.actual_rows,
            "actual_loops": self.actual_loops,
            "seconds": self.seconds,
            "children": [child.to_dict() for child in self.children],
        }


@dataclass
class ExplainReport:
    """An engine's answer to ``explain(sql)``: the plan tree plus the
    context needed to render it standalone."""

    sql: str
    engine: str
    root: PlanNode

    def render(self) -> str:
        return "\n".join(self.root.render())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sql": self.sql,
            "engine": self.engine,
            "plan": self.root.to_dict(),
        }


# ----------------------------------------------------------------------
# expression predicates
# ----------------------------------------------------------------------
# All of them stay inside one query's own expressions
# (``sp.walk(..., nested=False)``): a window or an aggregate inside a
# subquery belongs to that subquery.

def contains_subselect(node: Any) -> bool:
    return any(
        isinstance(n, (sp.InSelect, sp.Exists, sp.ScalarSelect))
        for n in sp.walk(node, nested=False)
    )


def contains_window(node: Any) -> bool:
    return any(isinstance(n, sp.WindowFunc)
               for n in sp.walk(node, nested=False))


def contains_aggregate(node: Any) -> bool:
    return any(
        isinstance(n, sp.Func) and n.name in sp.AGGREGATES
        for n in sp.walk(node, nested=False)
    )


def column_refs(node: Any) -> Iterator[sp.Col]:
    for n in sp.walk(node, nested=False):
        if isinstance(n, sp.Col):
            yield n


def conjoin(conjuncts: Sequence[Any]) -> Optional[Any]:
    """Inverse of :func:`sqlparser.split_conjuncts`."""
    result: Optional[Any] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else sp.Bin("AND", result, conjunct)
    return result


# ----------------------------------------------------------------------
# cardinality estimation and driver selection
# ----------------------------------------------------------------------

def estimate_eq_rows(total_rows: int, distinct_values: int,
                     unique: bool = False) -> float:
    """Expected rows matching ``col = value`` under a uniform spread."""
    if unique:
        return 1.0
    if total_rows <= 0:
        return 0.0
    return total_rows / max(1, distinct_values)


@dataclass
class DriverCandidate:
    """One access path usable as the scan driver for a single table: a
    WHERE conjunct, or the equalities that pin a prefix index.

    ``position`` is the caller's handle on the candidate — selection is
    stable on ties so plans don't flap between equally priced
    candidates.
    """

    position: int
    kind: str  # 'eq' | 'in-list' | 'in-select'
    column: str
    est_rows: float


def choose_driver(
    candidates: Sequence[DriverCandidate],
) -> Optional[DriverCandidate]:
    """The cheapest access path by estimated cardinality.

    Statistics are advisory: any candidate is *correct* (the conjuncts
    not chosen are applied as filters), so a stale estimate can only
    cost time.  Ties keep source order.
    """
    best: Optional[DriverCandidate] = None
    for candidate in candidates:
        if best is None or candidate.est_rows < best.est_rows:
            best = candidate
    return best


# ----------------------------------------------------------------------
# static access-path advice (no engine required)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AccessAdvice:
    """The costing verdict for one table access, computed statically.

    This is the planner's driver-selection rule applied to *declared*
    access paths instead of live statistics: both the memory engine's
    executor and the static index advisor ask «given these equality
    conjuncts, is there an index/PK/unique whose leading column lets the
    scan probe instead of walking the table?».  ``supported`` carries
    the name of the chosen path; ``suggested_columns`` is the covering
    index a full scan would need (empty when supported or when there is
    nothing to index).
    """

    table: str
    eq_columns: Tuple[str, ...]
    supported: Optional[str]
    suggested_columns: Tuple[str, ...]

    @property
    def full_scan(self) -> bool:
        return self.supported is None and bool(self.eq_columns)


def advise_equality_access(
    table: str,
    eq_columns: Sequence[str],
    primary_key: Sequence[str] = (),
    unique: Sequence[Sequence[str]] = (),
    indexes: Mapping[str, Sequence[str]] = {},
) -> AccessAdvice:
    """Pure costing entry point: can these equality conjuncts be driven?

    An access path supports the scan when its *leading* column appears
    among the equality conjuncts — the same leftmost-prefix rule the
    engines' index probes implement.  Declared paths are tried in a
    deterministic order (primary key, unique constraints, secondary
    indexes) so advice is stable across runs.  When nothing supports the
    scan the advice names the index to create: the equality columns in
    statement order, which makes every conjunct a probe key.
    """
    eq = tuple(dict.fromkeys(eq_columns))  # dedupe, keep statement order
    if not eq:
        return AccessAdvice(table=table, eq_columns=(), supported=None,
                            suggested_columns=())
    if primary_key and primary_key[0] in eq:
        return AccessAdvice(table=table, eq_columns=eq,
                            supported="primary key", suggested_columns=())
    for columns in unique:
        if columns and columns[0] in eq:
            name = f"unique({', '.join(columns)})"
            return AccessAdvice(table=table, eq_columns=eq,
                                supported=name, suggested_columns=())
    for name in sorted(indexes):
        columns = indexes[name]
        if columns and columns[0] in eq:
            return AccessAdvice(table=table, eq_columns=eq,
                                supported=name, suggested_columns=())
    return AccessAdvice(table=table, eq_columns=eq, supported=None,
                        suggested_columns=eq)


# ----------------------------------------------------------------------
# join reordering (order-insensitive contexts only)
# ----------------------------------------------------------------------

def _sources_all_reorderable(sources: Sequence[sp.Source]) -> bool:
    return all(
        src.kind == "table" and src.join in ("first", "inner")
        for src in sources
    )


def _owning_alias(col: sp.Col, own_columns: Mapping[str, Sequence[str]]
                  ) -> Optional[str]:
    """The local source alias a column reference resolves to, or None
    for outer references (and unresolvable names, which the compiler
    will reject loudly later)."""
    if col.table is not None:
        return col.table if col.table in own_columns else None
    for alias, columns in own_columns.items():
        if col.name in columns:
            return alias
    return None


def order_sources_by_cardinality(
    sources: Sequence[sp.Source],
    conjuncts: Sequence[Any],
    own_columns: Mapping[str, Sequence[str]],
    row_counts: Mapping[str, float],
) -> Optional[Tuple[List[sp.Source], List[Any]]]:
    """Greedy cheapest-first join order for an **order-insensitive** tree.

    Only valid where row order cannot reach the result (EXISTS probes,
    semi-join build sides, IN-subquery value sets) — reordering an
    ordinary SELECT would change row interleaving and break the
    byte-identical differential contract against SQLite.

    All inner-join ON conjuncts and WHERE conjuncts are pooled, sources
    are ordered smallest-estimated-first preferring ones connected by an
    equality edge to an already-placed source (so the executor can keep
    probing indexes), and each conjunct is re-attached to the latest
    source it mentions.  Returns ``(sources, where_conjuncts)`` with
    fresh :class:`~repro.condorj2.storage.sqlparser.Source` nodes, or
    None when the shape is not safely reorderable (non-table sources,
    LEFT/CROSS joins, unresolvable or subquery-bearing conjuncts).
    """
    if len(sources) < 2 or not _sources_all_reorderable(sources):
        return None

    pool: List[Any] = list(conjuncts)
    for src in sources:
        pool.extend(sp.split_conjuncts(src.on))

    # Map each conjunct to the set of local aliases it references; give
    # up on anything that nests a subquery (its correlation structure is
    # not worth modelling here).
    aliases = [src.alias for src in sources]
    mentioned: List[set] = []
    for conjunct in pool:
        if contains_subselect(conjunct) or contains_window(conjunct):
            return None
        refs = set()
        for col in column_refs(conjunct):
            owner = _owning_alias(col, own_columns)
            if owner is None:
                return None  # outer reference — leave order alone
            refs.add(owner)
        mentioned.append(refs)

    # Equality edges between sources: `a.x = b.y` style conjuncts.
    edges: Dict[str, set] = {alias: set() for alias in aliases}
    for conjunct, refs in zip(pool, mentioned):
        if (isinstance(conjunct, sp.Bin) and conjunct.op == "="
                and len(refs) == 2):
            left, right = sorted(refs)
            edges[left].add(right)
            edges[right].add(left)

    def cost(alias: str) -> float:
        return row_counts.get(alias, float("inf"))

    remaining = list(aliases)
    ordered: List[str] = []
    while remaining:
        connected = [a for a in remaining
                     if any(b in edges[a] for b in ordered)]
        pick_from = connected if (ordered and connected) else remaining
        best = min(pick_from, key=lambda a: (cost(a), aliases.index(a)))
        ordered.append(best)
        remaining.remove(best)

    if ordered == aliases:
        return None  # already optimal — keep the original plan objects

    by_alias = {src.alias: src for src in sources}
    new_sources: List[sp.Source] = []
    where_conjuncts: List[Any] = []
    placed: set = set()
    for index, alias in enumerate(ordered):
        old = by_alias[alias]
        join = "first" if index == 0 else "inner"
        new_sources.append(sp.Source(
            kind=old.kind, name=old.name, subquery=old.subquery,
            arg=old.arg, alias=old.alias, join=join, on=None,
        ))
        placed.add(alias)
        if index == 0:
            continue
        on_parts = [c for c, refs in zip(pool, mentioned)
                    if alias in refs and refs <= placed]
        new_sources[-1].on = conjoin(on_parts)
    first = ordered[0]
    for conjunct, refs in zip(pool, mentioned):
        if refs <= {first} or not refs:
            where_conjuncts.append(conjunct)
    return new_sources, where_conjuncts


# ----------------------------------------------------------------------
# EXISTS decorrelation -> hash semi-join
# ----------------------------------------------------------------------

@dataclass
class Decorrelation:
    """A correlated EXISTS rewritten into a probeable hash semi-join.

    ``pairs`` are the correlation equalities as ``(local_expr,
    outer_expr)``; ``build_select`` is a synthesized *uncorrelated*
    SELECT producing one key column per pair over the residual-filtered
    subquery rows.  ``EXISTS`` over the original subquery is then
    exactly «the tuple of outer keys is in the build select's result
    set», with SQL NULL semantics preserved by dropping NULL keys from
    the build side and failing NULL probes (``NULL = x`` is never true).
    """

    pairs: List[Tuple[Any, Any]]
    build_select: sp.Select


def decorrelate_exists(
    select: sp.Select,
    own_columns: Mapping[str, Sequence[str]],
    row_counts: Optional[Mapping[str, float]] = None,
) -> Optional[Decorrelation]:
    """Rewrite a correlated EXISTS subquery into :class:`Decorrelation`.

    Applicable when every correlated WHERE conjunct is an equality with
    one purely-local and one purely-outer side, all FROM sources are
    plain inner-joined tables whose ON clauses are outer-free, and no
    LIMIT/GROUP BY/HAVING/DISTINCT/ORDER BY could change existence
    semantics.  Returns None when the subquery should stay correlated.

    With ``row_counts`` (alias -> estimated rows) the build side is also
    run through :func:`order_sources_by_cardinality` — the build result
    is a set, so join order is free to follow the statistics.
    """
    if (select.limit is not None or select.group_by or select.distinct
            or select.having is not None or select.order_by):
        return None
    if not select.sources or not _sources_all_reorderable(select.sources):
        return None

    def side_scope(expr: Any) -> Optional[str]:
        """'local' / 'outer' / None (mixed or empty-of-columns)."""
        saw_local = saw_outer = False
        for col in column_refs(expr):
            if _owning_alias(col, own_columns) is None:
                saw_outer = True
            else:
                saw_local = True
        if saw_local and saw_outer:
            return None
        if saw_outer:
            return "outer"
        return "local"  # column-free sides build/probe a constant key

    for src in select.sources:
        for conjunct in sp.split_conjuncts(src.on):
            if contains_subselect(conjunct) or contains_window(conjunct):
                return None
            if side_scope(conjunct) != "local":
                return None

    pairs: List[Tuple[Any, Any]] = []
    residual: List[Any] = []
    for conjunct in sp.split_conjuncts(select.where):
        if contains_subselect(conjunct) or contains_window(conjunct):
            return None
        scope = side_scope(conjunct)
        if scope == "local":
            residual.append(conjunct)
            continue
        if not (isinstance(conjunct, sp.Bin) and conjunct.op == "="):
            return None
        left_scope = side_scope(conjunct.left)
        right_scope = side_scope(conjunct.right)
        if left_scope == "local" and right_scope == "outer":
            pairs.append((conjunct.left, conjunct.right))
        elif left_scope == "outer" and right_scope == "local":
            pairs.append((conjunct.right, conjunct.left))
        else:
            return None
    if not pairs:
        return None  # uncorrelated — the per-execution result cache wins

    sources: List[sp.Source] = list(select.sources)
    if row_counts is not None:
        reordered = order_sources_by_cardinality(
            sources, residual, own_columns, row_counts)
        if reordered is not None:
            sources, residual = reordered
    items = [
        sp.SelectItem(expr=local, alias=None, text=f"k{index}")
        for index, (local, _outer) in enumerate(pairs)
    ]
    build = sp.Select(items=items, sources=sources, where=conjoin(residual))
    return Decorrelation(pairs=pairs, build_select=build)


# ----------------------------------------------------------------------
# window / ORDER BY / LIMIT fusion
# ----------------------------------------------------------------------

def fusable_window_items(select: sp.Select) -> Optional[List[int]]:
    """Item indexes whose ROW_NUMBER window fuses with the outer sort.

    When every windowed item is a bare ``ROW_NUMBER() OVER (ORDER BY
    ...)`` whose window order equals the select's ORDER BY (structural
    AST equality), the rank *is* the output position: one sort replaces
    the per-window ranking sorts plus the final ORDER BY sort, LIMIT
    turns it into a top-K selection, and rows never need buffering as
    re-enterable environments.  Returns None when the select must take
    the general buffered path.
    """
    if not select.order_by or select.group_by or select.distinct:
        return None
    if select.having is not None:
        return None
    fused: List[int] = []
    for index, item in enumerate(select.items):
        expr = item.expr
        if isinstance(expr, sp.Star):
            continue
        if isinstance(expr, sp.WindowFunc):
            if expr.name != "ROW_NUMBER":
                return None
            if list(expr.order_by) != list(select.order_by):
                return None
            fused.append(index)
            continue
        if contains_window(expr) or contains_aggregate(expr):
            return None
    if not fused:
        return None
    for expr, _desc in select.order_by:
        if contains_window(expr) or contains_aggregate(expr):
            return None
    if select.where is not None and contains_window(select.where):
        return None
    return fused
