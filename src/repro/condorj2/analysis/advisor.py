"""Index advisor: planner costing rules applied to the static corpus.

For every table source in every (sub)query of a statement, the advisor
collects the *equality conjuncts* that constrain it — ``col = expr``
where the other side does not mention the same source, ``col IN
(...)``, ``col IN (SELECT ...)``, whether they come from the WHERE
clause or a JOIN's ON — and asks the planner's pure costing entry point
(:func:`planner.advise_equality_access`) whether any declared access
path (primary key, unique constraint, secondary index) can drive the
access with its leading column.

A table equality-constrained with no supporting path is a full scan the
schema could have avoided; the ``full-scan`` advice names the index to
add.  Unconstrained driver scans (``SELECT state, COUNT(*) FROM
jobs``) are the workload, not a defect, and are not reported.

This is deliberately the *same* leftmost-prefix rule the memory
engine's executor uses to choose probes, so the advice is about plans
the engines would really run, not a generic heuristic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.condorj2 import schema
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.storage import planner, sqlparser as sp


def _owner(col: sp.Col, locals_: List[Tuple[str, schema.TableDef]]
           ) -> Optional[str]:
    """Which local table source a column reference belongs to."""
    if col.table is not None:
        for alias, _table in locals_:
            if alias == col.table:
                return alias
        return None
    owners = [alias for alias, table in locals_
              if any(c.name == col.name for c in table.columns)]
    return owners[0] if len(owners) == 1 else None


def _mentions(expr, alias: str,
              locals_: List[Tuple[str, schema.TableDef]]) -> bool:
    """Does the expression reference the given source at all?"""
    for node in sp.walk(expr):
        if isinstance(node, sp.Col) and _owner(node, locals_) == alias:
            return True
    return False


def _eq_column(col: sp.Col, alias: str,
               locals_: List[Tuple[str, schema.TableDef]]
               ) -> Optional[str]:
    if isinstance(col, sp.Col) and _owner(col, locals_) == alias:
        return col.name
    return None


def _eq_columns_for(alias: str, table: schema.TableDef, conjuncts: List,
                    locals_: List[Tuple[str, schema.TableDef]]
                    ) -> List[str]:
    """Equality conjunct columns constraining one table source."""
    columns: List[str] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, sp.Bin) and conjunct.op in ("=", "=="):
            for side, other in ((conjunct.left, conjunct.right),
                                (conjunct.right, conjunct.left)):
                if not isinstance(side, sp.Col):
                    continue
                name = _eq_column(side, alias, locals_)
                if name is not None and not _mentions(other, alias, locals_):
                    columns.append(name)
        elif isinstance(conjunct, sp.InList) and not conjunct.negated and \
                isinstance(conjunct.needle, sp.Col):
            name = _eq_column(conjunct.needle, alias, locals_)
            if name is not None and not any(
                    _mentions(item, alias, locals_)
                    for item in conjunct.items):
                columns.append(name)
        elif isinstance(conjunct, sp.InSelect) and not conjunct.negated and \
                isinstance(conjunct.needle, sp.Col):
            name = _eq_column(conjunct.needle, alias, locals_)
            if name is not None:
                columns.append(name)
    return columns


def _advise_scope(sources: List[sp.Source], where, file: str, line: int,
                  sql: str) -> List[Finding]:
    locals_: List[Tuple[str, schema.TableDef]] = []
    for source in sources:
        if source.kind == "table":
            table = schema.TABLE_BY_NAME.get(source.name)
            if table is not None:
                locals_.append((source.alias, table))
    if not locals_:
        return []
    conjuncts = sp.split_conjuncts(where)
    for source in sources:
        conjuncts.extend(sp.split_conjuncts(source.on))

    findings: List[Finding] = []
    for alias, table in locals_:
        eq_columns = _eq_columns_for(alias, table, conjuncts, locals_)
        advice = planner.advise_equality_access(
            table=table.name,
            eq_columns=eq_columns,
            primary_key=table.primary_key,
            unique=table.unique,
            indexes={index.name: index.columns for index in table.indexes},
        )
        if advice.full_scan:
            suggested = ", ".join(advice.suggested_columns)
            findings.append(make_finding(
                "full-scan", file, line,
                f"equality predicate on {table.name}"
                f"({', '.join(advice.eq_columns)}) has no supporting "
                f"index; consider CREATE INDEX ON "
                f"{table.name}({suggested})",
                statement=sql))
    return findings


def advise(node, file: str, line: int, sql: str) -> List[Finding]:
    """Full-scan advisories for every (sub)query scope of a statement."""
    findings: List[Finding] = []
    for current in sp.walk(node):
        if isinstance(current, sp.Select):
            findings.extend(_advise_scope(
                current.sources, current.where, file, line, sql))
        elif isinstance(current, (sp.Update, sp.Delete)):
            source = sp.Source("table", current.table, None, None,
                               current.table, "first", None)
            findings.extend(_advise_scope(
                [source], current.where, file, line, sql))
    return findings
