"""Rule-based query planning for the memory engine.

This module is the optimization layer between the dialect parser
(:mod:`repro.condorj2.storage.sqlparser`) and the memory engine's
compiler and executors (:mod:`repro.condorj2.storage.compiler`,
:mod:`repro.condorj2.storage.plans`).  It is deliberately split in two
halves:

* **Pure costing** — everything here operates on plain numbers and
  declared names, with no reference to engine state.  The compiler
  feeds in cheap table statistics (live row counts and per-index distinct
  counts) and gets back *decisions*: which WHERE conjunct should drive a
  scan (:func:`choose_driver`).

* **The EXPLAIN surface** — :class:`PlanNode` / :class:`ExplainReport`
  are the engine-neutral plan tree both backends render: the memory
  engine builds it from its compiled closure plans (with estimated vs.
  actual row counts and per-operator timings when profiled), SQLite maps
  ``EXPLAIN QUERY PLAN`` rows into the same shape.

Statistics are advisory-only: a compiled plan is keyed by statement text
and survives data changes, so every decision made here must be *safe*
under arbitrary statistics drift — a stale estimate may cost time, never
correctness.  That is why the planner only chooses among access paths
and never reorders a join: a correlated EXISTS runs its own plan per
outer row, and its driving index lookup is what keeps that cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


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
