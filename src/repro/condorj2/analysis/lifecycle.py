"""Lifecycle tier of the static analyzer: cross-statement reasoning.

PR 6's checker validates each SQL statement against the schema in
isolation; this pass reasons about the *set* of statements.  For every
declared lifecycle machine (:data:`repro.condorj2.schema.LIFECYCLES`) it
builds the statically-implied transition graph from the extracted
corpus — each ``UPDATE … SET state = …`` with a literal
``state``/``state IN`` guard implies the edges guard-state → target,
a guarded DELETE implies edges into the ``(gone)`` pseudo-state, and an
INSERT's literal or default state implies a creation edge out of
``(new)`` — then checks that graph against the declaration:

* ``illegal-transition`` (error) — a statement implies an edge the
  declared relation forbids;
* ``unguarded-state-write`` (error) — an UPDATE sets the state column
  with no ``state =``/``state IN`` predicate in its WHERE clause, so
  the from-state is unconstrained and *every* transition is possible;
* ``unimplemented-transition`` (advice) — a declared state-to-state
  edge no statement implements (a parameter-bound write whose guard
  covers the source state discharges the edge);
* ``dead-state`` (advice) — a state no statement can ever write.

Every render of every statement is read: a constant text is its own
render, an identifier template (the container's generic INSERT) is
rendered once per bean, so a write to a lifecycle column is judged by
these rules wherever it is spelled.  The runtime transition ledger
(``StatementCounts.transitions`` — observed ⊆ declared is a tier-1
test) checks the same declaration from the other side.  The graphs feed
the CLI's ``--report transitions`` mode and the DOT/JSON exports next to
the findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.condorj2.analysis.extract import Corpus
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.schema import BORN, GONE, LIFECYCLES, LifecycleDef
from repro.condorj2.storage.transitions import TransitionSpec, transition_spec

__all__ = [
    "TableGraph",
    "build_graphs",
    "check_lifecycles",
    "graphs_to_dot",
    "graphs_to_json",
    "transition_coverage",
]


@dataclass
class TableGraph:
    """One lifecycle table's declared and statically-implied graphs."""

    lifecycle: LifecycleDef
    #: Implied edge -> the ``file:line`` sites implying it.
    implied: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    #: From-states covered by a guarded write whose target state is a
    #: parameter (the heartbeat's reported-state batch): any outgoing
    #: edge from these states may be walked at runtime.
    dynamic_sources: Set[str] = field(default_factory=set)
    #: A parameter-bound INSERT exists, so any creation state may occur.
    dynamic_creates: bool = False

    @property
    def table(self) -> str:
        return self.lifecycle.table

    def add_edge(self, source: str, target: str, site: str) -> None:
        self.implied.setdefault((source, target), []).append(site)

    def unimplemented(self) -> List[Tuple[str, str]]:
        """Declared state-to-state edges nothing implements."""
        return [
            (source, target)
            for source, target in self.lifecycle.state_edges()
            if (source, target) not in self.implied
            and source not in self.dynamic_sources
        ]

    def dead_states(self) -> List[str]:
        """States no statement can write (dynamic writes waive all)."""
        if self.dynamic_sources or self.dynamic_creates:
            return []
        written = {target for _, target in self.implied}
        return [state for state in self.lifecycle.states
                if state not in written]

    def to_dict(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "column": self.lifecycle.column,
            "states": list(self.lifecycle.states),
            "create_states": sorted(self.lifecycle.create_states),
            "delete_states": sorted(self.lifecycle.delete_states),
            "declared": [list(edge) for edge in self.lifecycle.edges()],
            "implied": [
                {"from": source, "to": target, "sites": sites}
                for (source, target), sites in sorted(self.implied.items())
            ],
            "dynamic_sources": sorted(self.dynamic_sources),
            "dynamic_creates": self.dynamic_creates,
            "unimplemented": [list(edge) for edge in self.unimplemented()],
            "dead_states": self.dead_states(),
        }


def _spec_findings(graph: TableGraph, spec: TransitionSpec,
                   site_file: str, site_line: int,
                   statement: str) -> List[Finding]:
    """Fold one statement's spec into the graph; return its findings."""
    lifecycle = graph.lifecycle
    site = f"{site_file}:{site_line}"
    findings: List[Finding] = []

    def illegal(source: str, target: str) -> Finding:
        return make_finding(
            "illegal-transition", site_file, site_line,
            f"{lifecycle.table}: transition {source!r} -> {target!r} is not "
            f"in the declared lifecycle", statement)

    if spec.verb == "INSERT":
        if spec.to_state is not None:
            graph.add_edge(BORN, spec.to_state, site)
            if not lifecycle.allows(BORN, spec.to_state):
                findings.append(illegal(BORN, spec.to_state))
        elif spec.to_param is not None or spec.to_named is not None:
            graph.dynamic_creates = True
        return findings

    if spec.verb == "UPDATE":
        if spec.guard_states is None:
            findings.append(make_finding(
                "unguarded-state-write", site_file, site_line,
                f"UPDATE {lifecycle.table} writes {lifecycle.column} with no "
                f"{lifecycle.column} predicate in WHERE: any transition is "
                f"possible", statement))
            return findings
        if spec.to_state is None:
            graph.dynamic_sources.update(spec.guard_states)
            return findings
        for source in spec.guard_states:
            graph.add_edge(source, spec.to_state, site)
            if not lifecycle.allows(source, spec.to_state):
                findings.append(illegal(source, spec.to_state))
        return findings

    # DELETE
    if spec.guard_states is None:
        if not lifecycle.delete_states:
            findings.append(make_finding(
                "illegal-transition", site_file, site_line,
                f"{lifecycle.table}: DELETE but the lifecycle declares no "
                f"deletable states", statement))
        else:
            for source in lifecycle.delete_states:
                graph.add_edge(source, GONE, site)
        return findings
    for source in spec.guard_states:
        graph.add_edge(source, GONE, site)
        if not lifecycle.allows(source, GONE):
            findings.append(illegal(source, GONE))
    return findings


def build_graphs(corpus: Corpus) -> Tuple[Dict[str, TableGraph],
                                          List[Finding]]:
    """The per-table graphs and per-site findings for ``corpus``."""
    graphs = {table: TableGraph(lifecycle)
              for table, lifecycle in LIFECYCLES.items()}
    findings: List[Finding] = []
    for statement in corpus.statements:
        for sql in statement.renders:
            spec = transition_spec(sql)
            if spec is not None:
                findings.extend(_spec_findings(
                    graphs[spec.table], spec, statement.file,
                    statement.line, sql))
    return graphs, findings


def check_lifecycles(corpus: Corpus) -> List[Finding]:
    """All lifecycle findings for ``corpus``, advisories included."""
    graphs, findings = build_graphs(corpus)
    for table in sorted(graphs):
        graph = graphs[table]
        missing = graph.unimplemented()
        if missing:
            edges = ", ".join(f"{s}->{t}" for s, t in missing)
            findings.append(make_finding(
                "unimplemented-transition", "schema.py", 1,
                f"{table}: declared transitions no statement implements: "
                f"{edges}"))
        dead = graph.dead_states()
        if dead:
            findings.append(make_finding(
                "dead-state", "schema.py", 1,
                f"{table}: no statement can write state(s) "
                f"{', '.join(repr(s) for s in dead)}"))
    return findings


def graphs_to_json(graphs: Dict[str, TableGraph]) -> Dict[str, object]:
    return {"version": 1,
            "tables": [graphs[table].to_dict() for table in sorted(graphs)]}


def transition_coverage(
        observed: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, object]]:
    """Runtime transition-coverage report against the declarations.

    ``observed`` is :attr:`StatementCounts.transitions` — per table,
    ``"from->to"`` edge strings to affected-row counts.  For each
    lifecycle table the report gives the declared edge count, which
    declared edges the workload actually walked, the coverage fraction
    and any observed edge outside the declaration (``illegal`` — the
    runtime cross-check test asserts this list is empty).
    """
    report: Dict[str, Dict[str, object]] = {}
    for table, lifecycle in sorted(LIFECYCLES.items()):
        declared = set(lifecycle.edges())
        seen: Set[Tuple[str, str]] = set()
        illegal: List[Tuple[str, str]] = []
        for edge in observed.get(table, {}):
            source, target = edge.split("->", 1)
            if source == target:
                continue
            seen.add((source, target))
            if not lifecycle.allows(source, target):
                illegal.append((source, target))
        covered = sorted(declared & seen)
        report[table] = {
            "declared": len(declared),
            "observed": sorted(seen),
            "covered": covered,
            "uncovered": sorted(declared - seen),
            "coverage": (len(covered) / len(declared)) if declared else 1.0,
            "illegal": sorted(illegal),
        }
    return report


def _dot_name(table: str, state: str) -> str:
    return f'"{table}.{state}"'


def graphs_to_dot(graphs: Dict[str, TableGraph]) -> str:
    """The declared ∪ implied graphs as Graphviz DOT, one cluster per
    table: solid = declared and implemented, dashed = declared only,
    bold red = implied but not declared (an illegal transition)."""
    lines = ["digraph lifecycles {", "  rankdir=LR;",
             "  node [shape=box, fontsize=10];"]
    for table in sorted(graphs):
        graph = graphs[table]
        lifecycle = graph.lifecycle
        declared = set(lifecycle.edges())
        states = [BORN, *lifecycle.states, GONE]
        lines.append(f"  subgraph cluster_{table} {{")
        lines.append(f'    label="{table}";')
        for state in states:
            if state in (BORN, GONE):
                style = ' [shape=plaintext, label="{}"]'.format(state)
            else:
                style = ""
            lines.append(f"    {_dot_name(table, state)}{style};")
        seen = set()
        for source, target in sorted(declared):
            attrs = ("" if (source, target) in graph.implied
                     or source in graph.dynamic_sources
                     else " [style=dashed]")
            lines.append(f"    {_dot_name(table, source)} -> "
                         f"{_dot_name(table, target)}{attrs};")
            seen.add((source, target))
        for source, target in sorted(graph.implied):
            if source == target or (source, target) in seen:
                continue
            attrs = ("" if lifecycle.allows(source, target)
                     else " [color=red, style=bold]")
            lines.append(f"    {_dot_name(table, source)} -> "
                         f"{_dot_name(table, target)}{attrs};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
