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
render, an identifier template once per table, so a write to a
lifecycle column is judged by these rules wherever it is spelled.  The runtime transition ledger
(``StatementCounts.transitions`` — observed ⊆ declared is a tier-1
test) checks the same declaration from the other side, and the pool's
statistics page shows the edges it walked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.condorj2.analysis.extract import Corpus
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.schema import BORN, GONE, LIFECYCLES, LifecycleDef
from repro.condorj2.storage.transitions import TransitionSpec, transition_spec

__all__ = ["check_lifecycles"]


@dataclass
class TableGraph:
    """One lifecycle table's declared and statically-implied graphs."""

    lifecycle: LifecycleDef
    #: Edges some statement implies.
    implied: Set[Tuple[str, str]] = field(default_factory=set)
    #: From-states covered by a guarded write whose target state is a
    #: parameter (the heartbeat's reported-state batch): any outgoing
    #: edge from these states may be walked at runtime.
    dynamic_sources: Set[str] = field(default_factory=set)
    #: A parameter-bound INSERT exists, so any creation state may occur.
    dynamic_creates: bool = False

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


def _spec_findings(graph: TableGraph, spec: TransitionSpec,
                   site_file: str, site_line: int,
                   statement: str) -> List[Finding]:
    """Fold one statement's spec into the graph; return its findings."""
    lifecycle = graph.lifecycle
    findings: List[Finding] = []

    def illegal(source: str, target: str) -> Finding:
        return make_finding(
            "illegal-transition", site_file, site_line,
            f"{lifecycle.table}: transition {source!r} -> {target!r} is not "
            f"in the declared lifecycle", statement)

    if spec.verb == "INSERT":
        if spec.to_state is not None:
            graph.implied.add((BORN, spec.to_state))
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
            graph.implied.add((source, spec.to_state))
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
                graph.implied.add((source, GONE))
        return findings
    for source in spec.guard_states:
        graph.implied.add((source, GONE))
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
