"""Centralized statement accounting for the storage engine.

The application server turns these counts into simulated CPU/IO charges
(DESIGN.md section 3).  The invariant that makes the cost model honest is
that **batched execution still counts per row**: an ``executemany`` over
500 job tuples charges 500 inserts of CPU, exactly as 500 individual
statements would — what batching saves is per-statement dispatch (one
``batches`` tick instead of 500) and statement preparation (the LRU
prepared-statement cache turns repeated SQL text into ``prepared_hits``).

Accounting is engine-neutral: every :class:`~repro.condorj2.storage.engine.
StorageEngine` implementation records through the same code paths, so a
workload replayed against two backends must produce *equal*
:class:`StatementCounts` — the property the differential fuzz harness
asserts.

Two derived classifications live here because every engine needs them:

* :func:`statement_verb` — the statement's accounting verb (the leading
  keyword, with ``WITH``-prefixed CTEs resolved to their main verb);
* :func:`statement_table` — the statement's *principal table* (the DML
  target, or the first ``FROM`` table of a query), which keys the
  per-table statistics the pool web site renders.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter, sub
from typing import Any, Dict, Tuple

#: Verbs whose per-table statistics count *written rows*.
WRITE_VERBS = ("INSERT", "UPDATE", "DELETE")

#: Accounting verb -> the scalar counter and per-table ledger key it
#: feeds; every other verb is charged to ``other``.
_VERB_KEYS = {verb: verb.lower() for verb in ("SELECT",) + WRITE_VERBS}


def _combine(left: Any, right: Any, sign: int) -> Any:
    """``left + sign * right`` over a counter or a (nested) ledger dict.

    Ledger keys keep first-seen order (``left``'s, then ``right``'s new
    ones); entries that come out zero or empty are dropped.
    """
    if not isinstance(left, dict):
        return left + sign * right
    combined = {}
    for key, sample in {**left, **right}.items():
        zero: Any = {} if isinstance(sample, dict) else 0
        value = _combine(left.get(key, zero), right.get(key, zero), sign)
        if value:
            combined[key] = value
    return combined


@dataclass
class StatementCounts:
    """Running counts of executed statements, by verb.

    ``select``/``insert``/``update``/``delete``/``other`` count *rows of
    work*: one per SELECT, one per row affected by set-oriented DML, one
    per parameter row of a batched statement.  ``statements`` counts
    dispatches (one per ``execute``/``executemany`` call — the quantity
    that must stay O(1) per scheduling pass), ``batches`` counts batched
    dispatches, ``prepared_misses`` counts statement-cache compilations
    and ``prepared_hits`` counts reuses of an already-prepared statement.

    ``statements`` is also the ledger both halves of the
    dispatch-complexity story read (DESIGN.md section 9.2): the service
    gateway meters each call's ``mark()``/``since()`` of it against
    the contract's declared ``statement_budget``, and the static
    analyzer (:mod:`repro.condorj2.analysis.dispatch`) proves the
    handler's dispatch count is flat in the data before trusting a
    constant budget.

    ``tables`` breaks the same traffic down by principal table: per table
    and verb it records *actual* row traffic (rows really written by DML
    — a no-op UPDATE adds zero — and one probe per read dispatch).  The
    global verb counters keep their one-unit floor per dispatch because
    that is what the cost model prices; the per-table view is the honest
    row ledger the admin console shows, and its write counters double as
    cheap change detectors (see ``HeartbeatService``).
    """

    select: int = 0
    insert: int = 0
    update: int = 0
    delete: int = 0
    other: int = 0
    commits: int = 0
    rollbacks: int = 0
    statements: int = 0
    batches: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0
    #: The same admissions seen from the engine side (a miss is also a
    #: plan compilation — the memory engine's closure plan, SQLite's
    #: natively prepared statement).  There is one statement cache, so
    #: ``plan_hits``/``plan_misses`` equal the ``prepared_*`` pair; they
    #: stay as fields because the end-to-end harness reports them.
    #: ``plan_evictions`` is that cache's only eviction ledger.
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    #: Durability ledger (zero on engines without a write-ahead log).
    #: ``wal_appends`` counts WAL frames written, ``fsyncs`` counts
    #: commit points (the commits that grew the log — what the cost
    #: model prices as log forces) and ``checkpoints`` counts completed
    #: checkpoints.
    wal_appends: int = 0
    fsyncs: int = 0
    checkpoints: int = 0
    #: Per-table row traffic: ``{table: {verb: rows}}`` with lower-cased
    #: verb keys mirroring the scalar counters.
    tables: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Per-statement-text dispatch counts: ``{sql: dispatches}``.  This
    #: is the runtime statement ledger the static analyzer's coverage
    #: test audits itself against — every text that reached an engine
    #: must be accounted for by the source-tree extractor.  DDL run via
    #: ``run_script`` is deliberately absent (uncounted housekeeping).
    texts: Dict[str, int] = field(default_factory=dict)
    #: Lifecycle transition ledger: ``{table: {"from->to": rows}}`` —
    #: the actual (from-state, to-state) edges DML walked on the four
    #: lifecycle tables, including the ``(new)``/``(gone)`` pseudo-state
    #: edges for row creation/deletion.  UPDATE and DELETE edges are
    #: captured where each engine writes the row and folded in by the
    #: shared base class once the statement succeeds; INSERT is read off
    #: the text (``storage/transitions.py``).  Equal workloads produce
    #: equal ledgers on every backend; tier-1 asserts the ledger equals
    #: the per-key diff of the tables and that the observed edges are a
    #: subset of the declared ``LIFECYCLES`` graph.
    transitions: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def hit_rate(self) -> float:
        """Fraction of admissions the statement cache served (0.0 when
        nothing was admitted)."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    def total(self) -> int:
        """All verb work — row touches, not dispatches (commits excluded).

        The number of SQL statements *sent to the engine* is
        :attr:`statements`; ``total()`` is what the cost model prices.
        """
        return self.select + self.insert + self.update + self.delete + self.other

    def table_writes(self, table: str) -> int:
        """Rows actually written (insert+update+delete) to ``table``.

        Monotonic, so services can use it as a cheap dirty marker: if the
        value has not moved, nothing in ``table`` changed.
        """
        verbs = self.tables.get(table)
        if not verbs:
            return 0
        return (
            verbs.get("insert", 0) + verbs.get("update", 0) + verbs.get("delete", 0)
        )

    def snapshot(self) -> "StatementCounts":
        """An independent copy, ledgers included, for before/after deltas."""
        return copy.deepcopy(self)

    def delta(self, earlier: "StatementCounts") -> "StatementCounts":
        """Counts accumulated since ``earlier``."""
        return self._combined(earlier, -1)

    def merge(self, other: "StatementCounts") -> "StatementCounts":
        """Combine two count sets (e.g. across shards or engines).

        Associative and commutative with ``StatementCounts()`` as the
        identity — the algebra the rollup reports rely on, pinned by
        property tests.
        """
        return self._combined(other, +1)

    def _combined(self, other: "StatementCounts",
                  sign: int) -> "StatementCounts":
        return StatementCounts(**{
            spec.name: _combine(getattr(self, spec.name),
                                getattr(other, spec.name), sign)
            for spec in fields(self)
        })

    def mark(self) -> Tuple[int, ...]:
        """The scalar counters as they stand now, for :meth:`since`.

        The request path's cheap half of the snapshot/delta pair: the
        cost model, the per-operation meter and budget enforcement read
        only scalars, so bracketing a request copies no ledger.
        """
        return _scalars(self)

    def since(self, mark: Tuple[int, ...]) -> "StatementCounts":
        """Scalar counts accumulated since ``mark``; the ledgers are empty.

        Equal to the scalar part of ``delta(snapshot())`` taken at the
        same two moments (pinned by a property test).
        """
        return StatementCounts(
            **dict(zip(SCALAR_FIELDS, map(sub, _scalars(self), mark))))

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, verb: str, rows: int = 1) -> None:
        """Charge ``rows`` units of work to ``verb``."""
        key = _VERB_KEYS.get(verb, "other")
        setattr(self, key, getattr(self, key) + rows)

    def record_table(self, table: str, verb: str, rows: int) -> None:
        """Attribute ``rows`` of actual traffic for ``verb`` to ``table``."""
        if not table:
            return
        verbs = self.tables.setdefault(table, {})
        key = _VERB_KEYS.get(verb, "other")
        verbs[key] = verbs.get(key, 0) + rows

    def record_text(self, sql: str) -> None:
        """Tick the per-statement-text dispatch ledger for ``sql``."""
        self.texts[sql] = self.texts.get(sql, 0) + 1

    def record_transition(self, table: str, source: str, target: str,
                          rows: int = 1) -> None:
        """Attribute ``rows`` walks of the edge ``source -> target``."""
        if rows <= 0:
            return
        edges = self.transitions.setdefault(table, {})
        key = f"{source}->{target}"
        edges[key] = edges.get(key, 0) + rows


#: The integer counters of :class:`StatementCounts`, in field order —
#: everything :meth:`StatementCounts.mark` captures.
SCALAR_FIELDS = tuple(
    spec.name for spec in fields(StatementCounts) if spec.type == "int")
_scalars = attrgetter(*SCALAR_FIELDS)


_WORD = re.compile(r"'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*|\(|\)")


def _words(sql: str):
    """Identifiers/keywords and parens of ``sql``, in order.

    String literals are recognized and dropped, so quoted text that
    happens to contain keywords cannot confuse classification.
    """
    return [token for token in _WORD.findall(sql)
            if not token.startswith("'")]


def statement_verb(sql: str) -> str:
    """The accounting verb of ``sql``, upper-cased ('' when blank).

    The leading keyword, except that a ``WITH`` common-table-expression
    prefix is skipped (by balanced-paren scanning) so a CTE-wrapped
    INSERT/SELECT classifies as its main verb rather than as ``WITH``.

    Classification is a pure function of the SQL text; the engines
    keep the result on the statement's cache entry
    (``storage/statements.py``), so the dispatch path does not call this.
    """
    stripped = sql.lstrip()
    if not stripped:
        return ""
    first = stripped.split(None, 1)[0].upper()
    if first != "WITH":
        return first
    # Skip "WITH [RECURSIVE] name AS ( ... ) [, name AS ( ... )]*".
    tokens = _words(stripped)
    index, depth, seen_body = 1, 0, False
    while index < len(tokens):
        token = tokens[index]
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth == 0:
                seen_body = True
        elif depth == 0 and seen_body and token.upper() in (
            "SELECT", "INSERT", "UPDATE", "DELETE"
        ):
            return token.upper()
        index += 1
    return "WITH"


def statement_table(sql: str) -> str:
    """The principal table of ``sql`` ('' when there is none).

    DML statements report their target table (``INSERT INTO t`` /
    ``UPDATE t`` / ``DELETE FROM t``); queries report the first table of
    their outermost ``FROM`` clause, descending into a leading subquery.
    Classification is lexical and engine-neutral, so both storage
    backends attribute identical per-table statistics for identical SQL.
    """
    verb = statement_verb(sql)
    tokens = _words(sql)
    uppers = [token.upper() for token in tokens]
    if verb == "INSERT":
        for index, token in enumerate(uppers):
            if token == "INTO" and index + 1 < len(tokens):
                return tokens[index + 1]
        return ""
    if verb == "UPDATE":
        for index, token in enumerate(uppers):
            if token == "UPDATE" and index + 1 < len(tokens):
                candidate = tokens[index + 1]
                if candidate.upper() in ("OR",):  # UPDATE OR IGNORE t
                    return tokens[index + 3] if index + 3 < len(tokens) else ""
                return candidate
        return ""
    if verb in ("DELETE", "SELECT", "WITH"):
        # The *outermost* FROM clause: scan at paren depth 0 so scalar
        # subqueries in the select list cannot claim the attribution;
        # when the outer source is itself a subquery, descend one level
        # and repeat.
        depth = 0
        want = 0
        index = 0
        while index < len(uppers):
            token = tokens[index]
            if token == "(":
                depth += 1
            elif token == ")":
                depth -= 1
            elif uppers[index] == "FROM" and depth == want \
                    and index + 1 < len(tokens):
                nxt = tokens[index + 1]
                if nxt == "(":
                    want = depth + 1  # FROM (SELECT ... — use its FROM
                else:
                    return nxt
            index += 1
        return ""
    return ""
