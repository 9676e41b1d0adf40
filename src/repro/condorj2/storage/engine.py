"""The pluggable storage engine behind the CondorJ2 access layer.

:class:`StorageEngine` is the contract the access layer (and through it
the bean container and the application-logic services) programs against:
statement execution with centralized accounting, batched execution, and
explicit transaction control.  :class:`SqliteStorageEngine` is the bundled
SQL-executing implementation — an in-process SQLite database executing the
*real* SQL for every operation, with an LRU statement cache in front of
it (DESIGN.md section 3).  A second, pure-Python implementation
(:class:`~repro.condorj2.storage.memory.MemoryStorageEngine`) interprets
the same dialect over dict-backed tables; the two are held equivalent by
a differential fuzz harness.

The accounting skeleton lives *in the base class*: every engine admits
the statement to the one statement cache — whose entry carries the verb,
the principal table and the compiled plan — and charges row work
identically.  Subclasses only implement the raw execution hooks, so
"equal :class:`StatementCounts` for equal workloads" is a property of
the layer, not a per-engine discipline.

The paper used IBM DB2 UDB 8.2; swapping the DBMS means implementing this
one small interface, which is the point of the abstraction.
"""

from __future__ import annotations

import sqlite3
from abc import ABC, abstractmethod
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Type

from repro.condorj2.schema import BORN, GONE, LEDGER_TRIGGER_STATEMENTS
from repro.condorj2.storage.counters import (
    WRITE_VERBS,
    StatementCounts,
    statement_verb,
)
from repro.condorj2.storage import sqlparser as sp
from repro.condorj2.storage.planner import ExplainReport, PlanNode
from repro.condorj2.storage.statements import (
    Statement,
    StatementCache,
    describe,
)
from repro.condorj2.storage.transitions import TransitionSpec


class DatabaseError(Exception):
    """Raised for integrity violations and misuse of the access layer."""


class StorageEngine(ABC):
    """What a backing store must provide to host the operational data.

    Implementations own the connection and the raw execution hooks; the
    statement accounting (:attr:`counts`), the statement cache and the
    verb/table classification are shared base-class behaviour so that
    every backend charges an identical workload identically.
    """

    #: Registry/config name of the backend ("sqlite", "memory", ...).
    name: str = ""

    #: Exception types the raw hooks raise for constraint violations;
    #: the base class wraps them in :class:`DatabaseError`.
    INTEGRITY_ERRORS: Tuple[Type[BaseException], ...] = ()

    #: Every exception type with which the engine itself rejects a
    #: statement (a superset of :attr:`INTEGRITY_ERRORS`).
    ENGINE_ERRORS: Tuple[Type[BaseException], ...] = ()

    counts: StatementCounts
    statement_cache: StatementCache

    def _init_accounting(self) -> None:
        self.counts = StatementCounts()
        self.statement_cache = StatementCache()
        #: ``(table, from, to)`` per lifecycle row the raw call in flight
        #: has updated or deleted.  The engine appends where it writes
        #: the row; ``execute``/``executemany`` empty it (in place: the
        #: writers hold the list) before the raw call and fold it into
        #: ``counts.transitions`` only when the call returns.
        self._edges: List[Tuple[str, str, str]] = []

    # -- statement execution -------------------------------------------
    def _admit(self, sql: str) -> Statement:
        """The cache entry for ``sql``, described and compiled on a miss.

        The one text-keyed lookup of a dispatch, and the one place the
        cache ledger in :class:`StatementCounts` is ticked; every backend
        admits through it with an identically sized LRU, so equal
        workloads produce equal ledgers — the property the differential
        fuzzer pins.
        """
        counts = self.counts
        entry = self.statement_cache.lookup(sql)
        if entry is not None:
            counts.prepared_hits += 1
            counts.plan_hits += 1
            return entry
        counts.prepared_misses += 1
        counts.plan_misses += 1
        entry = describe(sql)
        entry.plan = self._compile_plan(sql)
        if self.statement_cache.store(entry):
            counts.plan_evictions += 1
        return entry

    def _compile_plan(self, sql: str) -> Any:
        """Compile ``sql`` into the engine's executable plan artifact.

        The default models engines that compile natively at prepare time
        (SQLite): there is no artifact to keep; the real compiled
        statement lives in the driver.
        """
        return None

    # -- lifecycle transition ledger -----------------------------------
    def _settle_transitions(self, spec: Optional[TransitionSpec],
                            rows: Sequence[Sequence[Any]],
                            affected: int) -> None:
        """Fold one successful dispatch's edges into the ledger.

        UPDATE and DELETE edges are whatever the raw call left in
        ``_edges``: one per row written, read off the write's own
        pre-image, so nothing is asked of the table and nothing is
        inferred from the text.  A statement that raised never gets
        here — its edges are dropped with the next dispatch's reset —
        and a rollback does not revert what was folded.

        INSERT is attributed from the text (``spec``): ``rows`` are the
        parameter rows dispatched (one for ``execute``) and ``affected``
        the aggregate rowcount.
        """
        record = self.counts.record_transition
        for edge in self._edges:
            record(*edge)
        if spec is None or spec.verb != "INSERT":
            return
        # One target for everything written: the aggregate rowcount is
        # exact even under OR IGNORE (ignored rows never count).
        uniform = (spec.resolve_to(rows[0]) if len(rows) == 1
                   else spec.to_state)
        if uniform is not None:
            record(spec.table, BORN, uniform, affected)
        elif not spec.or_ignore:
            for row in rows:
                target = spec.resolve_to(row)
                if target is not None:
                    record(spec.table, BORN, target, 1)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Run one counted statement; returns a cursor-like object."""
        entry = self._admit(sql)
        counts, verb, spec = self.counts, entry.verb, entry.spec
        counts.statements += 1
        counts.record_text(sql)
        edges = self._edges
        edges.clear()
        try:
            cursor = self._execute_raw(sql, params, entry.plan)
        except self.INTEGRITY_ERRORS as exc:
            counts.record(verb)
            raise DatabaseError(str(exc)) from exc
        # Set-oriented DML charges per affected row, so one
        # INSERT..SELECT costs the CPU model exactly what the
        # row-at-a-time loop it replaced did.  SELECT stays one unit:
        # indexed plans are priced per probe, not per fetched row.
        rows = 1
        affected = 1
        if verb in WRITE_VERBS:
            rows = max(1, cursor.rowcount)
            affected = max(0, cursor.rowcount)
        counts.record(verb, rows)
        counts.record_table(entry.table, verb, affected)
        if edges or spec is not None:
            self._settle_transitions(spec, (params,), affected)
        return cursor

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> Any:
        """Run one statement over many parameter rows (one batch).

        Accounting charges one unit of verb work *per row* — the cost
        model's CPU charge is identical to row-at-a-time execution — plus
        a single batch dispatch.
        """
        materialized: List[Sequence[Any]] = list(rows)
        entry = self._admit(sql)
        counts, verb, spec = self.counts, entry.verb, entry.spec
        counts.record(verb, len(materialized))
        counts.statements += 1
        counts.batches += 1
        counts.record_text(sql)
        edges = self._edges
        edges.clear()
        try:
            cursor = self._executemany_raw(sql, materialized, entry.plan)
        except self.INTEGRITY_ERRORS as exc:
            raise DatabaseError(str(exc)) from exc
        if verb in WRITE_VERBS:
            affected = max(0, cursor.rowcount)
        else:
            affected = len(materialized)
        counts.record_table(entry.table, verb, affected)
        if edges or spec is not None:
            self._settle_transitions(spec, materialized, affected)
        return cursor

    @abstractmethod
    def _execute_raw(self, sql: str, params: Sequence[Any],
                     plan: Any) -> Any:
        """Execute one statement; returns a cursor-like object.

        ``plan`` is the artifact `_compile_plan` produced for this SQL
        (None for engines that compile natively).
        """

    @abstractmethod
    def _executemany_raw(self, sql: str, rows: Sequence[Sequence[Any]],
                         plan: Any) -> Any:
        """Execute one statement over many parameter rows."""

    @abstractmethod
    def run_script(self, statements: Sequence[str]) -> None:
        """Execute uncounted housekeeping DDL (schema creation)."""

    # -- observability --------------------------------------------------
    def explain(self, sql: str, params: Sequence[Any] = None) -> ExplainReport:
        """The engine's chosen plan for ``sql`` as a :class:`PlanNode`
        tree; uncounted.

        With ``params``, engines that can profile execute the statement
        instrumented (side-effect free — DML is rolled back) and the
        report carries actual row counts and per-operator timings next
        to the estimates.
        """
        raise NotImplementedError(
            f"engine {self.name!r} does not support EXPLAIN")

    # -- transactions ---------------------------------------------------
    @abstractmethod
    def begin(self) -> None:
        """Open an explicit transaction."""

    def commit(self) -> None:
        """Commit the open transaction (counted in ``counts.commits``)."""
        self._commit_raw()
        self.counts.commits += 1

    @abstractmethod
    def _commit_raw(self) -> None:
        """Commit the open transaction."""

    def rollback(self) -> None:
        """Abandon the open transaction (counted in ``counts.rollbacks``
        — rollbacks restore rows without reverting the statement
        counters, so change detectors built on the per-table write
        counts must also watch this counter)."""
        self._rollback_raw()
        self.counts.rollbacks += 1

    @abstractmethod
    def _rollback_raw(self) -> None:
        """Abandon the open transaction."""

    @abstractmethod
    def close(self) -> None:
        """Release the underlying connection."""


class SqliteStorageEngine(StorageEngine):
    """SQLite implementation: real SQL, in process, fully accounted.

    The database is in-memory by default (the whole cluster state for the
    10,000-VM experiment fits comfortably); pass a path for durability.
    """

    name = "sqlite"
    INTEGRITY_ERRORS = (sqlite3.IntegrityError,)
    ENGINE_ERRORS = (sqlite3.Error,)

    def __init__(self, path: str = ":memory:"):
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        self._conn.isolation_level = None  # explicit transaction control
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._init_accounting()
        edges = self._edges
        self._conn.create_function(
            "lifecycle_edge", -1,
            lambda table, old, new=GONE: edges.append((table, old, new)))
        #: A reopened file already holds the schema: ``run_script``
        #: leaves it be, and the ledger is armed now.
        self._has_schema = bool(
            self._conn.execute("PRAGMA schema_version").fetchone()[0])
        if self._has_schema:
            self._arm_ledger()

    # ------------------------------------------------------------------
    # raw execution hooks
    # ------------------------------------------------------------------
    def _execute_raw(self, sql: str, params: Sequence[Any],
                     plan: Any) -> sqlite3.Cursor:
        return self._conn.execute(sql, params)

    def _executemany_raw(
        self, sql: str, rows: Sequence[Sequence[Any]], plan: Any
    ) -> sqlite3.Cursor:
        return self._conn.executemany(sql, rows)

    def run_script(self, statements: Sequence[str]) -> None:
        """Create the schema in one transaction; a no-op on a file that
        already holds it."""
        if self._has_schema:
            return
        self._conn.execute("BEGIN")
        for statement in statements:
            self._conn.execute(statement)
        self._conn.execute("COMMIT")
        self._has_schema = True
        self._arm_ledger()

    def _arm_ledger(self) -> None:
        """Put the ledger's triggers on the lifecycle tables.

        TEMP triggers live and die with the connection, so every open
        arms them: after the schema script on a fresh database, at
        connect time on a file that already holds the schema.
        """
        for statement in LEDGER_TRIGGER_STATEMENTS:
            self._conn.execute(statement)

    def explain(self, sql: str, params: Sequence[Any] = None) -> ExplainReport:
        """SQLite's own plan via ``EXPLAIN QUERY PLAN``, mapped into the
        shared :class:`PlanNode` tree (no estimates/timings — SQLite
        does not expose them here).  Uncounted: observability queries
        must not perturb the statement accounting the differential
        fuzzer compares.
        """
        bind = params if params is not None else ()
        try:
            rows = self._conn.execute(
                f"EXPLAIN QUERY PLAN {sql}", bind).fetchall()
        except sqlite3.ProgrammingError as exc:
            # EXPLAIN QUERY PLAN wants the statement's parameters bound;
            # when explaining a cached statement text without its
            # original arguments, bind NULL per placeholder, positional
            # or named, as the parser counts them (the plan shape does
            # not depend on the values).
            try:
                info = sp.parse_info(sql)
            except sp.SqlSyntaxError:
                raise exc from None
            bind = (dict.fromkeys(info.named_params) if info.named_params
                    else (None,) * info.placeholder_count)
            rows = self._conn.execute(
                f"EXPLAIN QUERY PLAN {sql}", bind).fetchall()
        nodes = {0: PlanNode(op="STATEMENT", detail=statement_verb(sql))}
        for row in rows:
            node = PlanNode(op="STEP", detail=row["detail"])
            nodes[row["id"]] = node
            parent = nodes.get(row["parent"], nodes[0])
            parent.children.append(node)
        return ExplainReport(sql=sql, engine=self.name, root=nodes[0])

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self._conn.execute("BEGIN")

    def _commit_raw(self) -> None:
        self._conn.execute("COMMIT")

    def _rollback_raw(self) -> None:
        self._conn.execute("ROLLBACK")

    def close(self) -> None:
        self._conn.close()
