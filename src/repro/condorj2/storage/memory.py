"""A pure-Python, dict-backed implementation of the storage contract.

``MemoryStorageEngine`` holds every table as a dict of rows keyed by
rowid (or primary key for WITHOUT ROWID tables), maintains equality
indexes over the hot predicate columns, enforces the schema's
constraints (NOT NULL, CHECK, UNIQUE, foreign keys with
``ON DELETE CASCADE``), and interprets the access layer's SQL dialect
(:mod:`repro.condorj2.storage.sqlparser`) — including the
``INSERT INTO matches ... SELECT`` ROW_NUMBER slot join and the
``json_each`` completion batch, so ``SchedulingService.run_pass``
issues the same statements per pass on this backend too.

This module is the shell: the accounted engine class, statement-level
atomicity over the undo log, transactions, ``explain``, and the cached
compile failure.  The rest of the engine is cut along its seams —
scalar semantics in :mod:`.scalars`, tables and row mutations in
:mod:`.store`, expression and statement compilation in
:mod:`.expressions` and :mod:`.compiler` (over the pure rules of
:mod:`.planner`), plans, executors and the EXPLAIN tree in
:mod:`.plans`.

Fidelity targets (asserted by the cross-backend differential fuzzer):

* identical table contents after identical workloads, including SQLite's
  type affinity on write (an INTEGER 512 stored into a REAL column reads
  back as 512.0) and rowid assignment (max+1, AUTOINCREMENT never
  reuses);
* identical ``rowcount`` semantics (rows matched by UPDATE, rows
  actually inserted by INSERT OR IGNORE, cascade deletes not counted);
* identical :class:`StatementCounts`, which follows from the shared
  accounting in :class:`~repro.condorj2.storage.engine.StorageEngine`
  plus identical rowcounts here.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.condorj2.storage import planner as pl
from repro.condorj2.storage import sqlparser as sp
from repro.condorj2.storage.compiler import _Compiler
from repro.condorj2.storage.engine import StorageEngine
from repro.condorj2.storage.plans import MemoryCursor, _Rt, _statement_node
from repro.condorj2.storage.store import (
    MemoryEngineError, MemoryIntegrityError, TableStore,
)


class _FailedPlan:
    """Poisoned statement-cache plan for statements that fail to compile.

    SQLite defers compilation to execute time, so its statement cache
    admits an entry for a bad statement and the error surfaces from the
    raw execute.  Caching the failure keeps the engines' caches (and
    their eviction counts in :class:`StatementCounts`) identical by
    construction; re-raising at execute time keeps the error surface."""

    kind = "error"

    def __init__(self, error: Exception):
        self.error = error


class MemoryStorageEngine(TableStore, StorageEngine):
    """Dict-backed storage engine interpreting the access-layer dialect.

    ``path`` is accepted for interface parity and ignored — the store is
    always in-process memory.
    """

    name = "memory"
    INTEGRITY_ERRORS = (MemoryIntegrityError,)
    ENGINE_ERRORS = (MemoryEngineError, MemoryIntegrityError,
                     sp.SqlSyntaxError)

    def __init__(self, path: str = ":memory:"):
        self._init_accounting()
        TableStore.__init__(self)
        self._compiler = _Compiler(self)

    # ------------------------------------------------------------------
    # statement execution (raw hooks for the accounted base class)
    # ------------------------------------------------------------------
    def _compile_plan(self, sql: str) -> Any:
        """Compile ``sql`` for its statement-cache entry (base class hook).

        Compile *errors* are cached too (see :class:`_FailedPlan`) so
        the cache contents — and with them the eviction counters — stay
        identical to SQLite's, which admits a cache entry before its
        deferred native compile fails at execute time."""
        try:
            return self._compiler.compile(sql)
        except self.ENGINE_ERRORS as exc:  # surfaces from _execute_raw
            return _FailedPlan(exc)

    @staticmethod
    def _make_rt(plan: Any, params: Any) -> _Rt:
        """The runtime context for one run of ``plan``, after SQLite's
        bind checks: a mapping must name every ``:name`` and may not
        meet a ``?``; a sequence must match the ``?`` count exactly.
        Python 3.11's ``sqlite3`` binds a sequence to ``:name``
        placeholders by position (3.14 refuses it); this engine refuses
        it already."""
        positional, named = plan.bind
        if isinstance(params, dict):
            if positional:
                raise MemoryEngineError(
                    "a positional placeholder has no name, but a mapping "
                    "was supplied")
            for name in named:
                if name not in params:
                    raise MemoryEngineError(
                        f"no value supplied for binding parameter :{name}")
            return _Rt(None, params)
        if named:
            raise MemoryEngineError(
                f"named parameters {list(named)} need a mapping, not a "
                f"sequence")
        seq = list(params)
        if len(seq) != positional:
            raise MemoryEngineError(
                f"incorrect number of bindings supplied: the statement "
                f"uses {positional}, and there are {len(seq)} supplied")
        return _Rt(seq, None)

    def _run_statement(self, plan: Any, params: Any) -> MemoryCursor:
        """Run one statement with statement-level atomicity."""
        rt = self._make_rt(plan, params)
        outer = self._undo
        self._undo = []
        try:
            cursor = plan.run(self, rt)
        except BaseException:
            # An interrupt mid-statement undoes it like any error, and
            # hands the transaction's own undo list back.
            self._replay(self._undo)
            self._undo = outer
            raise
        entries = self._undo
        self._undo = outer
        if outer is not None:
            outer.extend(entries)
        return cursor

    def _execute_raw(self, sql: str, params: Sequence[Any],
                     plan: Any) -> MemoryCursor:
        if isinstance(plan, _FailedPlan):
            raise plan.error
        return self._run_statement(plan, params)

    def _executemany_raw(self, sql: str, rows: Sequence[Sequence[Any]],
                         plan: Any) -> MemoryCursor:
        if isinstance(plan, _FailedPlan):
            raise plan.error
        total = 0
        lastrowid = None
        for params in rows:
            cursor = self._run_statement(plan, params)
            if cursor.rowcount > 0:
                total += cursor.rowcount
            if cursor.lastrowid is not None:
                lastrowid = cursor.lastrowid
        rowcount = total if plan.kind != "select" else -1
        return MemoryCursor(rowcount=rowcount, lastrowid=lastrowid)

    def run_script(self, statements: Sequence[str]) -> None:
        """DDL is a no-op: the schema is built from ``TABLE_DEFS``."""

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def explain(self, sql: str, params: Sequence[Any] = None
                ) -> "pl.ExplainReport":
        """The planner's chosen tree for ``sql``; uncounted.

        With ``params`` the statement runs freshly compiled with
        profiled plan nodes, filling actual row counts and per-operator
        timings.  DML executes inside an undo sandbox that is always
        rolled back, so profiling is side-effect free."""
        plan = _Compiler(self, profiled=True).compile(sql)
        if params is not None:
            rt = self._make_rt(plan, params)
            outer = self._undo
            self._undo = []
            try:
                plan.run(self, rt)
            finally:
                self._replay(self._undo)
                self._undo = outer
        return pl.ExplainReport(sql=sql, engine=self.name,
                                root=_statement_node(plan))

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        if self._undo is not None:
            raise MemoryEngineError("transaction already open")
        self._undo = []

    def _commit_raw(self) -> None:
        self._undo = None

    def _rollback_raw(self) -> None:
        if self._undo is not None:
            self._replay(self._undo)
        self._undo = None

    def close(self) -> None:
        """Nothing to release; kept for interface parity."""
