"""The CondorJ2 access layer: a thin facade over a pluggable storage engine.

The paper used IBM DB2 UDB 8.2; we substitute an engine executing the
*real* SQL for every operation (DESIGN.md section 2).  Two properties
matter for the reproduction:

* every state change in the system is an actual SQL statement against an
  actual database — the paper's central claim made concrete;
* the engine counts statements by verb (per row, even when batched),
  which the application server turns into simulated CPU/IO charges
  (per-event cost is flat in queue length, which is where CondorJ2's
  scalability shape comes from).

The engine itself — connection, statement cache, accounting —
lives in :mod:`repro.condorj2.storage`; this module adds the query
helpers, transaction scoping and schema bootstrap the logic layer
programs against, and the two refusals its services raise.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.condorj2.schema import SCHEMA_STATEMENTS, TABLE_BY_NAME
from repro.condorj2.storage import (
    DatabaseError,
    StatementCache,
    StatementCounts,
    StorageEngine,
    create_engine,
)

__all__ = [
    "Database",
    "DatabaseError",
    "RowNotFound",
    "RowStateError",
    "StatementCounts",
]


class RowNotFound(DatabaseError):
    """A service call named a tuple that does not exist."""


class RowStateError(DatabaseError):
    """A service call found its tuple in a state that forbids it (rule a)."""


class Database:
    """The operational store, backed by a pluggable :class:`StorageEngine`.

    ``engine`` is a ready-made engine; otherwise ``backend`` is a spec,
    ``backend[://path]``, built by
    :func:`repro.condorj2.storage.create_engine` (``None`` defers to
    ``CONDORJ2_STORAGE_ENGINE``, then SQLite in memory).
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        engine: Optional[StorageEngine] = None,
    ):
        if engine is None:
            engine = create_engine(backend)
        self.engine = engine
        self._in_transaction = False
        self.engine.run_script(SCHEMA_STATEMENTS)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def counts(self) -> StatementCounts:
        """The engine's centralized statement accounting."""
        return self.engine.counts

    @property
    def statement_cache(self) -> StatementCache:
        """The engine's LRU statement cache."""
        return self.engine.statement_cache

    def explain(self, sql: str, params: Sequence[Any] = None):
        """The engine's chosen plan for ``sql`` (uncounted).

        With ``params``, engines that support profiling execute the
        statement instrumented — side-effect free — and report actual
        rows and per-operator timings next to the estimates.  A
        statement the engine rejects raises :class:`DatabaseError`."""
        try:
            return self.engine.explain(sql, params)
        except self.engine.ENGINE_ERRORS as exc:
            raise DatabaseError(str(exc)) from exc

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Run one statement, counting it; integrity errors are wrapped."""
        return self.engine.execute(sql, params)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> Any:
        """Run one statement over many parameter rows (one batch).

        The cost-model contract: per-verb work is charged per *row*,
        dispatch is charged once per batch.
        """
        return self.engine.executemany(sql, rows)

    def query_all(self, sql: str, params: Sequence[Any] = ()) -> List[Any]:
        """Run a SELECT and fetch every row."""
        return self.execute(sql, params).fetchall()

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> Optional[Any]:
        """Run a SELECT and fetch the first row (None when empty)."""
        return self.execute(sql, params).fetchone()

    def scalar(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """First column of the first row (None when empty)."""
        row = self.query_one(sql, params)
        return None if row is None else row[0]

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """Explicit transaction scope; nested use joins the outer scope.

        Mirrors container-managed ``REQUIRED`` transaction semantics: a
        service call opens a transaction unless its caller already has one.
        """
        if self._in_transaction:
            yield self
            return
        self.engine.begin()
        self._in_transaction = True
        try:
            yield self
        except BaseException:
            self.engine.rollback()
            raise
        else:
            self.engine.commit()
        finally:
            self._in_transaction = False

    @property
    def in_transaction(self) -> bool:
        """Whether a :meth:`transaction` scope is currently open."""
        return self._in_transaction

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    def table_count(self, table: str) -> int:
        """Row count of ``table``, which must be one the schema declares
        (checked before anything is dispatched, so every backend refuses
        the same names the same way)."""
        if table not in TABLE_BY_NAME:
            raise DatabaseError(f"no such table {table!r}")
        return int(self.scalar(f"SELECT COUNT(*) FROM {table}"))  # sql-ident: table

    def close(self) -> None:
        """Close the underlying engine."""
        self.engine.close()
