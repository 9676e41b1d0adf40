"""The CondorJ2 storage layer: pluggable engines with statement accounting.

Public surface:

* :class:`StorageEngine` — the backend contract (shared accounting);
* :class:`SqliteStorageEngine` / :class:`MemoryStorageEngine` /
  :class:`WalStorageEngine` — the three bundled implementations: SQLite,
  the dict-backed executor held equivalent to it by the differential
  fuzzer, and SQLite in WAL mode on a file, whose recovery the
  crash-recovery fuzzer holds to the committed prefix of a workload;
* :func:`create_engine` — builds one of the three from a spec;
* :class:`StatementCounts` — centralized per-verb statement accounting;
* :class:`StatementCache` / :class:`Statement` — the one LRU keyed by
  statement text that engines put in front of SQL compilation, and its
  entry;
* :class:`DatabaseError` — the layer's error root;
* :class:`StorageConfigError` — the structured fault raised for an
  unknown backend name, carrying the offending name and the
  alternatives.

Which file owns what inside the memory engine (DESIGN.md section 3 has
the full map): ``sqlparser`` the dialect's grammar and the one statement
of the AST's shape (``children`` / ``walk`` / ``rewrite`` /
``split_conjuncts``); ``planner`` the pure planning rules and the
EXPLAIN tree; ``scalars`` SQLite's value semantics; ``store`` tables,
indexes, constraints and row mutations with their undo entries;
``expressions`` and ``compiler`` the closure compiler; ``plans`` the
executors; ``memory`` the engine shell.  ``wal`` is not part of it: the
durable engine is the SQLite one in WAL mode.

A store is named by one grammar, ``backend[://path]``: ``"sqlite"``,
``"memory"``, ``"wal"``, ``"sqlite:///var/pool.db"``,
``"wal:///var/pool-wal"``.  The ``CONDORJ2_STORAGE_ENGINE`` environment
variable supplies the spec when the caller does not choose one, which is
how CI runs the whole tier-1 suite against each backend.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Type

from repro.condorj2.storage.counters import (
    StatementCounts,
    statement_table,
    statement_verb,
)
from repro.condorj2.storage.engine import (
    DatabaseError,
    SqliteStorageEngine,
    StorageEngine,
)
from repro.condorj2.storage.memory import MemoryStorageEngine
from repro.condorj2.storage.planner import ExplainReport, PlanNode
from repro.condorj2.storage.statements import Statement, StatementCache
from repro.condorj2.storage.wal import WalStorageEngine

#: Environment variable naming the default spec (the CI matrix sets it
#: to each engine name in turn).
ENGINE_ENV_VAR = "CONDORJ2_STORAGE_ENGINE"

#: The engine table: a spec's name picks the class, its path is the one
#: constructor argument.  A fourth backend is one more entry.
_ENGINES: Dict[str, Type[StorageEngine]] = {
    "sqlite": SqliteStorageEngine,
    "memory": MemoryStorageEngine,
    "wal": WalStorageEngine,
}


class StorageConfigError(DatabaseError):
    """A spec naming no engine in the table.

    A structured fault rather than a bare ``KeyError`` (or a silent
    fall-through to SQLite, which an early factory version did): callers
    see *which* name failed and *what* is available, and the gateway can
    map it to a configuration fault instead of an internal error.
    """

    def __init__(self, backend: str, available: Tuple[str, ...]):
        self.backend = backend
        self.available = available
        super().__init__(
            f"unknown storage backend {backend!r}; "
            f"engines: {', '.join(available)}"
        )


def create_engine(spec: Optional[str] = None) -> StorageEngine:
    """Build the engine ``spec`` names: ``name`` or ``name://path``.

    ``name`` is ``sqlite``, ``memory`` or ``wal``; ``path`` is the SQLite
    file or the directory of the WAL engine's ``pool.db`` (ignored by
    ``memory``), and without one each engine is private to the process
    (``:memory:``).  ``None``
    reads the spec from ``CONDORJ2_STORAGE_ENGINE``, then ``sqlite``.
    Any other name — from the argument or the environment — raises
    :class:`StorageConfigError`.
    """
    if spec is None:
        spec = os.environ.get(ENGINE_ENV_VAR, "").strip() or "sqlite"
    name, _, path = spec.partition("://")
    engine = _ENGINES.get(name)
    if engine is None:
        raise StorageConfigError(name, tuple(_ENGINES))
    return engine(path or ":memory:")


__all__ = [
    "DatabaseError",
    "ENGINE_ENV_VAR",
    "ExplainReport",
    "MemoryStorageEngine",
    "PlanNode",
    "SqliteStorageEngine",
    "Statement",
    "StatementCache",
    "StatementCounts",
    "StorageConfigError",
    "StorageEngine",
    "WalStorageEngine",
    "create_engine",
    "statement_table",
    "statement_verb",
]
