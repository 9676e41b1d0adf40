"""The CondorJ2 storage layer: pluggable engines with statement accounting.

Public surface:

* :class:`StorageEngine` — the backend contract (shared accounting);
* :class:`SqliteStorageEngine` / :class:`MemoryStorageEngine` /
  :class:`WalStorageEngine` — the three bundled implementations: SQLite,
  the dict-backed executor held equivalent to it by the differential
  fuzzer, and the WAL-durable engine held crash-equivalent to the memory
  engine by the crash-recovery fuzzer;
* :func:`create_engine` / :func:`register_engine` — the backend registry
  the access layer resolves names and URLs through;
* :class:`StatementCounts` — centralized per-verb statement accounting;
* :class:`StatementCache` / :class:`Statement` — the one LRU keyed by
  statement text that engines put in front of SQL compilation, and its
  entry;
* :class:`DatabaseError` — the layer's error root;
* :class:`StorageConfigError` — the structured fault raised for an
  unknown backend name, carrying the offending name and the registered
  alternatives.

Which file owns what inside the memory engine (DESIGN.md section 3 has
the full map): ``sqlparser`` the dialect's grammar and the one statement
of the AST's shape (``children`` / ``walk`` / ``rewrite`` /
``split_conjuncts``); ``planner`` the pure planning rules and the
EXPLAIN tree; ``scalars`` SQLite's value semantics; ``store`` tables,
indexes, constraints and row mutations with their undo/redo entries;
``expressions`` and ``compiler`` the closure compiler; ``plans`` the
executors; ``memory`` the engine shell; ``wal`` durability on top of it.

Engine selection accepts either a bare backend name (``"sqlite"``,
``"memory"``, ``"wal"``) or a URL (``"sqlite:///var/pool.db"``,
``"memory://"``, ``"wal:///var/pool-wal"``); the
``CONDORJ2_STORAGE_ENGINE`` environment variable supplies the default
backend when the caller does not choose one, which is how CI runs the
whole tier-1 suite against each backend.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

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
from repro.condorj2.storage.wal import (
    CrashInjector,
    FsyncPolicy,
    RecoveryReport,
    SimulatedCrash,
    WalCorruptionError,
    WalStorageEngine,
)

#: Environment variable naming the default backend
#: ("sqlite" | "memory" | "wal").
ENGINE_ENV_VAR = "CONDORJ2_STORAGE_ENGINE"

_ENGINE_REGISTRY: Dict[str, Callable[..., StorageEngine]] = {
    "sqlite": SqliteStorageEngine,
    "memory": MemoryStorageEngine,
    "wal": WalStorageEngine,
}


class StorageConfigError(DatabaseError):
    """An engine name that is not in the registry.

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
            f"registered engines: {', '.join(available)}"
        )


def register_engine(name: str, factory: Callable[..., StorageEngine]) -> None:
    """Register a third backend under ``name`` (overwrites existing)."""
    _ENGINE_REGISTRY[name] = factory


def available_engines() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_ENGINE_REGISTRY))


def default_backend() -> str:
    """The configured default backend (``CONDORJ2_STORAGE_ENGINE``)."""
    return os.environ.get(ENGINE_ENV_VAR, "").strip() or "sqlite"


def _looks_like_backend_name(url: str) -> bool:
    """A bare identifier (no path separators, dots or scheme colons) can
    only be an intended backend name — never a usable database path."""
    return bool(url) and url.isidentifier()


def parse_storage_url(url: str) -> Tuple[str, str]:
    """Split ``url`` into (backend, path).

    Accepted forms: a bare backend name (``"memory"``), a backend URL
    (``"memory://"``, ``"sqlite:///var/pool.db"``, ``"sqlite::memory:"``)
    or a plain SQLite path (``":memory:"``, ``"/var/pool.db"``).

    A bare identifier that is not a registered backend raises
    :class:`StorageConfigError` — a typo like ``"postgres"`` must not be
    silently opened as a SQLite file of that name.
    """
    if "://" in url:
        backend, _, rest = url.partition("://")
        backend = backend or default_backend()
        if backend not in _ENGINE_REGISTRY:
            raise StorageConfigError(backend, available_engines())
        return backend, (rest or ":memory:")
    backend, sep, rest = url.partition(":")
    if sep and backend in _ENGINE_REGISTRY:
        return backend, (rest or ":memory:")
    if url in _ENGINE_REGISTRY:
        return url, ":memory:"
    if _looks_like_backend_name(url):
        raise StorageConfigError(url, available_engines())
    return "sqlite", (url or ":memory:")


def create_engine(
    spec: Optional[str] = None,
    path: str = ":memory:",
    statement_cache_size: int = 128,
) -> StorageEngine:
    """Build a storage engine from a backend name or URL.

    ``spec`` is a name/URL as accepted by :func:`parse_storage_url`.
    When ``spec`` is omitted (environment default applies) or is a bare
    backend name, the caller's ``path`` is used verbatim; a URL spec
    carries its own path.  An unknown backend — from ``spec`` or from
    ``CONDORJ2_STORAGE_ENGINE`` — raises :class:`StorageConfigError`.
    """
    if spec is None:
        backend = default_backend()
    elif spec in _ENGINE_REGISTRY:
        backend = spec
    else:
        backend, path = parse_storage_url(spec)
    factory = _ENGINE_REGISTRY.get(backend)
    if factory is None:
        raise StorageConfigError(backend, available_engines())
    return factory(path, statement_cache_size=statement_cache_size)


__all__ = [
    "CrashInjector",
    "DatabaseError",
    "ENGINE_ENV_VAR",
    "ExplainReport",
    "FsyncPolicy",
    "MemoryStorageEngine",
    "PlanNode",
    "RecoveryReport",
    "SimulatedCrash",
    "SqliteStorageEngine",
    "Statement",
    "StatementCache",
    "StatementCounts",
    "StorageConfigError",
    "StorageEngine",
    "WalCorruptionError",
    "WalStorageEngine",
    "available_engines",
    "create_engine",
    "default_backend",
    "parse_storage_url",
    "register_engine",
    "statement_table",
    "statement_verb",
]
