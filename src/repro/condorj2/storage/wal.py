"""The durable storage engine: SQLite in WAL mode on one file.

The paper's CAS left crash safety to its DBMS, DB2, and to DB2's log and
recovery.  :class:`WalStorageEngine` does the same with the SQLite that
already runs the ``sqlite`` backend: it is that engine over
``<dir>/pool.db`` in SQLite's own write-ahead-log mode, so the log, its
frame checksums, recovery after a crash and checkpoint atomicity are all
SQLite's.  This module only chooses the settings and keeps the ledger.

**Files.**  ``pool.db`` holds the checkpointed pages; SQLite appends
every commit's changed pages to ``pool.db-wal`` and keeps the log's
index in ``pool.db-shm``.  Opening the directory again — after a clean
close or after the process died — is recovery: SQLite replays the log's
valid prefix, up to the last whole commit, and ignores a torn tail.

**Flush policy.**  ``synchronous=OFF``: a commit's frames reach the OS
page cache and are never fsynced.  A process crash loses nothing
committed; a power loss may lose recent commits.

**Checkpoints.**  SQLite's automatic checkpoint is off
(``wal_autocheckpoint=0``).  The engine runs ``PRAGMA
wal_checkpoint(TRUNCATE)`` itself, at a committed boundary — before a
transaction or an autocommit statement starts — once the ``-wal`` file
holds :attr:`WalStorageEngine.checkpoint_bytes`: 4 MiB, SQLite's own
default of 1,000 pages of 4 KiB.

**Counters** (:class:`~repro.condorj2.storage.counters.StatementCounts`,
priced by :meth:`repro.condorj2.costs.CasCostModel.io_cost_seconds`):
``fsyncs`` counts commit points, the commits that grew the log;
``wal_appends`` counts the frames they wrote, worked out from the
file's growth; ``checkpoints`` counts completed checkpoints.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import weakref
from typing import Any, Callable, Dict, Sequence

from repro.condorj2.storage.engine import DatabaseError, SqliteStorageEngine

__all__ = ["WalStorageEngine"]

#: Bytes of the ``-wal`` file's header, and of each frame's own header
#: in front of its page (SQLite's WAL file format).
_WAL_HEADER = 32
_FRAME_HEADER = 24


class WalStorageEngine(SqliteStorageEngine):
    """SQLite in WAL mode over ``<path>/pool.db``.

    ``path`` is the directory.  Without one (``":memory:"``, the factory
    default) the engine makes a private temp directory, removed on close
    or when the engine is collected — which is what lets the whole
    tier-1 suite run under ``CONDORJ2_STORAGE_ENGINE=wal``.
    """

    name = "wal"

    #: The ``-wal`` size at which the next committed boundary checkpoints:
    #: SQLite's default autocheckpoint, 1,000 pages of 4 KiB.
    checkpoint_bytes = 1000 * 4096

    def __init__(self, path: str = ":memory:"):
        if not path or path == ":memory:":
            path = tempfile.mkdtemp(prefix="condorj2-wal-")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, path, ignore_errors=True)
        else:
            os.makedirs(path, exist_ok=True)
            self._finalizer = None
        database = os.path.join(path, "pool.db")
        self._wal_path = database + "-wal"
        super().__init__(database)
        conn = self._conn
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = OFF")
        conn.execute("PRAGMA wal_autocheckpoint = 0")
        self._frame_bytes = (conn.execute("PRAGMA page_size").fetchone()[0]
                             + _FRAME_HEADER)
        #: Size of the ``-wal`` file at the last commit point.
        self._wal_bytes = self._wal_size()
        #: WAL bytes written since this engine opened the file.
        self.stream_bytes = 0

    # ------------------------------------------------------------------
    # the ledger
    # ------------------------------------------------------------------
    def _wal_size(self) -> int:
        try:
            return os.stat(self._wal_path).st_size
        except FileNotFoundError:
            return 0

    def _observe(self, counted: bool = True) -> None:
        """Book what the last commit appended to the ``-wal`` file."""
        size = self._wal_size()
        grown = size - self._wal_bytes
        if grown > 0:
            self.stream_bytes += grown
            if counted:
                header = 0 if self._wal_bytes else _WAL_HEADER
                self.counts.wal_appends += (
                    (grown - header) // self._frame_bytes)
                self.counts.fsyncs += 1
        self._wal_bytes = size

    def _at_boundary(self) -> None:
        """A committed boundary: checkpoint if the log is due."""
        if self._wal_bytes >= self.checkpoint_bytes:
            self.checkpoint()

    # ------------------------------------------------------------------
    # raw hooks: autocommit statements are their own commit points
    # ------------------------------------------------------------------
    def _execute_raw(self, sql: str, params: Sequence[Any],
                     plan: Any) -> sqlite3.Cursor:
        return self._run(self._conn.execute, sql, params)

    def _executemany_raw(self, sql: str, rows: Sequence[Sequence[Any]],
                         plan: Any) -> sqlite3.Cursor:
        return self._run(self._conn.executemany, sql, rows)

    def _run(self, call: Callable[..., sqlite3.Cursor], sql: str,
             args: Any) -> sqlite3.Cursor:
        conn = self._conn
        if conn.in_transaction:
            return call(sql, args)
        self._at_boundary()
        changes = conn.total_changes
        cursor = call(sql, args)
        if conn.total_changes != changes:
            self._observe()
        return cursor

    def run_script(self, statements: Sequence[str]) -> None:
        super().run_script(statements)
        self._observe(counted=False)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self._at_boundary()
        super().begin()

    def _commit_raw(self) -> None:
        super()._commit_raw()
        self._observe()

    def checkpoint(self) -> None:
        """Copy the log into ``pool.db`` and truncate it to zero bytes.

        Legal only at a committed boundary.  A statement of this
        connection that still holds a read open makes SQLite refuse
        (``database table is locked``); the checkpoint is then left to
        the next boundary.
        """
        if self._conn.in_transaction:
            raise DatabaseError("checkpoint inside an open transaction")
        try:
            busy = self._conn.execute(
                "PRAGMA wal_checkpoint(TRUNCATE)").fetchone()[0]
        except sqlite3.OperationalError:
            return
        self._wal_bytes = self._wal_size()
        if not busy:
            self.counts.checkpoints += 1

    # ------------------------------------------------------------------
    # observability and shutdown
    # ------------------------------------------------------------------
    def wal_stats(self) -> Dict[str, Any]:
        """Durability figures for the statistics page and the benches."""
        return {
            "wal_bytes": self._wal_bytes,
            "stream_bytes": self.stream_bytes,
            "appends": self.counts.wal_appends,
            "fsyncs": self.counts.fsyncs,
            "checkpoints": self.counts.checkpoints,
        }

    def close(self) -> None:
        super().close()
        if self._finalizer is not None:
            self._finalizer()
