"""A WAL-backed durable storage engine over the memory executor.

The paper's CAS leaned on DB2's recovery machinery for crash safety; the
two in-process engines behind the :class:`~repro.condorj2.storage.engine.
StorageEngine` seam had none.  :class:`WalStorageEngine` closes that gap:
it is the dict-backed :class:`~repro.condorj2.storage.memory.
MemoryStorageEngine` executor with a file-backed write-ahead log in
front of the commit path.

**Log format.**  The log is a sequence of CRC32-framed records — a
little-endian ``(length, crc32)`` header followed by a compact-JSON
payload — of four kinds:

* ``begin`` — opens a transaction bracket (written lazily, before the
  transaction's first redo record, so read-only transactions leave no
  trace in the log);
* ``dml`` — one executed statement's *row-level redo*: the ordered
  ``ins``/``upd``/``del`` mutations the executor actually applied
  (including cascade deletes and batch rows).  Logging applied
  mutations rather than SQL text makes replay deterministic by
  construction and keeps compile errors — including poisoned
  :class:`~repro.condorj2.storage.memory._FailedPlan` cache artifacts —
  out of the log entirely;
* ``commit`` / ``abort`` — closes the bracket.  A ``dml`` record outside
  any bracket is an autocommit statement and is its own commit point.

**Durability.**  :class:`FsyncPolicy` decides when appended records are
forced to the OS (every commit point, the default; every N-th; or
never), fixed when the engine is built; the CAS cost model prices each
force as commit disk time
(:meth:`repro.condorj2.costs.CasCostModel.io_cost_seconds`).  The
simulation counts forces in :class:`~repro.condorj2.storage.counters.
StatementCounts` rather than paying real ``os.fsync`` latency unless
``os_sync=True``.

**Checkpoints.**  When the log grows past ``checkpoint_interval_bytes``
the engine — only at a committed boundary, before a transaction or
autocommit statement starts, so a snapshot can never contain
uncommitted work — writes a framed snapshot of every table (rows plus
AUTOINCREMENT high-water marks) to a temp file, atomically renames it
over ``checkpoint``, starts a fresh log segment named by the snapshot's
sequence number and deletes the old one.  A crash at any point between
those steps recovers: the rename is the atomic switch, and the snapshot
names the only segment that may be replayed onto it.

**Recovery** loads the latest checkpoint, scans the live segment up to
the first torn or corrupt frame, applies committed brackets and
autocommit records in order, discards an unclosed trailing bracket, and
physically truncates the log back to the last committed byte so new
appends never follow garbage.  The crash-equivalence contract — the
recovered state is byte-identical to a reference memory engine that
executed exactly the committed prefix of the workload — is enforced by
``tests/condorj2/test_crash_recovery.py``, which kills the engine at
randomized WAL byte offsets (torn writes included) and at every
checkpoint step.

:class:`CrashInjector` is that harness's kill switch: a deterministic
fault point expressed as a cumulative log-stream byte offset or a
checkpoint step, so every "power failure" is reproducible from a seed.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import tempfile
import weakref
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.condorj2.storage.engine import DatabaseError
from repro.condorj2.storage.memory import MemoryStorageEngine
from repro.condorj2.storage.store import MemoryEngineError

__all__ = [
    "CrashInjector",
    "FsyncPolicy",
    "RecoveryReport",
    "SimulatedCrash",
    "WalCorruptionError",
    "WalStorageEngine",
    "encode_record",
    "scan_records",
]


class SimulatedCrash(Exception):
    """The crash injector killed the engine (or it was already dead).

    Raised mid-write to model power loss: the bytes written so far stay
    on disk (possibly a torn record), everything after is lost, and all
    further use of the engine raises until a fresh engine recovers from
    the directory.
    """


class WalCorruptionError(DatabaseError):
    """The checkpoint file is unreadable — the log it covered is gone,
    so recovery cannot proceed silently."""


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------

#: Little-endian (payload length, payload crc32) record header.
_HEADER = struct.Struct("<II")


def frame_record(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length+CRC32 frame."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(obj: Any) -> bytes:
    """One framed log record holding ``obj`` as compact JSON."""
    payload = json.dumps(
        obj, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return frame_record(payload)


def iter_frames(data: bytes) -> Iterator[Tuple[bytes, int]]:
    """Yield ``(payload, end_offset)`` per whole, CRC-valid frame.

    Stops — without raising — at the first torn or corrupt frame, which
    is exactly the crash-recovery contract: a truncated log is a valid
    log that simply ends earlier.
    """
    offset, size = 0, len(data)
    while size - offset >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            return  # torn payload (or torn length field lying about it)
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: treat as end of log
        yield payload, end
        offset = end


def scan_records(data: bytes) -> Tuple[List[Tuple[Any, int]], bool]:
    """Decode every whole record of ``data``.

    Returns ``(records, clean)`` where each record is ``(obj,
    end_offset)`` and ``clean`` says the scan consumed every byte (no
    torn tail).
    """
    records: List[Tuple[Any, int]] = []
    end = 0
    for payload, offset in iter_frames(data):
        records.append((json.loads(payload), offset))
        end = offset
    return records, end == len(data)


def _decode_key(key: Any) -> Any:
    """Row keys are ints (rowid / INTEGER PRIMARY KEY) or tuples
    (WITHOUT ROWID primary keys); JSON stores tuples as arrays."""
    return tuple(key) if isinstance(key, list) else key


# ----------------------------------------------------------------------
# durability policy
# ----------------------------------------------------------------------

@dataclass
class FsyncPolicy:
    """When commit points force the log to the OS.

    ``"commit"`` forces every commit point (full durability — the mode
    the crash-equivalence contract is stated for), ``"interval"`` forces
    every ``interval``-th commit point (a group-commit precursor: up to
    ``interval - 1`` acknowledged commits ride on the next force) and
    ``"never"`` leaves flushing to checkpoints and close.  The CAS cost
    model prices each force as commit disk time, which is what makes the
    policy a priced knob rather than a free flag
    (:mod:`repro.condorj2.costs`).
    """

    mode: str = "commit"
    interval: int = 8

    MODES = ("commit", "interval", "never")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(
                f"unknown fsync mode {self.mode!r} (one of {self.MODES})")
        if self.interval < 1:
            raise ValueError("fsync interval must be >= 1")

    def should_sync(self, commits_since_sync: int) -> bool:
        """Force the log now, ``commits_since_sync`` commits after the
        last force?"""
        if self.mode == "commit":
            return True
        if self.mode == "interval":
            return commits_since_sync >= self.interval
        return False


# ----------------------------------------------------------------------
# crash injection
# ----------------------------------------------------------------------

class CrashInjector:
    """Deterministic kill switch for the crash-recovery fuzzer.

    ``crash_after_bytes`` is a cumulative log-stream offset (monotonic
    across checkpoint segment rotations): the append that would carry
    the stream past it writes only the allowed prefix — a torn record —
    and the engine dies.  ``checkpoint_step`` is ``(index, step)``: the
    ``index``-th checkpoint dies at ``step``, one of ``"snapshot"``
    (temp file half-written), ``"before-rename"``, ``"after-rename"``
    (snapshot switched, fresh segment not yet created) or
    ``"after-segment"`` (fresh segment created, old one not yet
    deleted).
    """

    CHECKPOINT_STEPS = (
        "snapshot", "before-rename", "after-rename", "after-segment",
    )

    def __init__(self, crash_after_bytes: Optional[int] = None,
                 checkpoint_step: Optional[Tuple[int, str]] = None):
        if checkpoint_step is not None \
                and checkpoint_step[1] not in self.CHECKPOINT_STEPS:
            raise ValueError(f"unknown checkpoint step {checkpoint_step[1]!r}")
        self.crash_after_bytes = crash_after_bytes
        self.checkpoint_step = checkpoint_step

    def allowed_bytes(self, stream_pos: int, nbytes: int) -> int:
        """How many of the next ``nbytes`` may reach the log; anything
        short of ``nbytes`` means the engine dies mid-write."""
        if self.crash_after_bytes is None:
            return nbytes
        remaining = self.crash_after_bytes - stream_pos
        return nbytes if remaining >= nbytes else max(0, remaining)

    def dies_at_checkpoint(self, index: int, step: str) -> bool:
        return self.checkpoint_step == (index, step)


# ----------------------------------------------------------------------
# recovery report
# ----------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What one recovery pass found and did — the admin-console view of
    a restart (rendered by the pool web site's statistics page)."""

    #: A checkpoint snapshot was loaded before log replay.
    checkpoint_loaded: bool = False
    #: The live segment's sequence number.
    segment_seq: int = 1
    #: Whole, CRC-valid records scanned from the live segment.
    records_scanned: int = 0
    #: ``dml`` records actually applied (committed brackets + autocommit).
    records_replayed: int = 0
    #: Row-level mutations those records carried.
    mutations_applied: int = 0
    #: Transaction brackets replayed to their commit record.
    transactions_committed: int = 0
    #: Brackets discarded: explicitly aborted, or unclosed at the crash.
    transactions_aborted: int = 0
    transactions_discarded: int = 0
    #: Bytes dropped from the tail (torn frame + uncommitted records).
    tail_bytes_dropped: int = 0
    #: Segment bytes kept (the log is truncated back to this length).
    log_bytes_kept: int = 0


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

_CHECKPOINT = "checkpoint"
_CHECKPOINT_TMP = "checkpoint.tmp"
_SEGMENT_PREFIX = "wal."


def _segment_name(seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{seq:06d}"


class WalStorageEngine(MemoryStorageEngine):
    """The memory executor wrapped with a file-backed write-ahead log.

    ``path`` is the log directory.  Passing ``":memory:"`` (the factory
    default) creates a private temp directory that is removed on close —
    durable *mechanics* without a durable *location*, which is what lets
    the whole tier-1 suite run under ``CONDORJ2_STORAGE_ENGINE=wal``.
    """

    name = "wal"

    def __init__(self, path: str = ":memory:",
                 *, fsync_policy: Optional[FsyncPolicy] = None,
                 checkpoint_interval_bytes: int = 256 * 1024,
                 injector: Optional[CrashInjector] = None,
                 os_sync: bool = False,
                 track_commit_positions: bool = False):
        #: Gate for the logging hooks: off while recovering (redo replay
        #: must not re-log itself) and after a simulated crash.
        self._wal_active = False
        self._crashed = False
        super().__init__(path)
        if not path or path == ":memory:":
            self.directory = tempfile.mkdtemp(prefix="condorj2-wal-")
            self._ephemeral = True
        else:
            self.directory = path
            os.makedirs(path, exist_ok=True)
            self._ephemeral = False
        # Ephemeral homes are reclaimed even when close() is never
        # called (tests that drop the engine on the floor).
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.directory, ignore_errors=True
        ) if self._ephemeral else None
        self.fsync_policy = fsync_policy or FsyncPolicy()
        self.checkpoint_interval_bytes = checkpoint_interval_bytes
        self.injector = injector
        self.os_sync = os_sync
        #: Cumulative bytes appended to the log stream — monotonic
        #: across segment rotations; the coordinate system the crash
        #: injector's kill offsets live in.
        self.stream_pos = 0
        #: Commit-point end offsets (stream coordinates) when tracked —
        #: the fuzzer's map from kill offsets to committed prefixes.
        self.commit_positions: Optional[List[int]] = (
            [] if track_commit_positions else None
        )
        self.last_recovery: Optional[RecoveryReport] = None
        self._file = None
        self._seq = 1
        self._txn_logged = False
        self._batch: Optional[List[Tuple]] = None
        self._commits_since_sync = 0
        self._bytes_since_checkpoint = 0
        self._checkpoints_done = 0
        self._recover()
        self._open_segment()
        self._wal_active = True

    # ------------------------------------------------------------------
    # log appends
    # ------------------------------------------------------------------
    def _check_crashed(self) -> None:
        if self._crashed:
            raise SimulatedCrash("storage engine crashed; construct a "
                                 f"fresh engine on {self.directory!r} "
                                 "to recover")

    def _die(self) -> None:
        """Power loss: persist exactly what was written, then go dark."""
        if self._file is not None and not self._file.closed:
            self._file.flush()
        self._crashed = True
        self._wal_active = False
        raise SimulatedCrash(f"simulated crash at stream offset "
                             f"{self.stream_pos}")

    def _append_record(self, obj: Any) -> None:
        data = encode_record(obj)
        if self.injector is not None:
            allowed = self.injector.allowed_bytes(self.stream_pos, len(data))
            if allowed < len(data):
                self._file.write(data[:allowed])
                self.stream_pos += allowed
                self._bytes_since_checkpoint += allowed
                self._die()
        self._file.write(data)
        self.stream_pos += len(data)
        self._bytes_since_checkpoint += len(data)
        self.counts.wal_appends += 1

    def _sync(self) -> None:
        """Force the log: flush (and fsync when ``os_sync``), counted —
        the cost model prices this, the simulation does not wait on a
        real disk by default."""
        self._file.flush()
        if self.os_sync:
            os.fsync(self._file.fileno())
        self.counts.fsyncs += 1
        self._commits_since_sync = 0

    def _commit_point(self) -> None:
        """A commit record (or autocommit ``dml``) is fully appended."""
        self._commits_since_sync += 1
        if self.fsync_policy.should_sync(self._commits_since_sync):
            self._sync()
        if self.commit_positions is not None:
            self.commit_positions.append(self.stream_pos)

    def _append_dml(self, entries: List[Tuple], in_txn: bool) -> None:
        if in_txn and not self._txn_logged:
            self._append_record({"t": "begin"})
            self._txn_logged = True
        self._append_record({"t": "dml", "ops": entries})

    # ------------------------------------------------------------------
    # statement execution hooks
    # ------------------------------------------------------------------
    def _run_statement(self, plan: Any, params: Any):
        self._check_crashed()
        if not self._wal_active:
            return super()._run_statement(plan, params)
        in_txn = self._undo is not None
        if not in_txn and self._batch is None:
            # Committed boundary ahead of the statement: the only safe
            # checkpoint windows are here and at begin() — a snapshot
            # taken mid-statement or mid-transaction could persist
            # uncommitted work.
            self._maybe_checkpoint()
        outer = self._redo
        self._redo = []
        try:
            cursor = super()._run_statement(plan, params)
        except BaseException:
            # The statement-level undo rolled its effects back; its redo
            # entries must never reach the log.
            self._redo = outer
            raise
        entries = self._redo
        self._redo = outer
        if entries:
            if self._batch is not None:
                self._batch.extend(entries)
            else:
                self._append_dml(entries, in_txn)
                if not in_txn:
                    self._commit_point()
        return cursor

    def _executemany_raw(self, sql: str, rows, plan: Any):
        self._check_crashed()
        if not self._wal_active:
            return super()._executemany_raw(sql, rows, plan)
        in_txn = self._undo is not None
        if not in_txn:
            self._maybe_checkpoint()
        outer = self._batch
        self._batch = []
        try:
            cursor = super()._executemany_raw(sql, rows, plan)
        finally:
            # A mid-batch failure leaves the applied prefix rows in the
            # tables (per-row statement atomicity); log exactly that
            # prefix so the log never diverges from memory.
            entries = self._batch
            self._batch = outer
            if entries and not self._crashed:
                self._append_dml(entries, in_txn)
                if not in_txn:
                    self._commit_point()
        return cursor

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self._check_crashed()
        if self._wal_active:
            self._maybe_checkpoint()
        super().begin()
        self._txn_logged = False

    def _commit_raw(self) -> None:
        self._check_crashed()
        if self._wal_active:
            if self._txn_logged:
                self._txn_logged = False
                self._append_record({"t": "commit"})
                self._commit_point()
        super()._commit_raw()

    def _rollback_raw(self) -> None:
        if self._wal_active and self._txn_logged:
            self._txn_logged = False
            if not self._crashed:
                self._append_record({"t": "abort"})
        super()._rollback_raw()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self._bytes_since_checkpoint >= self.checkpoint_interval_bytes \
                and self._undo is None:
            self.checkpoint()

    def _ckpt_step(self, index: int, step: str) -> None:
        if self.injector is not None \
                and self.injector.dies_at_checkpoint(index, step):
            self._die()

    def _snapshot_payload(self) -> bytes:
        tables: Dict[str, Any] = {}
        for name, table in self.tables.items():
            tables[name] = {
                "rows": [[key, row] for key, row in
                         sorted(table.rows.items())],
                "autoinc": table.autoinc_next,
            }
        snapshot = {"seq": self._seq + 1, "tables": tables}
        return json.dumps(
            snapshot, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")

    def checkpoint(self) -> None:
        """Snapshot the tables and rotate the log.

        Only legal at a committed boundary: temp-write the framed
        snapshot, fsync it, atomically rename it over ``checkpoint``,
        start segment ``seq+1``, delete the old segment.  Crash-safe at
        every step — recovery uses whichever (checkpoint, segment) pair
        the rename had made current.
        """
        self._check_crashed()
        if self._undo is not None:
            raise MemoryEngineError("checkpoint inside an open transaction")
        index = self._checkpoints_done
        frame = frame_record(self._snapshot_payload())
        tmp = os.path.join(self.directory, _CHECKPOINT_TMP)
        with open(tmp, "wb") as handle:
            if self.injector is not None \
                    and self.injector.dies_at_checkpoint(index, "snapshot"):
                handle.write(frame[:max(1, len(frame) // 2)])
                handle.flush()
                self._die()
            handle.write(frame)
            handle.flush()
            if self.os_sync:
                os.fsync(handle.fileno())
        self._ckpt_step(index, "before-rename")
        os.replace(tmp, os.path.join(self.directory, _CHECKPOINT))
        self._ckpt_step(index, "after-rename")
        old_segment = os.path.join(self.directory, _segment_name(self._seq))
        self._file.close()
        self._seq += 1
        self._open_segment()
        self._ckpt_step(index, "after-segment")
        os.remove(old_segment)
        self._bytes_since_checkpoint = 0
        self._checkpoints_done += 1
        self.counts.checkpoints += 1

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _open_segment(self) -> None:
        path = os.path.join(self.directory, _segment_name(self._seq))
        self._file = open(path, "ab")

    def _recover(self) -> None:
        report = RecoveryReport()
        tmp = os.path.join(self.directory, _CHECKPOINT_TMP)
        if os.path.exists(tmp):
            os.remove(tmp)  # an unrenamed snapshot never took effect
        checkpoint_path = os.path.join(self.directory, _CHECKPOINT)
        if os.path.exists(checkpoint_path):
            with open(checkpoint_path, "rb") as handle:
                records, clean = scan_records(handle.read())
            if len(records) != 1 or not clean:
                raise WalCorruptionError(
                    f"unreadable checkpoint {checkpoint_path!r}")
            snapshot = records[0][0]
            self._seq = snapshot["seq"]
            for name, tdata in snapshot["tables"].items():
                table = self.tables[name]
                for key, row in tdata["rows"]:
                    table.raw_insert(_decode_key(key), row)
                table.autoinc_next = tdata["autoinc"]
            report.checkpoint_loaded = True
        report.segment_seq = self._seq
        live = _segment_name(self._seq)
        for entry in os.listdir(self.directory):
            if entry.startswith(_SEGMENT_PREFIX) and entry != live:
                # A crash between the checkpoint rename and the old
                # segment's deletion leaves a stale segment the
                # snapshot already covers.
                os.remove(os.path.join(self.directory, entry))
        segment_path = os.path.join(self.directory, live)
        if not os.path.exists(segment_path):
            self.last_recovery = report if report.checkpoint_loaded else None
            return
        with open(segment_path, "rb") as handle:
            data = handle.read()
        records, _ = scan_records(data)
        pending: Optional[List[Any]] = None
        keep_end = 0
        for obj, end in records:
            report.records_scanned += 1
            kind = obj["t"]
            if kind == "begin":
                pending = []
            elif kind == "dml":
                if pending is None:
                    self._apply_redo(obj["ops"], report)
                    keep_end = end
                else:
                    pending.append(obj)
            elif kind == "commit":
                for record in pending or ():
                    self._apply_redo(record["ops"], report)
                report.transactions_committed += 1
                pending = None
                keep_end = end
            elif kind == "abort":
                report.transactions_aborted += 1
                pending = None
                keep_end = end
            else:
                raise WalCorruptionError(
                    f"unknown WAL record type {kind!r}")
        if pending is not None:
            report.transactions_discarded += 1
        report.tail_bytes_dropped = len(data) - keep_end
        report.log_bytes_kept = keep_end
        if keep_end < len(data):
            # Truncate the torn/uncommitted tail so appends resume from
            # the last committed byte — a later recovery must never
            # find live records after garbage.
            with open(segment_path, "r+b") as handle:
                handle.truncate(keep_end)
        self._bytes_since_checkpoint = keep_end
        self.stream_pos = keep_end
        self.last_recovery = report if (
            report.checkpoint_loaded or report.records_scanned
            or report.tail_bytes_dropped
        ) else None

    def _apply_redo(self, ops: List[Any], report: RecoveryReport) -> None:
        report.records_replayed += 1
        self.counts.wal_replays += 1
        for op in ops:
            kind, table_name = op[0], op[1]
            table = self.tables[table_name]
            if kind == "ins":
                key = _decode_key(op[2])
                table.raw_insert(key, op[3])
                if table.tdef.autoincrement and isinstance(key, int):
                    table.autoinc_next = max(table.autoinc_next, key + 1)
            elif kind == "upd":
                table.raw_update(_decode_key(op[2]), op[3])
            elif kind == "del":
                table.raw_delete(_decode_key(op[2]))
            else:
                raise WalCorruptionError(f"unknown redo op {kind!r}")
            report.mutations_applied += 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def wal_stats(self) -> Dict[str, Any]:
        """Durability figures for the statistics page and the fuzzer."""
        return {
            "directory": self.directory,
            "segment": _segment_name(self._seq),
            "stream_bytes": self.stream_pos,
            "segment_bytes": self._bytes_since_checkpoint,
            "appends": self.counts.wal_appends,
            "fsyncs": self.counts.fsyncs,
            "checkpoints": self.counts.checkpoints,
            "replays": self.counts.wal_replays,
            "fsync_mode": self.fsync_policy.mode,
            "crashed": self._crashed,
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.flush()
            self._file.close()
        if self._ephemeral and self._finalizer is not None:
            self._finalizer()
        super().close()
