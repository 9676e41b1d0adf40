"""Macro-bench: WAL engine reopen time vs the un-checkpointed log.

The WAL engine is SQLite in WAL mode, so reopening a directory after a
crash is SQLite's own recovery: it reads the ``-wal`` file's valid
prefix to rebuild the log's index before the first read.  That cost
grows with the log, not with the database, which is the whole argument
for checkpointing.  A directory holding N committed autocommit inserts
(500, 2,000 and 8,000 commits) is reopened (a) as a crash leaves it,
the whole log un-checkpointed, and (b) right after a checkpoint, the
log truncated to zero bytes.

Results land machine-readably in ``BENCH_wal.json`` at the repo root;
CI uploads it as an artifact next to ``BENCH_scheduling.json``.

    python -m pytest benchmarks/bench_wal_recovery.py -q -s
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.condorj2.database import Database
from repro.condorj2.storage import WalStorageEngine

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_wal.json"

#: Committed autocommit inserts per reopen measurement.
LOG_LENGTHS = (500, 2_000, 8_000)

_INSERT = "INSERT INTO users (user_name, created_at) VALUES (?, ?)"


def _crashed_directory(commits, checkpoint):
    """A directory holding ``commits`` committed inserts as a crash
    leaves it: ``pool.db`` and ``pool.db-wal`` copied while the engine
    is still open (closing would checkpoint and delete the log)."""
    live = tempfile.mkdtemp(prefix="condorj2-walbench-")
    engine = WalStorageEngine(live)
    engine.checkpoint_bytes = 1 << 62  # no checkpoint while filling
    Database(engine=engine)
    for index in range(commits):
        engine.execute(_INSERT, (f"user-{index:07d}", float(index)))
    if checkpoint:
        engine.checkpoint()
    crashed = tempfile.mkdtemp(prefix="condorj2-walbench-")
    for name in ("pool.db", "pool.db-wal"):
        shutil.copy(os.path.join(live, name), crashed)
    engine.close()
    shutil.rmtree(live, ignore_errors=True)
    return crashed


def _reopen_once(directory):
    """Seconds from construction to the first answered read."""
    wal_bytes = os.path.getsize(os.path.join(directory, "pool.db-wal"))
    start = time.perf_counter()
    engine = WalStorageEngine(directory)
    rows = engine.execute("SELECT COUNT(*) FROM users").fetchall()[0][0]
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed, wal_bytes, rows


def test_reopen_time_vs_wal_length(benchmark):
    """Reopen-time curve over the un-checkpointed log, with the
    checkpointed point at every length."""
    results = []

    def run_curve():
        results.clear()
        for commits in LOG_LENGTHS:
            for checkpoint in (False, True):
                directory = _crashed_directory(commits, checkpoint)
                try:
                    elapsed, wal_bytes, rows = _reopen_once(directory)
                finally:
                    shutil.rmtree(directory, ignore_errors=True)
                assert rows == commits
                results.append({
                    "mode": "checkpointed" if checkpoint else "wal",
                    "commits": commits,
                    "wal_bytes": wal_bytes,
                    "reopen_ms": round(elapsed * 1e3, 3),
                })

    benchmark.pedantic(run_curve, rounds=1, iterations=1)

    print()
    for entry in results:
        print(
            f"{entry['mode']:>12} commits={entry['commits']:>6}: "
            f"{entry['reopen_ms']:>8.3f} ms reopen, "
            f"{entry['wal_bytes']:>10} WAL bytes"
        )
    logs = [e["wal_bytes"] for e in results if e["mode"] == "wal"]
    assert logs == sorted(logs) and logs[0] > 0
    # a checkpoint leaves nothing to recover
    assert all(e["wal_bytes"] == 0 for e in results
               if e["mode"] == "checkpointed")
    BENCH_JSON.write_text(json.dumps(
        {"bench": "wal_recovery", "reopen": results}, indent=2) + "\n")
    print(f"wrote {BENCH_JSON.name}")
