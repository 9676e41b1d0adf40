"""The monitoring reads: ``queueSummary`` and ``userSummary``.

Each is one statement whose cost is set by what it returns, not by how
many jobs are queued.  The property below holds their answers equal to
the statements they replaced (a ``GROUP BY state`` over every job, and a
``SUM(CASE ...)`` over every row the owner has), kept here as the oracle,
on all three engines; the plan pins fail when either old statement
comes back.
"""

import re
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condorj2.database import Database
from repro.condorj2.logic.queries import (
    QUEUE_SUMMARY_SQL, USER_QUEUE_SQL, ReportService,
)
from repro.condorj2.schema import LIFECYCLES, SCHEMA_STATEMENTS

BACKENDS = ("sqlite", "memory", "wal")
JOB_STATES = LIFECYCLES["jobs"].states
OWNERS = ("alice", "bob", "7")


def _old_queue_summary(db):
    rows = db.query_all("SELECT state, COUNT(*) AS n FROM jobs GROUP BY state")
    summary = {row["state"]: row["n"] for row in rows}
    for state in ("idle", "matched", "running"):
        summary.setdefault(state, 0)
    return summary


def _old_user_summary(db, owner):
    queued = db.query_one(
        "SELECT SUM(CASE WHEN state = 'idle' THEN 1 ELSE 0 END) AS idle, "
        "SUM(CASE WHEN state = 'running' THEN 1 ELSE 0 END) AS running "
        "FROM jobs WHERE owner = ?", (owner,))
    completed = db.scalar(
        "SELECT COUNT(*) FROM job_history WHERE owner = ?", (owner,))
    usage = db.scalar(
        "SELECT accumulated_usage_seconds FROM users WHERE user_name = ?",
        (owner,))
    return {"owner": owner, "idle": queued["idle"] or 0,
            "running": queued["running"] or 0, "completed": completed or 0,
            "usage_seconds": usage or 0.0}


def _pool(backend, jobs):
    """A store holding ``jobs`` — (owner, state) pairs — inserted directly,
    so every CHECK state occurs, not only those the services produce."""
    db = Database(backend=backend)
    for owner in OWNERS:
        db.execute("INSERT INTO users (user_name, created_at) VALUES (?, 0)",
                   (owner,))
    db.executemany(
        "INSERT INTO jobs (owner, cmd, state, run_seconds, submitted_at) "
        "VALUES (?, '/bin/true', ?, 1.0, 0.0)", jobs)
    db.execute(
        "INSERT INTO job_history (job_id, owner, cmd, run_seconds, "
        "submitted_at, final_state) VALUES (1, 'alice', '/bin/true', 1.0, "
        "0.0, 'completed')")
    return db


_jobs = st.lists(st.tuples(st.sampled_from(OWNERS),
                           st.sampled_from(JOB_STATES)), max_size=40)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(jobs=_jobs, owner=st.sampled_from(OWNERS + ("nobody", 7)))
def test_reads_equal_the_statements_they_replaced(backend, jobs, owner):
    db = _pool(backend, jobs)
    try:
        reports = ReportService(db)
        summary = reports.queue_summary()
        assert summary == _old_queue_summary(db)
        assert list(summary) == list(_old_queue_summary(db))  # same order
        assert reports.user_summary(owner) == _old_user_summary(db, owner)
    finally:
        db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_reads_on_an_empty_queue(backend):
    db = _pool(backend, [])
    try:
        reports = ReportService(db)
        assert reports.queue_summary() == {"idle": 0, "matched": 0,
                                           "running": 0}
        assert reports.user_summary("nobody") == _old_user_summary(
            db, "nobody")
    finally:
        db.close()


def test_queue_summary_subtracts_every_state_but_idle():
    """A seventh state added to the CHECK domain cannot count as idle:
    the statement must list it beside the other non-idle states."""
    listed = re.findall(r"state = '(\w+)'", QUEUE_SUMMARY_SQL)
    assert sorted(listed) == sorted(set(JOB_STATES) - {"idle"})
    assert len(listed) == len(set(listed))


# ----------------------------------------------------------------------
# plan pins
# ----------------------------------------------------------------------

@pytest.fixture
def sqlite_conn():
    conn = sqlite3.connect(":memory:")
    for statement in SCHEMA_STATEMENTS:
        conn.execute(statement)
    yield conn
    conn.close()


def test_sqlite_counts_the_queue_from_the_btree(sqlite_conn):
    """The total is the ``Count`` opcode; no cursor is rewound to walk a
    whole b-tree of ``jobs`` row by row, and every state count seeks."""
    opcodes = [row[1] for row in
               sqlite_conn.execute("EXPLAIN " + QUEUE_SUMMARY_SQL)]
    assert opcodes.count("Count") == 1
    assert "Rewind" not in opcodes and "Last" not in opcodes
    plan = [row[3] for row in
            sqlite_conn.execute("EXPLAIN QUERY PLAN " + QUEUE_SUMMARY_SQL)]
    searches = [line for line in plan if line.startswith("SEARCH jobs")]
    assert searches == [
        "SEARCH jobs USING COVERING INDEX idx_jobs_state_owner (state=?)"
    ] * (len(JOB_STATES) - 1)


def test_sqlite_counts_one_owner_inside_the_covering_index(sqlite_conn):
    plan = [row[3] for row in sqlite_conn.execute(
        "EXPLAIN QUERY PLAN " + USER_QUEUE_SQL, {"owner": "alice"})]
    reads = [line for line in plan if "jobs" in line]
    assert reads == ["SEARCH jobs USING COVERING INDEX idx_jobs_state_owner "
                     "(state=? AND owner=?)"] * 2


def test_memory_engine_counts_without_reading_rows():
    db = _pool("memory", [("alice", "idle")] * 3 + [("bob", "running")])
    try:
        queue = db.explain(QUEUE_SUMMARY_SQL).render()
        assert queue.count("COUNT row count") == 1
        user = db.explain(USER_QUEUE_SQL, {"owner": "alice"}).render()
        assert user.count("COUNT bucket size") == 2
        assert "AGGREGATE" not in user
        # The probes were counted, not walked: no row was read.
        probes = [line for line in user.splitlines() if "PROBE jobs" in line]
        assert len(probes) == 2
        assert not any("actual=" in line for line in probes)
    finally:
        db.close()


def test_count_fast_path_sees_the_outer_row():
    """A correlated count probes with the outer row's value: the fast
    path answers per outer row, as SQLite does."""
    sql = ("SELECT u.user_name, (SELECT COUNT(*) FROM jobs c "
           "WHERE c.state = 'idle' AND c.owner = u.user_name) AS idle "
           "FROM users u ORDER BY u.user_name")
    jobs = [("alice", "idle")] * 3 + [("bob", "idle"), ("7", "running")]
    answers = {}
    for backend in BACKENDS:
        db = _pool(backend, jobs)
        try:
            answers[backend] = [tuple(row) for row in db.query_all(sql)]
        finally:
            db.close()
    assert answers["sqlite"] == [("7", 0), ("alice", 3), ("bob", 1)]
    assert answers["memory"] == answers["wal"] == answers["sqlite"]
