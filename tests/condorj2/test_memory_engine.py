"""Conformance tests for the dict-backed storage engine.

Three layers of assurance beyond the differential fuzzer:

* backend-parametrized contract tests — the same assertions run against
  SQLite and the memory engine, so every behaviour here is pinned on
  both implementations (affinity, rowcounts, lastrowid, constraint
  errors, transactional rollback, OR IGNORE, cascades, the dialect's
  harder corners);
* property-based tests that the memory engine's secondary indexes
  (equality, unique, and the prefix index with its memoized probes) stay
  exactly consistent with table contents under interleaved
  insert/update/delete/rollback;
* a round trip of the one schema declaration: ``TABLE_DEFS`` rendered to
  DDL, run by SQLite and read back out of its catalog must equal the
  declaration attribute for attribute — so what SQLite builds and what
  the memory engine builds from the same ``TableDef`` cannot differ.
"""

import dataclasses
import re
import sqlite3
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.logic.scheduling import MATCH_UPDATE_SQL
from repro.condorj2.schema import (
    SCHEMA_STATEMENTS,
    TABLE_BY_NAME,
    TABLE_DEFS,
    ColumnDef,
    ForeignKeyDef,
    IndexDef,
    TableDef,
    render_ddl,
)
from repro.condorj2.storage import MemoryStorageEngine
from repro.condorj2.storage import sqlparser
from repro.condorj2.storage.sqlparser import SqlSyntaxError
from repro.condorj2.storage.store import MemoryTable

BACKENDS = ("sqlite", "memory")


@pytest.fixture(params=BACKENDS)
def db(request):
    database = Database(backend=request.param)
    yield database
    database.close()


def _seed_machine(db, name="m1", vms=2):
    db.execute("INSERT INTO machines (machine_name) VALUES (?)", (name,))
    for index in range(vms):
        db.execute(
            "INSERT INTO vms (vm_id, machine_name) VALUES (?, ?)",
            (f"vm{index}@{name}", name),
        )


# ----------------------------------------------------------------------
# backend-parametrized contract
# ----------------------------------------------------------------------

def test_write_affinity_matches_sqlite(db):
    """INTEGER into REAL column reads back as float; float into INTEGER
    column with integral value reads back as int."""
    db.execute(
        "INSERT INTO users (user_name, created_at) VALUES ('u', 0)"
    )
    row = db.query_one("SELECT * FROM users")
    assert row["created_at"] == 0.0 and isinstance(row["created_at"], float)
    db.execute(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at,"
        " image_size_mb) VALUES (1, 'u', '/bin/x', 60, 0, 32.0)"
    )
    job = db.query_one("SELECT * FROM jobs")
    assert job["image_size_mb"] == 32 and isinstance(job["image_size_mb"], int)
    assert isinstance(job["run_seconds"], float)


def test_update_rowcount_counts_matched_rows(db):
    _seed_machine(db, vms=3)
    cursor = db.execute("UPDATE vms SET state = 'idle'")  # no-op values
    assert cursor.rowcount == 3
    cursor = db.execute(
        "UPDATE vms SET state = 'busy' WHERE vm_id = 'vm0@m1'"
    )
    assert cursor.rowcount == 1
    cursor = db.execute(
        "UPDATE vms SET state = 'busy' WHERE vm_id = 'nope'"
    )
    assert cursor.rowcount == 0


def test_insert_or_ignore_rowcount_and_lastrowid(db):
    cursor = db.execute(
        "INSERT OR IGNORE INTO users (user_name, created_at) VALUES ('a', 0)"
    )
    assert cursor.rowcount == 1
    cursor = db.execute(
        "INSERT OR IGNORE INTO users (user_name, created_at) VALUES ('a', 9)"
    )
    assert cursor.rowcount == 0
    assert db.scalar("SELECT created_at FROM users") == 0.0


def test_autoincrement_keys_are_never_reused(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    _seed_machine(db)
    db.execute(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (1, 'u', '/bin/x', 60, 0)"
    )
    first = db.execute(
        "INSERT INTO matches (job_id, vm_id, created_at)"
        " VALUES (1, 'vm0@m1', 0)"
    ).lastrowid
    db.execute("DELETE FROM matches WHERE match_id = ?", (first,))
    second = db.execute(
        "INSERT INTO matches (job_id, vm_id, created_at)"
        " VALUES (1, 'vm0@m1', 1)"
    ).lastrowid
    assert second == first + 1  # AUTOINCREMENT: no reuse after delete


def test_plain_integer_pk_assigns_max_plus_one(db):
    db.execute(
        "INSERT INTO job_history (job_id, owner, cmd, run_seconds,"
        " submitted_at, final_state) VALUES (7, 'u', 'c', 1, 0, 'completed')"
    )
    assigned = db.execute(
        "INSERT INTO job_history (owner, cmd, run_seconds, submitted_at,"
        " final_state) VALUES ('u', 'c', 1, 1, 'completed')"
    ).lastrowid
    assert assigned == 8


def test_constraint_errors_are_database_errors(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    with pytest.raises(DatabaseError):  # PK duplicate
        db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    with pytest.raises(DatabaseError):  # CHECK violation
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, state, run_seconds,"
            " submitted_at) VALUES (1, 'u', '/bin/x', 'bogus', 60, 0)"
        )
    with pytest.raises(DatabaseError):  # FK violation
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (1, 'ghost', '/bin/x', 60, 0)"
        )
    with pytest.raises(DatabaseError):  # NOT NULL violation
        db.execute("INSERT INTO users (user_name) VALUES ('v')")


def test_restrict_fk_blocks_parent_delete(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    db.execute(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (1, 'u', '/bin/x', 60, 0)"
    )
    with pytest.raises(DatabaseError):
        db.execute("DELETE FROM users WHERE user_name = 'u'")


def test_cascade_delete_is_not_counted_in_rowcount(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    for job_id in (1, 2):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            f" VALUES ({job_id}, 'u', '/bin/x', 60, 0)"  # sql-ident: int literal
        )
    db.execute(
        "INSERT INTO job_dependencies (job_id, depends_on_job_id) VALUES (2, 1)"
    )
    cursor = db.execute("DELETE FROM jobs WHERE job_id = 2")
    assert cursor.rowcount == 1  # the cascaded edge is not counted
    assert db.table_count("job_dependencies") == 0


def test_transaction_rollback_restores_indexes_and_rows(db):
    _seed_machine(db, vms=2)
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("UPDATE vms SET state = 'busy' WHERE vm_id = 'vm0@m1'")
            db.execute("DELETE FROM vms WHERE vm_id = 'vm1@m1'")
            db.execute(
                "INSERT INTO vms (vm_id, machine_name) VALUES ('vm9@m1', 'm1')"
            )
            raise RuntimeError("abort")
    rows = {r["vm_id"]: r["state"] for r in db.query_all("SELECT * FROM vms")}
    assert rows == {"vm0@m1": "idle", "vm1@m1": "idle"}
    # the indexes survived the rollback: probes still work
    assert db.scalar(
        "SELECT COUNT(*) FROM vms WHERE machine_name = 'm1'"
    ) == 2
    assert db.scalar("SELECT COUNT(*) FROM vms WHERE state = 'idle'") == 2


@pytest.mark.parametrize("in_transaction", [False, True])
def test_an_interrupted_statement_is_undone(in_transaction):
    """A ``KeyboardInterrupt`` from the second row write of an UPDATE
    undoes the first row's write, and hands the transaction its undo
    list back: rollback removes the transaction's earlier INSERT, and
    in autocommit the next ``begin()`` finds no transaction open."""
    database = Database(backend="memory")
    database.executemany(
        "INSERT INTO users (user_name, priority, created_at) VALUES (?, 1, 0)",
        [("ann",), ("bob",)])
    engine = database.engine
    write = engine._update_row
    calls = []

    def interrupted(table, key, changes):
        calls.append(key)
        if len(calls) == 2:
            raise KeyboardInterrupt
        write(table, key, changes)

    with mock.patch.object(engine, "_update_row", interrupted):
        with pytest.raises(KeyboardInterrupt):
            if in_transaction:
                with database.transaction():
                    database.execute(
                        "INSERT INTO users (user_name, created_at)"
                        " VALUES ('cy', 0)")
                    database.execute("UPDATE users SET priority = 5")
            else:
                database.execute("UPDATE users SET priority = 5")
    assert len(calls) == 2
    assert _rows(database, "SELECT user_name, priority FROM users"
                           " ORDER BY user_name") == [("ann", 1), ("bob", 1)]
    with database.transaction():
        database.execute("UPDATE users SET priority = 2 WHERE user_name = 'ann'")
    assert database.scalar(
        "SELECT priority FROM users WHERE user_name = 'ann'") == 2
    database.close()


def test_json_each_membership(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    for job_id in (1, 2, 3):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (?, 'u', '/bin/x', 60, 0)", (job_id,)
        )
    rows = db.query_all(
        "SELECT job_id FROM jobs"
        " WHERE job_id IN (SELECT value FROM json_each(?))"
        " ORDER BY job_id",
        ("[1, 3]",),
    )
    assert [r["job_id"] for r in rows] == [1, 3]


def test_concat_and_aggregates(db):
    db.execute(
        "INSERT INTO accounting (owner, job_id, wall_seconds, recorded_at)"
        " VALUES ('a,b', 1, 60, 0)"
    )
    rows = db.query_all(
        "SELECT owner FROM accounting WHERE ',' || owner || ',' = ?",
        (",a,b,",),
    )
    assert [r["owner"] for r in rows] == ["a,b"]
    assert db.scalar("SELECT SUM(job_id) FROM accounting") == 1
    assert db.scalar("SELECT SUM(job_id) FROM accounting WHERE job_id > 9") is None
    assert db.scalar("SELECT COUNT(*) FROM accounting WHERE job_id > 9") == 0


def test_case_when_and_integer_division(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    db.execute(
        "INSERT INTO job_history (job_id, owner, cmd, run_seconds,"
        " submitted_at, final_state, completed_at)"
        " VALUES (1, 'u', '/bin/x', 60, 0, 'completed', 130.0)"
    )
    row = db.query_one(
        "SELECT CAST(completed_at / 60 AS INTEGER) AS minute,"
        "       SUM(CASE WHEN final_state = 'completed' THEN 1 ELSE 0 END)"
        "       AS done"
        " FROM job_history GROUP BY minute"
    )
    assert row["minute"] == 2
    assert row["done"] == 1


def test_limit_zero_returns_no_rows(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    assert db.query_all("SELECT user_name FROM users LIMIT 0") == []
    assert db.query_all("SELECT user_name FROM users LIMIT ?", (0,)) == []
    assert len(db.query_all(
        "SELECT user_name FROM users ORDER BY user_name LIMIT 0")) == 0
    # EXISTS over a window is existence *inside* the window.
    assert db.query_all(
        "SELECT 1 FROM users u WHERE EXISTS "
        "(SELECT 1 FROM users v WHERE v.user_name = u.user_name LIMIT 0)"
    ) == []


def test_unary_plus_is_a_no_op(db):
    """``+column`` is the column's stored value, text included — the
    scheduling pass guards its set UPDATE with ``+state = 'idle'``."""
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('7up', 0)")
    assert [tuple(row) for row in db.query_all(
        "SELECT +user_name, +priority FROM users "
        "WHERE +user_name = '7up'")] == [("7up", 0.5)]


def test_three_valued_logic_yields_sqlite_integers(db):
    """FALSE AND NULL is 0 (not NULL), TRUE OR NULL is 1, and projected
    boolean results are integers on both backends."""
    assert db.scalar("SELECT 0 AND NULL") == 0
    assert db.scalar("SELECT NULL AND 0") == 0
    assert db.scalar("SELECT 1 AND NULL") is None
    assert db.scalar("SELECT 1 OR NULL") == 1
    assert db.scalar("SELECT NULL OR 0") is None
    value = db.scalar("SELECT 1 AND 1")
    assert value == 1 and isinstance(value, int) and repr(value) == "1"
    eq = db.scalar("SELECT 2 = 2")
    assert repr(eq) == "1"


def test_order_by_desc_limit(db):
    for job_id, owner in ((1, "ann"), (2, "bob"), (3, "ann")):
        db.execute(
            "INSERT INTO accounting (owner, job_id, wall_seconds,"
            " recorded_at) VALUES (?, ?, 60, 0)",
            (owner, job_id),
        )
    top = db.query_one(
        "SELECT * FROM accounting ORDER BY record_id DESC LIMIT 1"
    )
    assert (top["owner"], top["job_id"]) == ("ann", 3)


def test_group_by_lists_each_value_once(db):
    """GROUP BY is the dialect's way to ask for distinct values."""
    for job_id, owner in ((1, "bob"), (2, "ann"), (3, "bob"), (4, "ann")):
        db.execute(
            "INSERT INTO accounting (owner, job_id, wall_seconds,"
            " recorded_at) VALUES (?, ?, 60, 0)",
            (owner, job_id),
        )
    rows = db.query_all(
        "SELECT owner FROM accounting GROUP BY owner ORDER BY owner")
    assert [r["owner"] for r in rows] == ["ann", "bob"]


@pytest.mark.parametrize("sql", [
    "SELECT owner, COUNT(*) AS n FROM jobs GROUP BY owner HAVING n > 1",
    "SELECT DISTINCT owner FROM jobs",
    "SELECT COUNT(DISTINCT owner) FROM jobs",
    "SELECT job_id FROM jobs WHERE owner LIKE ?",
    "SELECT job_id FROM jobs WHERE owner NOT LIKE ?",
], ids=["having", "distinct", "count-distinct", "like", "not-like"])
def test_having_distinct_and_like_are_outside_the_dialect(sql):
    """No service statement uses them, so the parser refuses them rather
    than letting an engine half-support them."""
    with pytest.raises(SqlSyntaxError):
        sqlparser.parse(sql)


@pytest.mark.parametrize("sql", [
    "SELECT owner, COUNT(*), ROW_NUMBER() OVER (ORDER BY owner)"
    " FROM jobs GROUP BY owner",
    "SELECT job_id, ROW_NUMBER() OVER (ORDER BY COUNT(*)) FROM jobs",
    "SELECT COUNT(*) FROM jobs ORDER BY ROW_NUMBER() OVER (ORDER BY job_id)",
], ids=["beside-group-by", "aggregate-in-window", "beside-aggregate"])
def test_a_window_beside_grouping_is_outside_the_dialect(sql):
    """SQLite numbers the groups; the memory engine's window pass numbers
    rows (it answered 1, 4, 7 for three groups of three).  No service
    statement ranks groups, so the memory engine refuses the form."""
    database = Database(backend="memory")
    _seed_owner_queue(database)
    with pytest.raises(database.engine.ENGINE_ERRORS,
                       match="beside GROUP BY or an aggregate"):
        database.query_all(sql)
    database.close()


def test_integer_division_is_exact_beyond_float_precision(db):
    big = 36028797018963969  # 2**55 + 1: float round-trips lose the +1
    assert db.scalar("SELECT CAST(? AS INTEGER) / 3", (big,)) == big // 3
    assert db.scalar("SELECT CAST(? AS INTEGER) % 7", (big,)) == big % 7
    assert db.scalar("SELECT -7 / 2") == -3  # truncation, not floor
    assert db.scalar("SELECT -7 % 2") == -1


def test_comparison_affinity_coerces_text_parameters(db):
    """A text parameter compared to a numeric-affinity column converts
    to a number, on equality, IN membership and range predicates."""
    db.execute(
        "INSERT INTO job_history (job_id, owner, cmd, run_seconds,"
        " submitted_at, final_state) VALUES (5, 'u', 'c', 1, 0, 'completed')"
    )
    assert db.scalar(
        "SELECT job_id FROM job_history WHERE job_id = ?", ("5",)
    ) == 5
    assert db.scalar(
        "SELECT job_id FROM job_history WHERE job_id IN (?, ?)",
        ("5", "9"),
    ) == 5
    assert db.scalar(
        "SELECT job_id FROM job_history WHERE job_id > ?", ("4",)
    ) == 5


#: ``jobs.owner`` is TEXT and indexed, ``users.priority`` REAL: comparing
#: them converts the *text* side ('1' -> 1 = 1.0), so an index over the
#: stored text must not answer.  (sql, rows SQLite returns)
_CROSS_AFFINITY_SHAPES = [
    ("SELECT j.job_id FROM users u JOIN jobs j ON j.owner = u.priority", 3),
    ("SELECT j.job_id FROM jobs j"
     " WHERE j.owner IN (SELECT u.priority FROM users u)", 3),
    ("SELECT u.user_name FROM users u WHERE EXISTS"
     " (SELECT 1 FROM jobs j WHERE j.owner = u.priority)", 1),
    # the same comparisons, negated
    ("SELECT j.job_id FROM jobs j"
     " WHERE j.owner NOT IN (SELECT u.priority FROM users u)", 0),
    ("SELECT u.user_name FROM users u WHERE NOT EXISTS"
     " (SELECT 1 FROM jobs j WHERE j.owner = u.priority)", 0),
    # an affinity-less needle against a numeric column
    ("SELECT j.job_id FROM jobs j"
     " WHERE '1' IN (SELECT u.priority FROM users u)", 3),
    # a hash join over a subquery coerces its keys instead
    ("SELECT u.user_name FROM users u"
     " JOIN (SELECT owner AS o FROM jobs) s ON s.o = u.priority", 3),
    # a probe from a correlated scalar subquery
    ("SELECT j.job_id FROM jobs j WHERE (SELECT COUNT(*) FROM users u"
     " WHERE u.user_name = j.run_seconds) > 0", 3),
    # conversions that fall on the other side keep their probe
    ("SELECT u.user_name FROM users u"
     " WHERE u.priority IN (SELECT j.owner FROM jobs j)", 1),
    ("SELECT j.job_id FROM jobs j WHERE j.owner = 1", 3),
    ("SELECT j.job_id FROM jobs j WHERE j.owner = 1.0", 0),
]


@pytest.mark.parametrize("sql, expected", _CROSS_AFFINITY_SHAPES)
def test_equality_probes_respect_comparison_affinity(db, sql, expected):
    db.execute("INSERT INTO users (user_name, priority, created_at)"
               " VALUES ('1', 1.0, 0)")
    for job_id in (1, 2, 3):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (?, '1', 'c', 1, 0)", (job_id,))
    assert len(db.query_all(sql)) == expected


# ----------------------------------------------------------------------
# IN (SELECT ...) naming an outer column; what LIMIT may see
# ----------------------------------------------------------------------

def _seed_dependencies(db):
    """jobs 1..3 run 2, 1 and 9 seconds; 1 depends on 2 and 2 on 1."""
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    for job_id, seconds in ((1, 2.0), (2, 1.0), (3, 9.0)):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (?, 'u', 'c', ?, 0)", (job_id, seconds))
    db.executemany(
        "INSERT INTO job_dependencies (job_id, depends_on_job_id)"
        " VALUES (?, ?)", [(1, 2), (2, 1)])


#: The subquery reads the outer row's ``run_seconds`` -- with no
#: qualifier, then with one.  Only the outer row can supply it: an
#: engine that runs the subquery once, ahead of the scan, reads NULL.
_DEPENDS_ON_OWN_RUN_SECONDS = (
    "job_id IN (SELECT d.job_id FROM job_dependencies d"
    " WHERE d.depends_on_job_id = {outer})")


@pytest.mark.parametrize("outer", ["run_seconds", "j.run_seconds"])
def test_select_in_subquery_reads_the_outer_row(db, outer):
    _seed_dependencies(db)
    rows = db.query_all(
        "SELECT j.job_id FROM jobs j WHERE j."
        + _DEPENDS_ON_OWN_RUN_SECONDS.format(outer=outer))
    assert [tuple(row) for row in rows] == [(1,), (2,)]


@pytest.mark.parametrize("outer", ["run_seconds", "jobs.run_seconds"])
def test_update_in_subquery_reads_the_outer_row(db, outer):
    _seed_dependencies(db)
    cursor = db.execute(
        "UPDATE jobs SET cmd = 'x' WHERE "
        + _DEPENDS_ON_OWN_RUN_SECONDS.format(outer=outer))
    assert cursor.rowcount == 2
    assert [tuple(row) for row in db.query_all(
        "SELECT job_id, cmd FROM jobs ORDER BY job_id")] == [
            (1, "x"), (2, "x"), (3, "c")]


def test_only_a_self_contained_in_subquery_drives_the_scan():
    """A bare name is the subquery's own column where it has one
    (``MATCH_UPDATE_SQL``) and the outer row's where it has not."""
    database = Database(backend="memory")
    _seed_dependencies(database)
    correlated = database.explain(
        "SELECT j.job_id FROM jobs j WHERE j."
        + _DEPENDS_ON_OWN_RUN_SECONDS.format(outer="run_seconds")).render()
    assert "in-select probe" not in correlated
    assert "SCAN jobs AS j" in correlated
    assert "UPDATE jobs (in-select probe on job_id)" in database.explain(
        MATCH_UPDATE_SQL).render()
    database.close()


def test_limit_sees_no_column(db):
    """SQLite rejects a column in LIMIT, an outer one included; so does
    the memory engine, when it compiles the statement and with one of
    its own ``ENGINE_ERRORS`` -- not an ``IndexError`` from the row loop."""
    _seed_dependencies(db)
    sql = ("SELECT j.job_id FROM jobs j WHERE j.job_id IN"
           " (SELECT d.job_id FROM job_dependencies d"
           "  ORDER BY d.job_id LIMIT attempts + 1)")
    with pytest.raises(db.engine.ENGINE_ERRORS, match="no such column"):
        db.query_all(sql)
    with pytest.raises(DatabaseError, match="no such column"):
        db.explain(sql)


# ----------------------------------------------------------------------
# the scheduling walk's dialect: LIMIT .. OFFSET, COALESCE, CROSS JOIN
# ----------------------------------------------------------------------

def _seed_owner_queue(db):
    """ann holds the odd job ids 1..11 and bob the even ones 2..12;
    every third job is matched.  ``submitted_at`` runs against job_id:
    job j was submitted at 5j mod 12, so the two orders differ.  Idle:
    ann 1, 5, 7, 11 and bob 2, 4, 8, 10."""
    db.executemany(
        "INSERT INTO users (user_name, priority, created_at) VALUES (?, ?, 0)",
        [("ann", 0.5), ("bob", 0.25)])
    db.executemany(
        "INSERT INTO jobs (job_id, owner, cmd, state, run_seconds,"
        " submitted_at) VALUES (?, ?, 'c', ?, 1, ?)",
        [(job_id, "ann" if job_id % 2 else "bob",
          "matched" if job_id % 3 == 0 else "idle", float(job_id * 5 % 12))
         for job_id in range(1, 13)])


def _rows(db, sql, params=()):
    return [tuple(row) for row in db.query_all(sql, params)]


def test_offset_skips_before_limit_counts(db):
    """On the streamed path, and on the sorted one with and without a
    ROW_NUMBER; past the end a scalar subquery yields NULL and COALESCE
    takes over."""
    _seed_owner_queue(db)
    by_id = "SELECT job_id FROM jobs ORDER BY job_id"
    assert _rows(db, by_id + " LIMIT 3 OFFSET 2") == [(3,), (4,), (5,)]
    assert _rows(db, by_id + " LIMIT -1 OFFSET 10") == [(11,), (12,)]
    assert _rows(db, by_id + " LIMIT 3 OFFSET 100") == []
    # by submitted_at: 12, 5, 10, 3, 8, 1, ...
    assert _rows(db, "SELECT job_id FROM jobs ORDER BY submitted_at"
                     " LIMIT 2 OFFSET 1") == [(5,), (10,)]
    assert _rows(db, "SELECT job_id, ROW_NUMBER() OVER (ORDER BY"
                     " submitted_at) AS r FROM jobs ORDER BY submitted_at"
                     " LIMIT 2 OFFSET 1") == [(5, 2), (10, 3)]
    kth = ("SELECT COALESCE((SELECT job_id FROM jobs ORDER BY job_id"
           " LIMIT 1 OFFSET ?), -1)")
    assert db.scalar(kth, (4,)) == 5
    assert db.scalar(kth, (100,)) == -1


#: (OFFSET operand, rows skipped; None = refused).  LIMIT's rule:
#: INTEGER affinity and then an integer, and a negative count is none.
OFFSET_OPERANDS = [(-3, 0), (2.0, 2), ("2", 2), (True, 1),
                   (2.5, None), ("abc", None), (None, None)]


@pytest.mark.parametrize("operand, skipped", OFFSET_OPERANDS)
def test_offset_operand_is_an_integer_or_a_mismatch(db, operand, skipped):
    _seed_owner_queue(db)
    sql = "SELECT job_id FROM jobs ORDER BY job_id LIMIT 2 OFFSET ?"
    if skipped is None:
        with pytest.raises(DatabaseError, match="datatype mismatch"):
            db.query_all(sql, (operand,))
    else:
        assert _rows(db, sql, (operand,)) == [(skipped + 1,), (skipped + 2,)]


def test_coalesce_takes_the_first_non_null(db):
    _seed_owner_queue(db)
    assert db.scalar("SELECT COALESCE(NULL, NULL)") is None
    assert db.scalar("SELECT COALESCE(NULL, 2, 3)") == 2
    assert db.scalar("SELECT COALESCE(requirements, rank, 'none') FROM jobs"
                     " WHERE job_id = 1") == "none"
    assert db.scalar("SELECT COALESCE(NULL, owner) FROM jobs"
                     " WHERE job_id = 2") == "bob"
    with pytest.raises(db.engine.ENGINE_ERRORS,
                       match="wrong number of arguments"):
        db.query_all("SELECT COALESCE(owner) FROM jobs")


#: Each owner's idle jobs up to the owner's ``?``-th eligible one — the
#: job side of ``MATCH_INSERT_SQL``, matched jobs standing in for jobs a
#: live prerequisite holds back.
_KTH_WALK = (
    "SELECT u.user_name, j.job_id FROM users u CROSS JOIN jobs j"
    " ON j.state = 'idle' AND j.owner = u.user_name"
    " AND j.job_id <= COALESCE((SELECT c.job_id FROM jobs c"
    "   WHERE c.state = 'idle' AND c.owner = u.user_name"
    "   ORDER BY c.job_id LIMIT 1 OFFSET ? - 1), 9223372036854775807)"
    " ORDER BY u.priority, j.job_id")


def test_cross_join_with_and_without_on(db):
    _seed_owner_queue(db)
    assert _rows(db, "SELECT u.user_name, j.job_id FROM users u"
                     " CROSS JOIN jobs j WHERE j.job_id <= 2"
                     " ORDER BY u.user_name, j.job_id") == [
        ("ann", 1), ("ann", 2), ("bob", 1), ("bob", 2)]
    bounded = ("SELECT u.user_name, j.job_id FROM users u CROSS JOIN jobs j"
               " ON j.state = 'idle' AND j.owner = u.user_name AND {}"
               " ORDER BY u.user_name, j.job_id")
    ann_and_bob_to_5 = [("ann", 1), ("ann", 5), ("bob", 2), ("bob", 4)]
    assert _rows(db, bounded.format("j.job_id <= ?"), (5,)) \
        == ann_and_bob_to_5
    assert _rows(db, bounded.format("? >= j.job_id"), (5,)) \
        == ann_and_bob_to_5
    assert _rows(db, bounded.format("j.job_id <= ?"), ("5",)) \
        == ann_and_bob_to_5  # text meets INTEGER affinity: 5
    assert _rows(db, bounded.format("j.job_id < ?"), (5.5,)) \
        == ann_and_bob_to_5
    assert _rows(db, bounded.format("j.job_id < ?"), (5,)) == [
        ("ann", 1), ("bob", 2), ("bob", 4)]
    assert _rows(db, bounded.format("j.job_id <= ?"), (None,)) == []
    assert len(_rows(db, bounded.format("j.job_id < ?"), ("abc",))) == 8
    # bob's priority is the lower: his walk ranks first
    assert _rows(db, _KTH_WALK, (2,)) == [
        ("bob", 2), ("bob", 4), ("ann", 1), ("ann", 5)]
    assert _rows(db, _KTH_WALK, (9,)) == [
        ("bob", 2), ("bob", 4), ("bob", 8), ("bob", 10),
        ("ann", 1), ("ann", 5), ("ann", 7), ("ann", 11)]


def test_an_order_by_the_walk_does_not_serve_is_sorted(db):
    """A probe yields rows by job_id, the rowid.  An ORDER BY on any
    other column — or on job_id descending — is still sorted, and under
    LIMIT that is other rows, not the same rows in another order."""
    _seed_owner_queue(db)
    walk = ("SELECT job_id FROM jobs WHERE state = 'idle' AND owner = 'ann'"
            " AND job_id <= 11 ORDER BY {} LIMIT 2 OFFSET 1")
    # ann's idle jobs by submitted_at: 5 (1), 1 (5), 11 (7), 7 (11)
    assert _rows(db, walk.format("submitted_at")) == [(1,), (11,)]
    assert _rows(db, walk.format("job_id DESC")) == [(7,), (5,)]
    assert _rows(db, walk.format("job_id")) == [(5,), (7,)]
    assert _rows(db, "SELECT j.job_id FROM users u CROSS JOIN jobs j"
                     " ON j.state = 'idle' AND j.owner = u.user_name"
                     " AND j.job_id <= ? WHERE u.user_name = 'ann'"
                     " ORDER BY j.submitted_at LIMIT 2", (11,)) \
        == [(5,), (1,)]


def test_memory_walks_what_it_reads():
    """The memory engine's plans for the shapes above: the join probes
    the (state, owner) prefix of ``idx_jobs_state_owner`` and cuts it at
    the bound, the K-th lookup reads K rows, and only a served ORDER BY
    goes unsorted."""
    database = Database(backend="memory")
    _seed_owner_queue(database)
    stack, probes = [database.explain(_KTH_WALK, (1,)).root], {}
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.op == "PROBE":
            probes[node.detail] = (node.actual_rows, node.actual_loops)
    # one row per owner, on each side
    assert probes == {
        "jobs AS j (eq probe on (state, owner), job_id <= bound)": (2, 2),
        "jobs AS c (eq probe on (state, owner))": (2, 2)}
    walk = ("SELECT job_id FROM jobs WHERE state = 'idle' AND owner = 'ann'"
            " ORDER BY {} LIMIT 1")
    assert "SORT" not in database.explain(walk.format("job_id")).render()
    assert "SORT" in database.explain(walk.format("submitted_at")).render()
    database.close()


# ----------------------------------------------------------------------
# executor shapes nothing else runs, row for row against SQLite
# ----------------------------------------------------------------------

def _seed_ranked_pool(db):
    """Three users of distinct priority, twelve jobs with distinct run
    times (three matched), two dependencies on every third job."""
    for index, name in enumerate(("ann", "bob", "cy")):
        db.execute(
            "INSERT INTO users (user_name, priority, created_at)"
            " VALUES (?, ?, 0)", (name, 1.0 + index))
    for job_id in range(1, 13):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, state, run_seconds,"
            " submitted_at) VALUES (?, ?, ?, ?, ?, 0)",
            (job_id, ("ann", "bob", "cy")[job_id % 3],
             f"/bin/{job_id % 2}", "matched" if job_id in (4, 8, 11) else "idle",
             float((job_id * 7) % 13)))
    db.executemany(
        "INSERT INTO job_dependencies (job_id, depends_on_job_id)"
        " VALUES (?, ?)",
        [(job_id, parent) for job_id in (3, 6, 9, 12)
         for parent in (1, 2)])


_EXECUTOR_SHAPES = {
    "ranked ROW_NUMBER over one source": (
        "SELECT j.job_id, ROW_NUMBER() OVER (ORDER BY j.run_seconds) AS r"
        " FROM jobs j WHERE j.state = 'idle'"
        " ORDER BY j.run_seconds LIMIT 5"),
    "ranked, no LIMIT": (
        "SELECT j.job_id, u.user_name,"
        " ROW_NUMBER() OVER (ORDER BY u.priority, j.job_id) AS r"
        " FROM jobs j JOIN users u ON u.user_name = j.owner"
        " ORDER BY u.priority, j.job_id"),
    "ranked over a hash-joined FROM-subquery": (
        "SELECT u.user_name, s.n,"
        " ROW_NUMBER() OVER (ORDER BY s.n, u.user_name) AS r"
        " FROM users u JOIN (SELECT owner AS o, COUNT(*) AS n FROM jobs"
        "                    WHERE state = 'idle' GROUP BY owner) s"
        "   ON s.o = u.user_name"
        " ORDER BY s.n, u.user_name LIMIT 5"),
    "ranked over a LEFT JOIN": (
        "SELECT j.job_id, d.depends_on_job_id, ROW_NUMBER() OVER"
        " (ORDER BY j.job_id, d.depends_on_job_id) AS r"
        " FROM jobs j LEFT JOIN job_dependencies d ON d.job_id = j.job_id"
        " ORDER BY j.job_id, d.depends_on_job_id LIMIT 9"),
    "ranked over three sources": (
        "SELECT j.job_id, u.user_name, d.depends_on_job_id,"
        " ROW_NUMBER() OVER"
        " (ORDER BY u.priority, j.job_id, d.depends_on_job_id) AS r"
        " FROM jobs j JOIN users u ON u.user_name = j.owner"
        " JOIN job_dependencies d ON d.job_id = j.job_id"
        " ORDER BY u.priority, j.job_id, d.depends_on_job_id LIMIT 6"),
    "ranked with a DESC key": (
        "SELECT j.job_id, u.user_name,"
        " ROW_NUMBER() OVER (ORDER BY u.priority DESC, j.job_id) AS r"
        " FROM jobs j JOIN users u ON u.user_name = j.owner"
        " ORDER BY u.priority DESC, j.job_id LIMIT 7"),
    "ROW_NUMBER ranked apart from the ORDER BY": (
        "SELECT j.job_id,"
        " ROW_NUMBER() OVER (ORDER BY j.run_seconds DESC) AS r"
        " FROM jobs j ORDER BY j.job_id"),
    "two-key correlated EXISTS, probed per outer row": (
        "SELECT j.job_id FROM jobs j WHERE EXISTS"
        " (SELECT 1 FROM jobs o WHERE o.owner = j.owner"
        "  AND o.cmd = j.cmd AND o.state = 'matched')"
        " ORDER BY j.job_id"),
    "ROW_NUMBER in an EXISTS subquery's select list": (
        "SELECT j.job_id FROM jobs j WHERE EXISTS"
        " (SELECT ROW_NUMBER() OVER (ORDER BY d.job_id)"
        "  FROM job_dependencies d WHERE d.job_id = j.job_id)"
        " ORDER BY j.job_id"),
}


@pytest.mark.parametrize("shape", sorted(_EXECUTOR_SHAPES))
def test_executor_shape_matches_sqlite(shape):
    """Dialect features the planner offers beyond the shapes the service
    statements take: ranked selects over every kind of source (the
    scheduling pass ranks only an index join), correlated probes and a
    window inside a subquery, each row for row against SQLite."""
    rows = {}
    for backend in BACKENDS:
        database = Database(backend=backend)
        _seed_ranked_pool(database)
        rows[backend] = [tuple(row) for row in database.query_all(
            _EXECUTOR_SHAPES[shape])]
        database.close()
    assert rows["memory"] == rows["sqlite"]
    assert len(rows["memory"]) >= 3


# ----------------------------------------------------------------------
# ranking under a LIMIT: ties, NULLs and text beside numbers
# ----------------------------------------------------------------------

def _sqlite_rank(value):
    """SQLite's ORDER BY classes, spelled apart from the engine's own."""
    if value is None:
        return (0,)
    return (2, value) if isinstance(value, str) else (1, value)


#: (sql, positions of its ORDER BY keys in a seeded row); ``{d0}`` and
#: ``{d1}`` take the first two keys' directions.  A seeded row is
#: (job_id, priority, rank, run_seconds, parent).
_RANKED_SHAPES = {
    "inner index join": (
        "SELECT j.job_id, ROW_NUMBER() OVER"
        " (ORDER BY u.priority{d0}, j.rank{d1}, j.run_seconds) AS r"
        " FROM jobs j JOIN users u ON u.user_name = j.owner"
        " ORDER BY u.priority{d0}, j.rank{d1}, j.run_seconds LIMIT ?",
        (1, 2, 3)),
    "single source": (
        "SELECT j.job_id, ROW_NUMBER() OVER"
        " (ORDER BY j.rank{d0}, j.run_seconds{d1}) AS r"
        " FROM jobs j ORDER BY j.rank{d0}, j.run_seconds{d1} LIMIT ?",
        (2, 3)),
    "left join": (
        "SELECT j.job_id, ROW_NUMBER() OVER"
        " (ORDER BY d.depends_on_job_id{d0}, j.run_seconds{d1}) AS r"
        " FROM jobs j LEFT JOIN job_dependencies d ON d.job_id = j.job_id"
        " ORDER BY d.depends_on_job_id{d0}, j.run_seconds{d1} LIMIT ?",
        (4, 3)),
}

_ranked_rows = st.lists(
    st.tuples(
        st.sampled_from([0.5, 1.0]),               # the owner's priority
        st.sampled_from([None, "a", "b"]),         # jobs.rank: NULLs, ties
        # jobs.run_seconds is REAL: text that is no number stays text
        st.sampled_from([1.0, 2.5, 7.0, "x", "y"]),
        st.booleans(),                             # depends on job 1?
    ),
    min_size=1, max_size=24)


def _seed_ranked(db, rows):
    db.executemany(
        "INSERT INTO users (user_name, priority, created_at) VALUES (?, ?, 0)",
        [("u0.5", 0.5), ("u1.0", 1.0)])
    db.executemany(
        "INSERT INTO jobs (job_id, owner, cmd, rank, run_seconds,"
        " submitted_at) VALUES (?, ?, 'c', ?, ?, 0)",
        [(job_id, f"u{priority}", rank, seconds)
         for job_id, (priority, rank, seconds, _) in enumerate(rows, 1)])
    db.executemany(
        "INSERT INTO job_dependencies (job_id, depends_on_job_id)"
        " VALUES (?, 1)",
        [(job_id,) for job_id, row in enumerate(rows, 1) if row[3]])


def _ranked_expected(rows, positions, descs, limit):
    """``sorted(rows, key=...)[:limit]``, ties in stream (job_id) order:
    one stable pass per key, the last key first."""
    seeded = [(job_id, priority, rank, seconds, 1 if held else None)
              for job_id, (priority, rank, seconds, held)
              in enumerate(rows, 1)]
    descs = descs + (False,) * (len(positions) - len(descs))
    for position, desc in reversed(list(zip(positions, descs))):
        seeded.sort(key=lambda row: _sqlite_rank(row[position]),
                    reverse=desc)
    return [(row[0], rank) for rank, row in enumerate(seeded[:limit], 1)]


@pytest.mark.parametrize("descs", [(False, False), (True, False),
                                   (False, True)],
                         ids=["asc", "desc-first", "mixed"])
@pytest.mark.parametrize("shape", sorted(_RANKED_SHAPES))
@settings(deadline=None)
@given(rows=_ranked_rows, data=st.data())
def test_ranked_limit_is_the_stable_sorted_prefix(shape, descs, rows, data):
    """A ranked select under a LIMIT, over an index join, one source or
    a LEFT JOIN, for keys with ties, NULLs and numbers beside text, in
    either direction: every LIMIT around n returns the stable sorted
    prefix, numbered from 1, and SQLite's rows."""
    sql, positions = _RANKED_SHAPES[shape]
    sql = sql.format(d0=" DESC" if descs[0] else "",
                     d1=" DESC" if descs[1] else "")
    n = len(rows)
    limit = data.draw(st.sampled_from(
        [0, 1, 2, n // 4, max(n - 1, 0), n, n + 5]))
    got = {}
    for backend in BACKENDS:
        database = Database(backend=backend)
        _seed_ranked(database, rows)
        got[backend] = [tuple(row)
                        for row in database.query_all(sql, (limit,))]
        database.close()
    assert got["memory"] == _ranked_expected(rows, positions, descs, limit)
    assert got["memory"] == got["sqlite"]


@pytest.mark.parametrize("shape", sorted(_RANKED_SHAPES))
def test_ranked_limit_over_tied_runs(shape):
    """n far above LIMIT, keys falling in tied runs of three, so a LIMIT
    cuts through a run: the rows kept are the run's first in stream
    order."""
    rows = [(1.0, "a", float((600 - i) // 3), False) for i in range(600)]
    sql, positions = _RANKED_SHAPES[shape]
    sql = sql.format(d0="", d1="")
    database = Database(backend="memory")
    _seed_ranked(database, rows)
    for limit in (1, 3, 40):
        assert [tuple(row) for row in database.query_all(sql, (limit,))] \
            == _ranked_expected(rows, positions, (False, False), limit)
    database.close()


def test_join_probes_keep_affinity_apart():
    """One execution probes a TEXT column and an INTEGER column with
    2, 2.0 and '2'.  As text the first two are '2' and '2.0', different
    buckets; as Python dict keys they are one (2 == 2.0, same hash), so
    a probe that keys on the raw value returns the wrong rows."""
    probe = ("CASE WHEN h.job_id % 3 = {0} THEN 2"
             " WHEN h.job_id % 3 = {1} THEN 2.0 ELSE '2' END")
    text = ("SELECT h.job_id, u.user_name,"
            " ROW_NUMBER() OVER (ORDER BY h.job_id) AS r"
            " FROM job_history h JOIN users u ON u.user_name = " + probe +
            " ORDER BY h.job_id LIMIT 50")
    integer = ("SELECT h.job_id, j.job_id,"
               " ROW_NUMBER() OVER (ORDER BY h.job_id) AS r"
               " FROM job_history h JOIN jobs j ON j.job_id = " + probe +
               " ORDER BY h.job_id LIMIT 50")
    # either of 2 and 2.0 is probed first in one of the two orders
    statements = [sql.format(*order) for sql in (text, integer)
                  for order in ((1, 2), (2, 1))]
    rows = {}
    for name in ("sqlite", "memory"):
        database = Database(backend=name)
        database.executemany(
            "INSERT INTO users (user_name, created_at) VALUES (?, 0)",
            [("2",), ("2.0",)])
        database.executemany(
            "INSERT INTO job_history (job_id, owner, cmd, run_seconds,"
            " submitted_at, final_state) VALUES (?, '2', 'c', 1, 0,"
            " 'completed')", [(n,) for n in range(1, 7)])
        database.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds,"
            " submitted_at) VALUES (2, '2', 'c', 1, 0)")
        rows[name] = [[tuple(row) for row in database.query_all(sql)]
                      for sql in statements]
        if name != "sqlite":
            for sql in statements:
                plan = database.explain(sql).render()
                assert "PROBE" in plan
        database.close()
    assert rows["memory"] == rows["sqlite"]
    assert [row[1] for row in rows["memory"][0]] == [
        "2", "2.0", "2", "2", "2.0", "2"]
    assert [row[1] for row in rows["memory"][1]] == [
        "2.0", "2", "2", "2.0", "2", "2"]
    assert [row[1] for row in rows["memory"][2]] == [2] * 6


# ----------------------------------------------------------------------
# memory-engine index maintenance under interleaved mutation
# ----------------------------------------------------------------------

_op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "txn-abort"]),
        st.integers(0, 11),
        st.sampled_from(["idle", "busy", "claiming"]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(_op_strategy)
def test_memory_indexes_consistent_under_interleaving(ops):
    """After any interleaving of insert/update/delete (and aborted
    transactions), every equality index and unique map equals what a
    from-scratch rebuild over the rows produces."""
    engine = MemoryStorageEngine()
    database = Database(engine=engine)
    database.execute("INSERT INTO machines (machine_name) VALUES ('m')")
    live = set()
    for action, slot, state in ops:
        vm_id = f"vm{slot}@m"
        if action == "insert":
            if vm_id not in live:
                database.execute(
                    "INSERT INTO vms (vm_id, machine_name, state)"
                    " VALUES (?, 'm', ?)", (vm_id, state)
                )
                live.add(vm_id)
        elif action == "update":
            database.execute(
                "UPDATE vms SET state = ? WHERE vm_id = ?", (state, vm_id)
            )
        elif action == "delete":
            database.execute("DELETE FROM vms WHERE vm_id = ?", (vm_id,))
            live.discard(vm_id)
        else:  # txn-abort: mutate inside a rolled-back transaction
            try:
                with database.transaction():
                    database.execute(
                        "UPDATE vms SET state = ? WHERE vm_id = ?",
                        (state, vm_id),
                    )
                    database.execute(
                        "DELETE FROM vms WHERE machine_name = 'm'"
                    )
                    raise RuntimeError("abort")
            except RuntimeError:
                pass
        _assert_indexes_consistent(engine.tables["vms"])
    assert {row["vm_id"] for row in database.query_all("SELECT * FROM vms")} \
        == live


def _assert_indexes_consistent(table):
    for column, index in table.eq_indexes.items():
        rebuilt = {}
        for key, row in table.rows.items():
            rebuilt.setdefault(row[column], set()).add(key)
        assert index == rebuilt, f"index on {table.name}.{column} diverged"
    for cols, mapping in table.unique_maps.items():
        rebuilt = {}
        for key, row in table.rows.items():
            values = tuple(row[c] for c in cols)
            if any(v is None for v in values):
                continue
            assert values not in rebuilt, "duplicate slipped past UNIQUE"
            rebuilt[values] = key
        assert mapping == rebuilt, f"unique map on {cols} diverged"
    for cols, index in table.prefix_indexes.items():
        rebuilt = {}
        for key, row in table.rows.items():
            rebuilt.setdefault(tuple(row[c] for c in cols), set()).add(key)
        assert {values: set(keys) for values, keys in index.items()} \
            == rebuilt, f"prefix index on {cols} diverged"
        for values, keys in table._prefix_cache[cols].items():
            assert keys == sorted(rebuilt[values]), f"stale probe on {cols}"
    assert sorted(table.rows) == table.scan_keys()


_job_op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "state", "owner", "delete", "txn-abort"]),
        st.integers(1, 8),
        st.sampled_from(["idle", "matched", "running"]),
        st.sampled_from(["ann", "bob"]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(_job_op_strategy)
def test_prefix_index_consistent_under_interleaving(ops):
    """The (state, owner) prefix index of ``jobs`` and its memoized
    probes stay equal to a rebuild over the rows, probes taken between
    the writes included."""
    engine = MemoryStorageEngine()
    database = Database(engine=engine)
    database.executemany(
        "INSERT INTO users (user_name, created_at) VALUES (?, 0)",
        [("ann",), ("bob",)])
    jobs = engine.tables["jobs"]
    for action, job_id, state, owner in ops:
        if action == "insert":
            database.execute(
                "INSERT OR IGNORE INTO jobs (job_id, owner, cmd, state,"
                " run_seconds, submitted_at) VALUES (?, ?, 'c', ?, 1, 0)",
                (job_id, owner, state))
        elif action in ("state", "owner"):
            database.execute(f"UPDATE jobs SET {action} = ? WHERE job_id = ?",
                             (state if action == "state" else owner, job_id))
        elif action == "delete":
            database.execute("DELETE FROM jobs WHERE job_id = ?", (job_id,))
        else:
            try:
                with database.transaction():
                    database.execute(
                        "UPDATE jobs SET state = ? WHERE owner = ?",
                        (state, owner))
                    database.execute("DELETE FROM jobs WHERE job_id > ?",
                                     (job_id,))
                    raise RuntimeError("abort")
            except RuntimeError:
                pass
        jobs.probe_prefix(("state", "owner"), (state, owner))
        _assert_indexes_consistent(jobs)


# ----------------------------------------------------------------------
# the declaration round-trips through SQLite: render -> catalog -> TableDef
# ----------------------------------------------------------------------

def _canonical(tdef):
    """UNIQUE constraints and foreign keys are sets; everything else in a
    TableDef (columns, key columns, indexes) is compared in order."""
    return dataclasses.replace(
        tdef,
        unique=tuple(sorted(tdef.unique)),
        foreign_keys=tuple(sorted(tdef.foreign_keys,
                                  key=dataclasses.astuple)),
    )


def _sqlite(statements):
    conn = sqlite3.connect(":memory:")
    conn.row_factory = sqlite3.Row
    for statement in statements:
        conn.execute(statement)
    return conn


def _read_back(conn, name):
    """The TableDef SQLite holds for ``name``, every attribute of it.

    PRAGMAs where one exists; literals (defaults, CHECK members) are
    unquoted by SQLite itself (``SELECT <literal>``); WITHOUT ROWID by
    asking for the rowid; the CHECK domain and AUTOINCREMENT, which no
    PRAGMA reports, from the statement text SQLite stored."""
    sql = conn.execute(
        "SELECT sql FROM sqlite_master WHERE name = ?", (name,)
    ).fetchone()[0]
    checks = {
        column: tuple(conn.execute(f"SELECT {members}").fetchone())
        for column, members in re.findall(
            r"CHECK \((\w+) IN \((.*?)\)\)", sql)
    }
    info = conn.execute(f"PRAGMA table_xinfo({name})").fetchall()
    columns = tuple(
        ColumnDef(
            row["name"], row["type"], bool(row["notnull"]),
            check_in=checks.get(row["name"]),
            **({} if row["dflt_value"] is None else {"default": conn.execute(
                f"SELECT {row['dflt_value']}").fetchone()[0]}),
        )
        for row in info
    )
    try:
        conn.execute(f"SELECT rowid FROM {name}")
        rowid = True
    except sqlite3.OperationalError:
        rowid = False
    # index_list answers newest first; seq descending is creation order
    index_list = sorted(conn.execute(f"PRAGMA index_list({name})"),
                        key=lambda row: -row["seq"])

    def index_columns(index):
        return tuple(row["name"] for row in
                     conn.execute(f"PRAGMA index_info({index['name']})"))

    actions = {"CASCADE": "cascade", "NO ACTION": "restrict"}
    return _canonical(TableDef(
        name=name,
        columns=columns,
        primary_key=tuple(
            row["name"] for row in sorted(info, key=lambda row: row["pk"])
            if row["pk"]),
        rowid=rowid,
        autoincrement=" AUTOINCREMENT" in sql,
        unique=tuple(index_columns(index) for index in index_list
                     if index["origin"] == "u"),
        foreign_keys=tuple(
            ForeignKeyDef(row["from"], row["table"], row["to"],
                          actions[row["on_delete"]])
            for row in conn.execute(f"PRAGMA foreign_key_list({name})")),
        indexes=tuple(IndexDef(index["name"], index_columns(index))
                      for index in index_list if index["origin"] == "c"),
    ))


def test_table_defs_agree_with_sqlite_catalog():
    conn = _sqlite(SCHEMA_STATEMENTS)
    created = [row["name"] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' "
        "AND name NOT LIKE 'sqlite_%' ORDER BY rowid")]
    assert created == [tdef.name for tdef in TABLE_DEFS]
    for tdef in TABLE_DEFS:
        assert _read_back(conn, tdef.name) == _canonical(tdef), tdef.name
    conn.close()


def test_defaults_and_check_members_are_quoted_once():
    awkward = TableDef(
        name="awkward",
        columns=(
            ColumnDef("id", "INTEGER"),
            ColumnDef("note", "TEXT", not_null=True, default="it's"),
            ColumnDef("state", "TEXT", not_null=True, default="o'clock",
                      check_in=("o'clock", "plain", "'quoted'")),
        ),
        primary_key=("id",),
    )
    conn = _sqlite(render_ddl(awkward))
    assert _read_back(conn, "awkward") == awkward
    conn.execute("INSERT INTO awkward (id) VALUES (1)")
    assert tuple(conn.execute("SELECT note, state FROM awkward").fetchone()) \
        == ("it's", "o'clock")
    conn.execute("UPDATE awkward SET state = ?", ("'quoted'",))
    with pytest.raises(sqlite3.IntegrityError):
        conn.execute("UPDATE awkward SET state = 'quoted'")
    conn.close()


def test_a_column_and_an_index_are_one_edit():
    jobs = TABLE_BY_NAME["jobs"]
    edited = dataclasses.replace(
        jobs,
        columns=jobs.columns + (
            ColumnDef("niceness", "INTEGER", not_null=True, default=10),),
        indexes=jobs.indexes + (
            IndexDef("idx_jobs_niceness", ("niceness", "job_id")),),
    )
    conn = _sqlite(render_ddl(edited))
    assert _read_back(conn, "jobs") == _canonical(edited)
    assert _read_back(conn, "jobs") != _canonical(jobs)
    conn.close()
    table = MemoryTable(edited)
    assert table.columns[-1] == "niceness"
    assert table.affinities["niceness"] == "INTEGER"
    assert "niceness" in table.eq_indexes
    assert "niceness" not in MemoryTable(jobs).eq_indexes
