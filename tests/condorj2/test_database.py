"""Unit tests for the SQLite access layer."""

import pytest

from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.schema import TABLES


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def test_schema_creates_all_tables(db):
    for table in TABLES:
        assert db.table_count(table) == 0


def test_execute_counts_by_verb(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('a', 0)")
    db.execute("SELECT * FROM users")
    db.execute("UPDATE users SET priority = 0.1 WHERE user_name = 'a'")
    db.execute("DELETE FROM users WHERE user_name = 'a'")
    assert db.counts.insert == 1
    assert db.counts.select == 1
    assert db.counts.update == 1
    assert db.counts.delete == 1
    assert db.counts.total() == 4


def test_counts_snapshot_and_delta(db):
    db.execute("SELECT 1")
    before = db.counts.snapshot()
    db.execute("SELECT 1")
    db.execute("SELECT 1")
    delta = db.counts.delta(before)
    assert delta.select == 2
    assert before.select == 1


def test_query_helpers(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('bob', 5.0)")
    row = db.query_one("SELECT * FROM users WHERE user_name = ?", ("bob",))
    assert row["created_at"] == 5.0
    assert db.query_one("SELECT * FROM users WHERE user_name = 'nope'") is None
    assert db.scalar("SELECT COUNT(*) FROM users") == 1
    assert len(db.query_all("SELECT * FROM users")) == 1


def test_transaction_commits(db):
    with db.transaction():
        db.execute("INSERT INTO users (user_name, created_at) VALUES ('x', 0)")
    assert db.table_count("users") == 1
    assert db.counts.commits == 1


def test_transaction_rolls_back_on_error(db):
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("INSERT INTO users (user_name, created_at) VALUES ('x', 0)")
            raise RuntimeError("abort")
    assert db.table_count("users") == 0
    assert db.counts.commits == 0


def test_nested_transactions_join_outer(db):
    with db.transaction():
        db.execute("INSERT INTO users (user_name, created_at) VALUES ('x', 0)")
        with db.transaction():
            db.execute("INSERT INTO users (user_name, created_at) VALUES ('y', 0)")
        assert db.in_transaction
    assert db.counts.commits == 1
    assert db.table_count("users") == 2


@pytest.mark.parametrize("backend", ["sqlite", "memory", "wal"])
def test_failed_begin_opens_no_transaction(backend, monkeypatch):
    """A ``begin()`` that raises (SQLite's nested BEGIN, say) leaves no
    scope behind, so the next scope is a real one and
    rolls its writes back instead of joining a transaction that never
    began."""
    db = Database(backend=backend)

    def refuse():
        raise DatabaseError("begin refused")
    monkeypatch.setattr(db.engine, "begin", refuse)
    with pytest.raises(DatabaseError):
        with db.transaction():
            pass
    assert not db.in_transaction
    monkeypatch.undo()
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("INSERT INTO users (user_name, created_at) VALUES ('x', 0)")
            raise RuntimeError("abort")
    assert db.table_count("users") == 0
    db.close()


@pytest.mark.parametrize("backend", ["sqlite", "wal"])
def test_a_file_store_reopens_through_database(backend, tmp_path):
    """A second ``Database`` on a file that already holds the schema
    leaves the schema be and reads the first one's rows back."""
    path = tmp_path / ("pool.db" if backend == "sqlite" else "pool-wal")
    spec = f"{backend}://{path}"
    first = Database(spec)
    first.execute("INSERT INTO users (user_name, created_at) VALUES ('a', 0)")
    first.close()
    second = Database(spec)
    try:
        assert [tuple(row) for row in second.query_all(
            "SELECT user_name FROM users")] == [("a",)]
        second.execute(
            "INSERT INTO users (user_name, created_at) VALUES ('b', 0)")
        assert second.table_count("users") == 2
    finally:
        second.close()


def test_integrity_error_wrapped(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('x', 0)")
    with pytest.raises(DatabaseError):
        db.execute("INSERT INTO users (user_name, created_at) VALUES ('x', 0)")


def test_check_constraint_enforced(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    with pytest.raises(DatabaseError):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, state, run_seconds, submitted_at)"
            " VALUES (1, 'u', '/bin/x', 'bogus-state', 60, 0)"
        )


def test_foreign_keys_enforced(db):
    with pytest.raises(DatabaseError):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (1, 'ghost-user', '/bin/x', 60, 0)"
        )


def test_unique_match_per_vm(db):
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
    for job_id in (1, 2):
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            f" VALUES ({job_id}, 'u', '/bin/x', 60, 0)"
        )
    db.execute("INSERT INTO machines (machine_name) VALUES ('m')")
    db.execute("INSERT INTO vms (vm_id, machine_name) VALUES ('vm0@m', 'm')")
    db.execute("INSERT INTO matches (job_id, vm_id, created_at) VALUES (1, 'vm0@m', 0)")
    with pytest.raises(DatabaseError):
        db.execute(
            "INSERT INTO matches (job_id, vm_id, created_at) VALUES (2, 'vm0@m', 0)"
        )


def test_table_count_rejects_bad_identifier():
    """Only declared tables are counted: every backend refuses the same
    names with the same error, before anything is dispatched."""
    for backend in ("sqlite", "memory", "wal"):
        db = Database(backend=backend)
        before = db.counts.statements
        for name in ("users; DROP TABLE users", "sqlite_master", "nosuch"):
            with pytest.raises(DatabaseError):
                db.table_count(name)
        assert db.counts.statements == before, backend
        assert db.table_count("users") == 0
        db.close()
