"""The lifecycle ledger reads the write, not the table.

``StatementCounts.transitions`` is fed where each engine writes the row:
``TableStore._update_row`` / ``_delete_key`` on memory, two TEMP
triggers per lifecycle table on SQLite (the wal backend is SQLite too).  Three things are held here:

* **the engine runs what it counts** — raw-hook executions equal
  ``counts.statements`` on a whole seeded pool (the in-repo twin of the
  end-to-end benchmark's ``storage.engine.hidden_statements``), and with
  WAL IO priced at zero that pool's statements, commits and ledger are
  the same on all three backends;
* **the ledger is exact** — over the differential harness's seeded
  traces, the ledger delta of every statement equals the per-key diff
  of the lifecycle column before and after it, on every backend;
* **the edges of the capture** — batches that rewrite their own
  pre-image, computed targets, unguarded deletes, statements that fail
  half-way, the EXPLAIN sandbox, rollback and WAL recovery, and a
  SQLite file reopened on a new connection.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec, JobSpec
from repro.condorj2 import CondorJ2System
from repro.condorj2.costs import CasCostModel
from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.schema import (
    BORN, GONE, LIFECYCLES, SCHEMA_STATEMENTS, TABLE_DEFS,
)
from repro.condorj2.storage import (
    MemoryStorageEngine,
    SqliteStorageEngine,
    WalStorageEngine,
    create_engine,
    statement_table,
    statement_verb,
)
from repro.condorj2.storage.transitions import transition_spec

from tests.condorj2.test_differential import TRACE_LENGTH, Pool, TraceRunner

BACKENDS = ("sqlite", "memory", "wal")
ENGINE_CLASSES = {
    "sqlite": SqliteStorageEngine,
    "memory": MemoryStorageEngine,
    "wal": WalStorageEngine,
}


def _ledger(counts):
    return {table: dict(edges) for table, edges in counts.transitions.items()}


# ----------------------------------------------------------------------
# the engine runs what it counts
# ----------------------------------------------------------------------

def _counting(raw_calls, hook, original):
    def counted(engine, *args, **kwargs):
        raw_calls[hook] += 1
        return original(engine, *args, **kwargs)
    return counted


def _turnover(backend):
    """One small seeded pool, every job through its whole lifecycle,
    with the raw hooks bound from outside as ``benchmarks/e2e/tracer.py``
    binds them and the WAL's IO priced at zero."""
    engine_class = ENGINE_CLASSES[backend]
    raw_calls = Counter()
    rng = random.Random(11)
    specs = [JobSpec(job_id=index + 1, owner=f"user{rng.randrange(4)}",
                     run_seconds=20.0 * rng.uniform(0.8, 1.2))
             for index in range(72)]
    with pytest.MonkeyPatch.context() as patch:
        for hook in ("_execute_raw", "_executemany_raw"):
            patch.setattr(engine_class, hook, _counting(
                raw_calls, hook, getattr(engine_class, hook)))
        system = CondorJ2System(
            cluster=ClusterSpec(physical_nodes=6, vms_per_node=4,
                                dual_core_fraction=0.0, speed_jitter=0.0),
            seed=11,
            costs=CasCostModel(
                storage_backend=backend, wal_append_io_seconds=0.0,
                wal_fsync_io_seconds=0.0, wal_checkpoint_io_seconds=0.0))
        for burst in range(3):
            system.submit_at(10.0 * burst, specs[burst::3])
        system.run_until_complete(expected_jobs=len(specs),
                                  max_seconds=3600.0)
        counts = system.cas.db.counts
        assert isinstance(system.cas.db.engine, engine_class)
        assert system.completed_count() == len(specs)
        system.cas.db.close()
    return {
        "raw": sum(raw_calls.values()),
        "statements": counts.statements,
        "commits": counts.commits,
        "ledger": _ledger(counts),
    }


@pytest.fixture(scope="module")
def turnover_pools():
    return {backend: _turnover(backend) for backend in BACKENDS}


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_runs_exactly_what_it_counts(turnover_pools, backend):
    """No statement reaches a raw hook without being counted: feeding
    the ledger costs the engine no execution of its own."""
    pool = turnover_pools[backend]
    assert pool["statements"] > 1000
    assert pool["raw"] == pool["statements"]
    assert pool["ledger"]["jobs"][f"running->{GONE}"] == 72


def test_wal_pool_coincides_with_the_others_once_its_io_is_free(
        turnover_pools):
    """ROADMAP Known issues: the same seeded pool ended a little later,
    a few statements apart, on wal.  The priced log IO is the whole
    cause — at zero the three traces are one."""
    sqlite, memory, wal = (turnover_pools[name] for name in BACKENDS)
    assert sqlite == memory == wal


def test_no_lifecycle_table_is_a_cascade_child():
    """SQLite reports a cascaded delete through the child's trigger, the
    memory store through ``_delete_key``'s recursion.  Both would record
    it, but nothing here exercises that they agree, so the schema is
    held to not needing it."""
    for tdef in TABLE_DEFS:
        if tdef.name in LIFECYCLES:
            assert all(fk.on_delete != "cascade"
                       for fk in tdef.foreign_keys), tdef.name


# ----------------------------------------------------------------------
# the ledger is exact
# ----------------------------------------------------------------------

class LedgerAudit:
    """Holds one engine's ledger to its tables, statement by statement.

    Wraps ``execute`` / ``executemany`` on the instance.  Around every
    write to a lifecycle table it reads ``{key: state}`` through the
    raw hook (uncounted, like everything the audit does), and requires
    of the ledger delta that its state-changing edges are exactly the
    per-key diff; that, on a statement assigning the column, edges and
    written rows are equal in number (a self-loop cannot be seen in a
    diff, but it can be counted); and that a statement which raises, or
    which writes no lifecycle table, moves nothing.
    """

    def __init__(self, engine):
        self.engine = engine
        self.audited = 0
        self._reads = {}
        for table, lifecycle in LIFECYCLES.items():
            key = next(tdef for tdef in TABLE_DEFS
                       if tdef.name == table).primary_key[0]
            sql = f"SELECT {key}, {lifecycle.column} FROM {table}"
            self._reads[table] = (sql, engine._compile_plan(sql))
        engine.execute = self._audit(engine.execute)
        engine.executemany = self._audit(engine.executemany)

    def _states(self, table):
        sql, plan = self._reads[table]
        return {row[0]: row[1]
                for row in self.engine._execute_raw(sql, (), plan).fetchall()}

    def _audit(self, run):
        counts = self.engine.counts

        def audited(sql, params=()):
            table = statement_table(sql)
            watched = (table in LIFECYCLES
                       and statement_verb(sql) in ("INSERT", "UPDATE", "DELETE"))
            ledger = _ledger(counts)
            states = self._states(table) if watched else None
            try:
                cursor = run(sql, params)
            except BaseException:
                assert _ledger(counts) == ledger, (
                    f"a statement that raised moved the ledger: {sql}")
                raise
            delta = Counter({
                (name, edge): count - ledger.get(name, {}).get(edge, 0)
                for name, edges in _ledger(counts).items()
                for edge, count in edges.items()})
            delta = +delta  # drop the edges this statement did not walk
            if not watched:
                assert not delta, f"{sql} walked {dict(delta)}"
                return cursor
            after = self._states(table)
            walked = Counter()
            for key in states.keys() | after.keys():
                source, target = states.get(key, BORN), after.get(key, GONE)
                if source != target:
                    walked[(table, f"{source}->{target}")] += 1
            moved = Counter({
                (name, edge): count for (name, edge), count in delta.items()
                if len(set(edge.split("->"))) == 2})
            assert moved == walked, (
                f"{sql}: ledger says {dict(moved)}, "
                f"the table says {dict(walked)}")
            if transition_spec(sql) is not None:
                assert sum(delta.values()) == max(0, cursor.rowcount), sql
            else:
                assert not delta, f"{sql} walked {dict(delta)}"
            self.audited += 1
            return cursor
        return audited


class LedgerRunner(TraceRunner):
    """The harness's traces with wal in the lockstep: its durability
    counters differ from the others' by design, its ledger may not."""

    def _assert_step_equivalence(self, name, step):
        ledgers = [_ledger(pool.db.counts) for pool in self.pools]
        assert ledgers[0] == ledgers[1] == ledgers[2], (
            f"step {step} ({name}): ledgers diverge across {BACKENDS}")


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(deadline=None)
def test_ledger_delta_of_every_statement_is_the_tables_diff(seed):
    """The differential harness's traces, all three backends in
    lockstep, every statement audited (see :class:`LedgerAudit`)."""
    pools = [Pool(backend) for backend in BACKENDS]
    try:
        audits = [LedgerAudit(pool.db.engine) for pool in pools]
        LedgerRunner(seed, pools).run(TRACE_LENGTH)
        assert all(audit.audited for audit in audits)
    finally:
        for pool in pools:
            pool.close()


# ----------------------------------------------------------------------
# the edges of the capture
# ----------------------------------------------------------------------

def _three_idle_jobs(backend, audited=True):
    database = Database(backend=backend)
    if audited:
        LedgerAudit(database.engine)
    database.execute(
        "INSERT INTO users (user_name, created_at) VALUES ('alice', 0)")
    database.executemany(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (?, 'alice', 'x', 1.0, 0)", [(1,), (2,), (3,)])
    assert _ledger(database.counts) == {"jobs": {f"{BORN}->idle": 3}}
    database.counts.transitions.clear()
    return database


@pytest.fixture(params=BACKENDS)
def db(request):
    """Three idle jobs of one owner, every statement audited."""
    database = _three_idle_jobs(request.param)
    yield database
    database.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_whose_later_rows_rematch_an_earlier_rows_write(backend):
    """Row 2 matches what row 1 wrote.  A from-state read taken before
    the batch saw three idle jobs and no matched one: it named row 1's
    edges and lost row 2's.  (Unaudited: the rows undo each other, so
    this is the one shape a before-and-after diff cannot see.)"""
    db = _three_idle_jobs(backend, audited=False)
    try:
        db.executemany("UPDATE jobs SET state = ? WHERE state = ?",
                       [("matched", "idle"), ("idle", "matched")])
        assert _ledger(db.counts) == {
            "jobs": {"idle->matched": 3, "matched->idle": 3}}
    finally:
        db.close()


def test_computed_target_is_attributed_row_by_row(db):
    """``SET state = CASE ..`` names no target in the text; the write
    knows what it wrote."""
    db.execute("UPDATE jobs SET state = CASE WHEN job_id = 1 THEN 'matched'"
               " ELSE 'running' END WHERE state = 'idle'")
    assert _ledger(db.counts) == {
        "jobs": {"idle->matched": 1, "idle->running": 2}}


def test_refresh_that_reasserts_the_state_is_a_self_loop(db):
    db.execute("UPDATE jobs SET state = 'idle', attempts = attempts + 1")
    db.execute("UPDATE jobs SET attempts = 0")  # the column not assigned
    assert _ledger(db.counts) == {"jobs": {"idle->idle": 3}}


def test_unguarded_by_key_delete_names_the_state_it_removed(db):
    """A by-key DELETE with no state guard in its text: the ledger still
    attributes the edge to the state the row was in."""
    db.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("running", 2))
    db.execute("DELETE FROM jobs WHERE job_id = ?", (2,))  # no guard in the text
    assert _ledger(db.counts) == {
        "jobs": {"idle->running": 1, f"running->{GONE}": 1}}


def test_statement_that_fails_half_way_records_nothing_and_leaks_nothing(db):
    """The second slot's row breaks NOT NULL (last_update) after the
    first row's edge was captured: the statement is undone, the ledger
    never hears of it, and the captured edge does not surface under the
    next statement either."""
    db.execute("INSERT INTO machines (machine_name) VALUES ('m00')")
    db.executemany("INSERT INTO vms (vm_id, machine_name) VALUES (?, 'm00')",
                   [("vm0@m00",), ("vm1@m00",)])
    db.counts.transitions.clear()
    with pytest.raises(DatabaseError):
        db.execute("UPDATE vms SET state = 'busy', last_update ="
                   " CASE WHEN vm_id = 'vm1@m00' THEN NULL ELSE 1 END"
                   " WHERE machine_name = 'm00'")
    assert _ledger(db.counts) == {}
    assert db.scalar("SELECT COUNT(*) FROM vms WHERE state = 'idle'") == 2
    db.execute("UPDATE users SET priority = 0.9")
    db.execute("UPDATE jobs SET state = 'matched' WHERE job_id = 3")
    assert _ledger(db.counts) == {"jobs": {"idle->matched": 1}}


def test_rollback_undoes_the_rows_and_keeps_the_ledger(db):
    """Undo replay goes through the raw mutations: it records nothing,
    and — as before — it does not take back what was recorded."""
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("UPDATE jobs SET state = 'matched' WHERE job_id = 1")
            db.execute("DELETE FROM jobs WHERE job_id = 2")
            raise RuntimeError("abandon")
    assert db.scalar("SELECT COUNT(*) FROM jobs WHERE state = 'idle'") == 3
    assert _ledger(db.counts) == {
        "jobs": {"idle->matched": 1, f"idle->{GONE}": 1}}


def test_explain_sandbox_leaves_the_ledger_alone():
    """Profiled EXPLAIN really runs the DML, inside an undo sandbox; the
    edges it captures belong to no counted statement."""
    db = Database(backend="memory")
    try:
        db.execute(
            "INSERT INTO users (user_name, created_at) VALUES ('alice', 0)")
        db.execute(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (1, 'alice', 'x', 1.0, 0)")
        before = _ledger(db.counts)
        db.explain("UPDATE jobs SET state = 'matched' WHERE job_id = ?", (1,))
        db.explain("DELETE FROM jobs WHERE job_id = ?", (1,))
        assert _ledger(db.counts) == before
        db.execute("UPDATE users SET priority = 0.9")
        assert _ledger(db.counts) == before
        assert db.scalar("SELECT state FROM jobs WHERE job_id = 1") == "idle"
    finally:
        db.close()


def test_wal_recovery_replays_rows_without_recording_edges(tmp_path):
    spec = f"wal://{tmp_path / 'pool-wal'}"
    db = Database(spec)
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('alice', 0)")
    db.execute(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (1, 'alice', 'x', 1.0, 0)")
    db.execute("UPDATE jobs SET state = 'matched' WHERE job_id = 1")
    db.close()
    recovered = Database(spec)
    try:
        assert recovered.counts.transitions == {}
        assert recovered.scalar("SELECT state FROM jobs") == "matched"
        recovered.execute("UPDATE jobs SET state = 'idle' WHERE job_id = 1")
        assert _ledger(recovered.counts) == {"jobs": {"matched->idle": 1}}
    finally:
        recovered.close()


def test_reopened_sqlite_file_records_again(tmp_path):
    """The triggers are TEMP — they die with the connection, and the
    file stays usable without ``lifecycle_edge`` — so a new connection
    to a file that already holds the schema arms them at connect."""
    url = f"sqlite:///{tmp_path / 'pool.db'}"
    first = create_engine(url)
    first.run_script(SCHEMA_STATEMENTS)
    first.execute("INSERT INTO users (user_name, created_at) VALUES ('a', 0)")
    first.execute(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (1, 'a', 'x', 1.0, 0)")
    first.execute("UPDATE jobs SET state = 'matched' WHERE job_id = 1")
    first.close()
    assert _ledger(first.counts) == {
        "jobs": {f"{BORN}->idle": 1, "idle->matched": 1}}
    second = create_engine(url)
    try:
        second.execute("UPDATE jobs SET state = 'running' WHERE job_id = 1")
        second.execute("DELETE FROM jobs WHERE job_id = 1")
        assert _ledger(second.counts) == {
            "jobs": {"matched->running": 1, f"running->{GONE}": 1}}
    finally:
        second.close()
