"""Tests for the storage engine, batched execution and the set-oriented
scheduling pass.

Covers the storage-layer contracts the cost model depends on:

* statement-cache hit/miss accounting (LRU semantics, one cache);
* batched execution charging per-row verb counts plus one batch;
* the one-statement scheduling pass producing exactly the matches the
  old row-at-a-time Python loop produced on a seeded workload;
* dependency gating across ``jobs``/``job_history``;
* O(1) statements per scheduling pass, independent of queue length.
"""

import random

import pytest

from repro.cluster import JobSpec
from repro.condorj2.costs import CasCostModel
from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.logic import (
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.storage import (
    MemoryStorageEngine,
    SqliteStorageEngine,
    StatementCache,
    StatementCounts,
    StorageConfigError,
    WalStorageEngine,
    create_engine,
)
from repro.condorj2.storage.statements import describe


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


@pytest.fixture
def services():
    db = Database()
    submission = SubmissionService(db)
    scheduling = SchedulingService(db)
    lifecycle = LifecycleService(db)
    heartbeat = HeartbeatService(db, scheduling, lifecycle)
    return db, submission, scheduling, lifecycle, heartbeat


def register_machine(heartbeat, name="m1", vm_count=2, now=0.0):
    heartbeat.register_machine({"name": name, "vm_count": vm_count}, now)


# ----------------------------------------------------------------------
# the statement cache
# ----------------------------------------------------------------------
def test_cache_hits_and_misses_are_counted(db):
    db.execute("SELECT 1")
    db.execute("SELECT 1")
    db.execute("SELECT 2")
    assert db.counts.prepared_misses == 2
    assert db.counts.prepared_hits == 1
    assert db.counts.hit_rate() == pytest.approx(1 / 3)
    # one cache, so the engine-side view of the ledger is the same pair
    assert (db.counts.plan_hits, db.counts.plan_misses) == (1, 2)
    entry = db.statement_cache.peek("SELECT 1")
    assert (entry.verb, entry.table, entry.spec) == ("SELECT", "", None)
    assert db.counts.texts == {"SELECT 1": 2, "SELECT 2": 1}


def test_dispatch_ledger_outlives_eviction(db):
    """``counts.texts`` is the one per-text dispatch count: an LRU
    eviction drops the cache entry, not the text's history."""
    db.statement_cache.capacity = 1
    for sql in ("SELECT 1", "SELECT 2", "SELECT 1"):
        db.execute(sql)
    assert db.counts.plan_evictions == 2
    assert [entry.sql for entry in db.statement_cache.entries()] == [
        "SELECT 1"]
    assert db.counts.texts == {"SELECT 1": 2, "SELECT 2": 1}


def _touch(cache, sql):
    """What engine admission does: lookup, store on a miss.  Returns
    ``(hit, evicted)`` — the two facts admission ticks its ledger by."""
    if cache.lookup(sql) is not None:
        return True, False
    return False, cache.store(describe(sql))


def test_cache_evicts_least_recently_used():
    cache = StatementCache(capacity=2)
    _touch(cache, "SELECT 'a'")
    assert _touch(cache, "SELECT 'b'") == (False, False)
    assert _touch(cache, "SELECT 'a'") == (True, False)  # b is now LRU
    assert _touch(cache, "SELECT 'c'") == (False, True)  # evicts b
    assert "SELECT 'a'" in cache and "SELECT 'c'" in cache
    assert "SELECT 'b'" not in cache
    assert [entry.sql for entry in cache.entries()] == [
        "SELECT 'a'", "SELECT 'c'"]  # least- to most-recently used
    assert _touch(cache, "SELECT 'b'") == (False, True)  # a miss again
    assert cache.peek("SELECT 'a'") is None
    assert [entry.sql for entry in cache.entries()] == [
        "SELECT 'c'", "SELECT 'b'"]
    cache.peek("SELECT 'c'")  # peek leaves recency alone
    assert [entry.sql for entry in cache.entries()] == [
        "SELECT 'c'", "SELECT 'b'"]


def test_cache_capacity_must_be_positive():
    with pytest.raises(ValueError):
        StatementCache(capacity=0)


def test_cache_entry_holds_the_lifecycle_classification(db):
    """What eviction re-computes: verb, table, transition spec, plan."""
    sql = "UPDATE jobs SET state = ? WHERE job_id = ?"
    db.execute(sql, ("matched", 1))
    entry = db.statement_cache.peek(sql)
    assert (entry.verb, entry.table) == ("UPDATE", "jobs")
    assert entry.spec.to_param == 0 and entry.spec.guard_states is None
    assert describe("SELECT state FROM jobs").spec is None
    assert describe("UPDATE users SET priority = 1").spec is None


# ----------------------------------------------------------------------
# batched execution accounting
# ----------------------------------------------------------------------
def test_executemany_counts_per_row_and_one_batch(db):
    before = db.counts.snapshot()
    db.executemany(
        "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
        [(f"u{i}", 0.0) for i in range(25)],
    )
    delta = db.counts.delta(before)
    assert delta.insert == 25  # per-row, exactly as 25 single statements
    assert delta.batches == 1
    assert db.table_count("users") == 25


def test_batch_cpu_cost_equals_per_row_cost_plus_dispatch():
    costs = CasCostModel()
    rowwise = StatementCounts(insert=100)
    batched = StatementCounts(insert=100, batches=1)
    assert costs.sql_cost_seconds(batched) == pytest.approx(
        costs.sql_cost_seconds(rowwise) + costs.batch_dispatch_seconds
    )


def test_prepare_cost_charged_per_cache_miss():
    costs = CasCostModel()
    delta = StatementCounts(select=2, prepared_misses=1, prepared_hits=1)
    assert costs.sql_cost_seconds(delta) == pytest.approx(
        2 * costs.select_seconds + costs.statement_prepare_seconds
    )


def test_executemany_rolls_back_with_transaction(db):
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.executemany(
                "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
                [("x", 0.0), ("y", 0.0)],
            )
            raise RuntimeError("abort")
    assert db.table_count("users") == 0


def test_pluggable_engine_is_used(db):
    engine = SqliteStorageEngine()
    database = Database(engine=engine)
    database.execute("SELECT 1")
    assert engine.counts.select == 1
    assert database.counts is engine.counts
    database.close()


def test_completion_batch_sizes_share_statement_text(services):
    """The whole lifecycle flow converges on a fixed SQL working set:
    a different completion batch size must not mint new cache entries."""
    db, submission, scheduling, lifecycle, heartbeat = services
    register_machine(heartbeat, "m1", vm_count=3)

    def run_batch(specs):
        submission.submit_jobs(specs, now=0.0)
        scheduling.run_pass(now=1.0)
        pairs = [
            (row["job_id"], row["vm_id"])
            for row in db.query_all("SELECT job_id, vm_id FROM matches")
        ]
        for job_id, vm_id in pairs:
            lifecycle.accept_match(job_id, vm_id, now=2.0)
        lifecycle.complete_jobs(pairs, now=3.0)

    run_batch([JobSpec()])
    misses_before = db.counts.plan_misses
    run_batch([JobSpec(), JobSpec(), JobSpec()])
    assert db.counts.plan_misses == misses_before


# ----------------------------------------------------------------------
# set-oriented scheduling pass vs the row-at-a-time reference loop
# ----------------------------------------------------------------------
def _reference_pass_pairs(db, limit=1000):
    """The pre-refactor algorithm: ranked lists zipped in Python.

    Dependency gating is applied before the limit (the set form's
    semantics; the old loop let gated jobs consume limit slots, which
    under-filled VMs — a bug the set-oriented pass fixed).
    """
    vms = [
        row["vm_id"]
        for row in db.query_all(
            """
            SELECT v.vm_id
            FROM vms v
            WHERE v.state = 'idle'
              AND v.vm_id NOT IN (SELECT vm_id FROM matches)
              AND v.vm_id NOT IN (SELECT vm_id FROM runs)
            ORDER BY v.vm_id
            LIMIT ?
            """,
            (limit,),
        )
    ]
    eligible = []
    for row in db.query_all(
        """
        SELECT j.job_id
        FROM jobs j
        JOIN users u ON u.user_name = j.owner
        WHERE j.state = 'idle'
        ORDER BY u.priority ASC, j.job_id ASC
        """
    ):
        pending = db.scalar(
            """
            SELECT COUNT(*) FROM job_dependencies d
            JOIN jobs p ON p.job_id = d.depends_on_job_id
            WHERE d.job_id = ?
            """,
            (row["job_id"],),
        )
        if not pending:
            eligible.append(row["job_id"])
        if len(eligible) >= len(vms):
            break
    return list(zip(eligible, vms))


def _seed_workload(services, rng):
    """A messy pool: jobs in all states, slots free, matched and running."""
    db, submission, scheduling, lifecycle, heartbeat = services
    for m in range(12):
        register_machine(heartbeat, f"m{m:02d}", vm_count=rng.randint(1, 4))

    owners = [f"user{u}" for u in range(5)]
    specs = []
    for _ in range(60):
        spec = JobSpec(owner=rng.choice(owners), run_seconds=rng.uniform(10, 90))
        if specs and rng.random() < 0.4:
            parents = rng.sample(specs, k=min(len(specs), rng.randint(1, 3)))
            spec.depends_on = tuple(parent.job_id for parent in parents)
        specs.append(spec)
    submission.submit_jobs(specs, now=1.0)
    for owner in owners:
        db.execute(
            "UPDATE users SET priority = ? WHERE user_name = ?",
            (rng.random(), owner),
        )
    # Run some jobs to completion so history-gated dependencies open up,
    # and leave some matches/runs in flight.
    scheduling.run_pass(now=2.0)
    matches = db.query_all("SELECT job_id, vm_id FROM matches")
    for index, row in enumerate(matches):
        if index % 3 == 0:
            continue  # leave pending
        lifecycle.accept_match(row["job_id"], row["vm_id"], now=3.0)
        if index % 3 == 1:
            lifecycle.complete_jobs([(row["job_id"], row["vm_id"])], now=50.0)
    return db


@pytest.mark.parametrize("seed", [7, 21, 1234])
def test_set_oriented_pass_matches_reference_loop(services, seed):
    db, _, scheduling, _, _ = services
    rng = random.Random(seed)
    _seed_workload(services, rng)
    expected = _reference_pass_pairs(db)
    before = {
        (row["job_id"], row["vm_id"])
        for row in db.query_all("SELECT job_id, vm_id FROM matches")
    }
    created = scheduling.run_pass(now=100.0)
    after = [
        (row["job_id"], row["vm_id"])
        for row in db.query_all(
            "SELECT job_id, vm_id FROM matches ORDER BY vm_id"
        )
        if (row["job_id"], row["vm_id"]) not in before
    ]
    assert created == len(expected)
    assert sorted(after) == sorted(expected)
    # Every matched job was flipped by the single set UPDATE.
    for job_id, _ in expected:
        state = db.scalar(
            "SELECT state FROM jobs WHERE job_id = ?", (job_id,)
        )
        assert state == "matched"


# ----------------------------------------------------------------------
# dependency gating across jobs / job_history
# ----------------------------------------------------------------------
def test_dependency_gates_until_parent_reaches_history(services):
    db, submission, scheduling, lifecycle, heartbeat = services
    register_machine(heartbeat, vm_count=2)
    parent = JobSpec(run_seconds=30.0)
    child = JobSpec(depends_on=(parent.job_id,))
    submission.submit_jobs([parent, child], now=0.0)
    scheduling.run_pass(now=1.0)
    matched = [
        row["job_id"]
        for row in db.query_all("SELECT job_id FROM matches")
    ]
    assert matched == [parent.job_id]  # child gated: parent still in jobs
    match = db.query_one("SELECT vm_id FROM matches")
    lifecycle.accept_match(parent.job_id, match["vm_id"], now=2.0)
    lifecycle.complete_jobs([(parent.job_id, match["vm_id"])], now=32.0)
    assert db.scalar(
        "SELECT COUNT(*) FROM job_history WHERE job_id = ?", (parent.job_id,)
    ) == 1
    scheduling.run_pass(now=33.0)
    matched = [
        row["job_id"]
        for row in db.query_all("SELECT job_id FROM matches")
    ]
    assert child.job_id in matched


def test_dependency_on_unknown_job_does_not_gate(services):
    db, submission, scheduling, _, heartbeat = services
    register_machine(heartbeat, vm_count=1)
    orphan = JobSpec(depends_on=(987654321,))
    submission.submit_jobs([orphan], now=0.0)
    assert scheduling.run_pass(now=1.0) == 1


def test_duplicate_dependency_ids_do_not_abort_batch(services):
    db, submission, _, _, _ = services
    parent = JobSpec()
    child = JobSpec(depends_on=(parent.job_id, parent.job_id))
    submission.submit_jobs([parent, child], now=0.0)
    assert db.table_count("job_dependencies") == 1
    assert db.table_count("jobs") == 2


def test_dependency_edges_cascade_with_job_deletion(services):
    db, submission, _, _, _ = services
    parent = JobSpec()
    child = JobSpec(depends_on=(parent.job_id,))
    submission.submit_jobs([parent, child], now=0.0)
    assert db.table_count("job_dependencies") == 1
    submission.remove_job(child.job_id)
    assert db.table_count("job_dependencies") == 0


# ----------------------------------------------------------------------
# O(1) statements per scheduling pass
# ----------------------------------------------------------------------
def _statements_for_queue_depth(n_jobs):
    db = Database()
    submission = SubmissionService(db)
    scheduling = SchedulingService(db)
    lifecycle = LifecycleService(db)
    heartbeat = HeartbeatService(db, scheduling, lifecycle)
    for m in range(4):
        register_machine(heartbeat, f"m{m}", vm_count=4)
    submission.submit_jobs(
        [JobSpec(owner=f"u{i % 7}") for i in range(n_jobs)], now=0.0
    )
    before = db.counts.snapshot()
    created = scheduling.run_pass(now=1.0)
    delta = db.counts.delta(before)
    assert created == 16  # all VMs filled regardless of depth
    return delta.statements, delta.total(), delta.commits


def test_run_pass_statement_count_flat_in_queue_length():
    shallow = _statements_for_queue_depth(50)
    deep = _statements_for_queue_depth(2000)
    assert shallow == deep
    statements, row_work, commits = deep
    assert statements == 3, (
        "probe + INSERT..SELECT + set UPDATE, flat in queue depth (2 "
        "before the pass was gated on its probe)")
    assert row_work == 33  # per-row CPU accounting: probe + 16 + 16
    assert commits == 1


def test_set_dml_charges_per_affected_row(services):
    """The set-oriented pass costs the CPU model what the old loop did."""
    db, submission, scheduling, _, heartbeat = services
    register_machine(heartbeat, vm_count=4)
    submission.submit_jobs([JobSpec() for _ in range(10)], now=0.0)
    before = db.counts.snapshot()
    created = scheduling.run_pass(now=1.0)
    delta = db.counts.delta(before)
    assert created == 4
    assert delta.insert == 4  # one INSERT..SELECT, four match rows
    assert delta.update == 4  # one set UPDATE, four jobs flipped
    assert delta.select == 1  # the probe that bound :limit to 4 free slots
    assert delta.statements == 3, "probe + INSERT..SELECT + set UPDATE"


def test_idle_pass_executes_single_statement(services):
    db, _, scheduling, _, _ = services
    before = db.counts.snapshot()
    assert scheduling.run_pass(now=1.0) == 0
    delta = db.counts.delta(before)
    assert delta.statements == 1, (
        "an empty queue stops the pass at its probe: no INSERT, no UPDATE")
    assert delta.total() == 1  # the probe is one unit of row work
    assert delta.select == 1 and delta.commits == 0


# ----------------------------------------------------------------------
# engine selection: one grammar, backend[://path]
# ----------------------------------------------------------------------
ENGINES = {
    "sqlite": SqliteStorageEngine,
    "memory": MemoryStorageEngine,
    "wal": WalStorageEngine,
}

#: ``(spec, engine, what it leaves under the spec's directory)``; a spec
#: without a path keeps its data private to the process.
ACCEPTED_SPECS = (
    ("sqlite", SqliteStorageEngine, []),
    ("memory", MemoryStorageEngine, []),
    ("wal", WalStorageEngine, []),
    ("memory://", MemoryStorageEngine, []),
    ("sqlite://{tmp}/pool.db", SqliteStorageEngine, ["pool.db"]),
    ("wal://{tmp}/pool-wal", WalStorageEngine, ["pool-wal"]),
)

#: Unknown names and schemes, and the spellings only history used: bare
#: SQLite paths, ``sqlite::memory:``, an empty scheme.
REJECTED_SPECS = (
    "postgres", "Wal", "", "postgres://somewhere/db", "db2://cas",
    ":memory:", "{tmp}/pool.db", "sqlite::memory:", "://", "://{tmp}",
)


@pytest.mark.parametrize("spec, engine_class, files", ACCEPTED_SPECS)
def test_spec_resolves_to_its_engine_and_path(spec, engine_class, files,
                                              tmp_path):
    database = Database(spec.format(tmp=tmp_path))
    assert type(database.engine) is engine_class
    database.execute("INSERT INTO users (user_name, created_at) "
                     "VALUES ('u', 0)")
    database.close()
    assert sorted(path.name for path in tmp_path.iterdir()) == files


@pytest.mark.parametrize("name", [None, *ENGINES])
def test_environment_names_the_default_engine(name, monkeypatch):
    if name is None:
        monkeypatch.delenv("CONDORJ2_STORAGE_ENGINE", raising=False)
    else:
        monkeypatch.setenv("CONDORJ2_STORAGE_ENGINE", name)
    database = Database()
    assert type(database.engine) is ENGINES[name or "sqlite"]
    database.close()


@pytest.mark.parametrize("spec", REJECTED_SPECS)
def test_spec_naming_no_engine_raises_structured_fault(spec, tmp_path):
    """A typo'd backend name is a structured StorageConfigError naming
    the offender and the alternatives — never a silent SQLite file."""
    spec = spec.format(tmp=tmp_path)
    with pytest.raises(StorageConfigError) as excinfo:
        create_engine(spec)
    fault = excinfo.value
    assert fault.backend == spec.partition("://")[0]
    assert fault.available == tuple(ENGINES)
    assert list(tmp_path.iterdir()) == []


def test_unknown_env_default_raises_structured_fault(monkeypatch):
    monkeypatch.setenv("CONDORJ2_STORAGE_ENGINE", "bogus")
    with pytest.raises(StorageConfigError) as excinfo:
        create_engine()
    assert excinfo.value.backend == "bogus"


# ----------------------------------------------------------------------
# state domains declare only what a statement writes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sqlite", "memory"])
@pytest.mark.parametrize("sql, state", [
    ("UPDATE jobs SET state = ? WHERE job_id = 1", "held"),
    ("UPDATE jobs SET state = ? WHERE job_id = 1", "completed"),
    ("UPDATE jobs SET state = ? WHERE job_id = 1", "removed"),
    ("UPDATE machines SET state = ? WHERE machine_name = 'm'", "missing"),
    ("UPDATE machines SET state = ? WHERE machine_name = 'm'", "offline"),
    ("UPDATE vms SET state = ? WHERE vm_id = 'v'", "offline"),
])
def test_no_row_can_be_parked_in_a_state_no_statement_writes(
        backend, sql, state):
    """Completion and removal delete the job tuple, and no pool marks a
    machine missing or takes a machine or a slot offline, so those
    states are outside the CHECK domain and every engine refuses a row
    in one."""
    db = Database(backend=backend)
    try:
        db.execute("INSERT INTO users (user_name, created_at) VALUES ('u', 0)")
        db.execute("INSERT INTO jobs (job_id, owner, cmd, run_seconds, "
                   "submitted_at) VALUES (1, 'u', 'c', 1, 0)")
        db.execute("INSERT INTO machines (machine_name) VALUES ('m')")
        db.execute("INSERT INTO vms (vm_id, machine_name) VALUES ('v', 'm')")
        with pytest.raises(DatabaseError, match="CHECK"):
            db.execute(sql, (state,))
    finally:
        db.close()
