"""Cross-backend differential fuzzing of the storage engines.

The paper's thesis — cluster state is just data — is falsifiable only if
the CAS logic is correct against *any* conformant store.  This harness
makes the claim testable: seeded random workload traces (submission
batches with random DAG edges, heartbeats, starts, completions, drops,
failures, scheduling passes, liveness sweeps) are replayed in lockstep against the
SQLite engine and the dict-backed memory engine, asserting after every
step that

* the scheduler's match set is identical,
* the centralized :class:`StatementCounts` are *equal* — same row work,
  same dispatches, same batches, same commits, same statement-cache
  hits/misses, same per-table traffic,

and at the end of the trace that the full table state is byte-identical
(same values, same types, down to SQLite's write-time type affinity and
rowid assignment).
"""

import random

import pytest

from repro.cluster import JobSpec
from repro.condorj2.database import (
    Database, DatabaseError, RowNotFound, RowStateError,
)
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.schema import LIFECYCLES, TABLES

BACKENDS = ("sqlite", "memory")

#: Two owners are numbers in text that is not how the engine would print
#: them: "0.50" equals the default ``users.priority`` and "016" the default
#: ``jobs.image_size_mb`` once comparison affinity has converted the text,
#: and equals neither as text.
OWNERS = ("user0", "user1", "user2", "user3", "0.50", "016")

#: A TEXT column with an index against numeric columns, in the three
#: places an equality can become a probe.  Comparison affinity converts
#: the *text* side, so an index over the stored text cannot answer these.
CROSS_AFFINITY_SQL = (
    "SELECT u.user_name, j.job_id FROM users u"
    " JOIN jobs j ON j.owner = u.priority",
    "SELECT j.job_id FROM jobs j"
    " WHERE j.owner IN (SELECT k.image_size_mb FROM jobs k)",
    "SELECT u.user_name FROM users u"
    " WHERE EXISTS (SELECT 1 FROM jobs j WHERE j.owner = u.priority)",
)

#: An IN-subquery that names the outer row's column with no qualifier
#: (``job_dependencies`` has no ``attempts``): it must be re-evaluated
#: per outer row, as a SELECT's filter and as an UPDATE's.
OUTER_COLUMN_PREDICATE = (
    "job_id IN (SELECT d.job_id FROM job_dependencies d"
    " WHERE d.depends_on_job_id % 2 = attempts % 2)"
)

#: Number of seeded traces the fuzzer replays (acceptance floor: 50).
TRACE_COUNT = 50
#: Operations per trace.
TRACE_LENGTH = 28


class Pool:
    """One backend's full service stack.

    ``database`` lets a caller stack the services over a pre-configured
    :class:`Database` (the crash-recovery harness wires in WAL engines
    on directories of its own); by default the backend name picks the
    engine.
    """

    def __init__(self, backend, database=None):
        self.backend = backend
        self.db = database or Database(backend=backend)
        self.submission = SubmissionService(self.db)
        self.scheduling = SchedulingService(self.db)
        self.lifecycle = LifecycleService(self.db)
        self.heartbeat = HeartbeatService(
            self.db, self.scheduling, self.lifecycle
        )
        self.config = ConfigService(self.db)

    def close(self):
        self.db.close()


def dump_tables(db):
    """Full table state as a canonical, type-sensitive structure."""
    state = {}
    for table in TABLES:
        rows = [
            tuple(sorted(dict(row).items()))
            for row in db.query_all(f"SELECT * FROM {table}")  # sql-ident: table
        ]
        state[table] = sorted(rows, key=repr)
    return state


def match_set(db):
    return sorted(
        (row["job_id"], row["vm_id"])
        for row in db.query_all("SELECT job_id, vm_id FROM matches")
    )


class TraceRunner:
    """Generates one op at a time from the observed state of pool A and
    applies it to every pool identically."""

    def __init__(self, seed, pools):
        self.rng = random.Random(seed)
        self.pools = pools
        self.now = 0.0
        self.machines = []
        self.submitted_ids = []

    # -- op helpers -----------------------------------------------------
    def _observed(self, sql, params=()):
        """Observation query, issued to *every* pool so the statement
        accounting stays symmetric; decisions use the first pool's rows."""
        rows = [pool.db.query_all(sql, params) for pool in self.pools]
        return rows[0]

    def _tick(self):
        self.now += self.rng.uniform(0.5, 30.0)

    def op_register_machine(self):
        name = f"m{len(self.machines):02d}"
        self.machines.append(name)
        description = {
            "name": name,
            "vm_count": self.rng.randint(1, 4),
            "cores": self.rng.randint(1, 4),
            "memory_mb": self.rng.choice([256, 512, 1024]),
        }
        for pool in self.pools:
            pool.heartbeat.register_machine(dict(description), self.now)

    def op_submit_batch(self):
        specs = []
        for _ in range(self.rng.randint(1, 6)):
            spec = JobSpec(
                owner=self.rng.choice(OWNERS),
                run_seconds=round(self.rng.uniform(5.0, 120.0), 3),
            )
            if self.submitted_ids and self.rng.random() < 0.4:
                parents = self.rng.sample(
                    self.submitted_ids,
                    k=min(len(self.submitted_ids), self.rng.randint(1, 3)),
                )
                spec.depends_on = tuple(parents)
            specs.append(spec)
            self.submitted_ids.append(spec.job_id)
        for pool in self.pools:
            pool.submission.submit_jobs(specs, self.now)

    def op_scheduling_pass(self):
        created = {pool.scheduling.run_pass(self.now) for pool in self.pools}
        assert len(created) == 1, "engines disagree on matches created"

    def op_heartbeat(self):
        if not self.machines:
            return
        machine = self.rng.choice(self.machines)
        vms = self._observed(
            "SELECT vm_id, state FROM vms WHERE machine_name = ?", (machine,)
        )
        payload_vms = [
            {"vm_id": row["vm_id"], "state": row["state"]}
            for row in vms
            if self.rng.random() < 0.5
        ]
        payload = {"machine": machine, "vms": payload_vms, "events": []}
        for pool in self.pools:
            pool.heartbeat.process(dict(payload), self.now)

    def op_accept_matches(self):
        rows = self._observed("SELECT job_id, vm_id FROM matches")
        pending = sorted((row["job_id"], row["vm_id"]) for row in rows)
        if not pending:
            return
        chosen = [p for p in pending if self.rng.random() < 0.7]
        for job_id, vm_id in chosen:
            for pool in self.pools:
                pool.lifecycle.accept_match(job_id, vm_id, self.now)

    def op_complete_jobs(self):
        runs = self._observed("SELECT job_id, vm_id FROM runs")
        if not runs:
            return
        pairs = [
            (row["job_id"], row["vm_id"])
            for row in runs
            if self.rng.random() < 0.6
        ]
        if not pairs:
            return
        machine = pairs[0][1].split("@", 1)[1]
        events = [
            {"kind": "completed", "job_id": job_id, "vm_id": vm_id}
            for job_id, vm_id in pairs
        ]
        payload = {"machine": machine, "vms": [], "events": events}
        for pool in self.pools:
            pool.heartbeat.process(dict(payload), self.now)

    def op_start_jobs(self):
        """Table 2's step 11 as the startd sends it: ``started`` events
        on a heartbeat, some in one payload with the same job's end."""
        events = []
        for row in self._observed("SELECT job_id, vm_id FROM runs"):
            if self.rng.random() < 0.5:
                ids = {"job_id": row["job_id"], "vm_id": row["vm_id"]}
                events.append({"kind": "started", **ids})
                ending = self.rng.choice((None, None, "completed", "dropped"))
                if ending:
                    events.append({"kind": ending, **ids})
        if not events:
            return
        machine = events[0]["vm_id"].split("@", 1)[1]
        payload = {"machine": machine, "vms": [], "events": events}
        for pool in self.pools:
            pool.heartbeat.process(dict(payload), self.now)

    def op_drop_job(self):
        runs = self._observed("SELECT job_id, vm_id FROM runs")
        if not runs:
            return
        row = self.rng.choice(runs)
        for pool in self.pools:
            pool.lifecycle.report_drop(
                row["job_id"], row["vm_id"], self.now, reason="fuzz-drop"
            )

    def op_remove_job(self):
        """Any job in the table: a queued one goes (its match with it),
        a running one is refused the same way everywhere."""
        jobs = self._observed("SELECT job_id, state FROM jobs")
        if not jobs:
            return
        job = self.rng.choice(sorted(jobs, key=lambda row: row["job_id"]))
        for pool in self.pools:
            if job["state"] == "running":
                with pytest.raises(RowStateError, match="'running'"):
                    pool.submission.remove_job(job["job_id"])
            else:
                pool.submission.remove_job(job["job_id"])

    def op_config_change(self):
        name = self.rng.choice(["scheduling_interval_seconds", "fuzz_knob"])
        value = str(self.rng.randint(1, 1000))
        for pool in self.pools:
            pool.config.set(name, value, self.now, changed_by="fuzzer")

    def op_cross_affinity(self):
        sql = self.rng.choice(CROSS_AFFINITY_SQL)
        answers = [
            sorted(tuple(row) for row in pool.db.query_all(sql))
            for pool in self.pools
        ]
        assert all(answer == answers[0] for answer in answers), (
            f"engines disagree on {sql!r}: {answers}"
        )

    def op_outer_column_subquery(self):
        selected = [
            sorted(tuple(row) for row in pool.db.query_all(
                "SELECT j.job_id FROM jobs j WHERE j."
                + OUTER_COLUMN_PREDICATE))
            for pool in self.pools
        ]
        assert all(rows == selected[0] for rows in selected), (
            f"engines disagree on the correlated IN-subquery: {selected}"
        )
        updated = {
            pool.db.execute(
                "UPDATE jobs SET cmd = 'fuzz' WHERE " + OUTER_COLUMN_PREDICATE
            ).rowcount
            for pool in self.pools
        }
        assert updated == {len(selected[0])}, (
            f"UPDATE matched {updated}, SELECT {len(selected[0])}"
        )

    OPS = (
        ("register", 1, op_register_machine),
        ("submit", 3, op_submit_batch),
        ("pass", 3, op_scheduling_pass),
        ("heartbeat", 2, op_heartbeat),
        ("accept", 3, op_accept_matches),
        ("start", 2, op_start_jobs),
        ("complete", 3, op_complete_jobs),
        ("drop", 1, op_drop_job),
        ("remove", 1, op_remove_job),
        ("config", 1, op_config_change),
        ("affinity", 1, op_cross_affinity),
        ("outer-column", 1, op_outer_column_subquery),
    )

    def run(self, steps):
        # Every trace starts with at least one machine and one batch.
        self.op_register_machine()
        self._tick()
        self.op_submit_batch()
        names = [name for name, weight, _ in self.OPS for _ in range(weight)]
        by_name = {name: op for name, _, op in self.OPS}
        for step in range(steps):
            self._tick()
            name = self.rng.choice(names)
            by_name[name](self)
            self._assert_step_equivalence(name, step)

    def _assert_step_equivalence(self, name, step):
        reference = self.pools[0]
        expected_matches = match_set(reference.db)
        expected_counts = reference.db.counts
        for pool in self.pools[1:]:
            assert match_set(pool.db) == expected_matches, (
                f"step {step} ({name}): match sets diverge "
                f"({reference.backend} vs {pool.backend})"
            )
            assert pool.db.counts == expected_counts, (
                f"step {step} ({name}): StatementCounts diverge "
                f"({reference.backend} vs {pool.backend})"
            )


@pytest.mark.parametrize("seed", range(TRACE_COUNT))
def test_differential_trace(seed):
    """Replay one seeded trace against every backend in lockstep."""
    pools = [Pool(backend) for backend in BACKENDS]
    try:
        runner = TraceRunner(seed, pools)
        runner.run(TRACE_LENGTH)
        reference = dump_tables(pools[0].db)
        reference_counts = pools[0].db.counts
        for pool in pools[1:]:
            state = dump_tables(pool.db)
            for table in TABLES:
                assert repr(state[table]) == repr(reference[table]), (
                    f"final state of {table} diverges "
                    f"({pools[0].backend} vs {pool.backend})"
                )
            assert pool.db.counts == reference_counts
    finally:
        for pool in pools:
            pool.close()


#: (LIMIT operand, as a literal, rows of five returned; None = refused).
#: SQLite applies INTEGER affinity and then wants an integer: 2.0 and '2'
#: are 2, a negative count is no limit, anything else is a mismatch.
LIMIT_OPERANDS = [
    (2.7, "2.7", None),
    (None, "NULL", None),
    ("abc", "'abc'", None),
    (2.0, "2.0", 2),
    ("2", "'2'", 2),
    (-1, "-1", 5),
]


@pytest.mark.parametrize("operand, literal, expected", LIMIT_OPERANDS)
def test_limit_operand_is_an_integer_or_a_mismatch(operand, literal, expected):
    """Bound or spelled in the text, streamed or sorted, a LIMIT that is
    no integer is refused on every backend the way SQLite refuses it:
    the same error out of ``Database.execute``, the same counts after."""
    counts = {}
    for backend in ("sqlite", "memory", "wal"):
        db = Database(backend=backend)
        db.executemany(
            "INSERT INTO users (user_name, created_at) VALUES (?, 0)",
            [(f"user{n}",) for n in range(5)])
        for select in ("SELECT user_name FROM users",
                       "SELECT user_name FROM users ORDER BY user_name DESC"):
            for sql, params in ((f"{select} LIMIT ?", (operand,)),
                                (f"{select} LIMIT {literal}", ())):
                if expected is None:
                    with pytest.raises(DatabaseError,
                                       match="datatype mismatch"):
                        db.execute(sql, params)
                else:
                    assert len(db.query_all(sql, params)) == expected, backend
        counts[backend] = db.counts
        db.close()
    assert counts["memory"] == counts["sqlite"]


#: (statement, parameters) whose answers must not depend on the engine.
#: ``json_each``'s columns are declared untyped — BLOB affinity — so a
#: TEXT column meets them unconverted (``'2'`` is not ``2``) while a
#: numeric column still pulls their text to a number, through an index
#: probe and through a filter alike; and a ``json_each`` source has no
#: row estimate for a literal LIMIT to cap.
JSON_EACH_CASES = [
    ("SELECT value FROM json_each(?) LIMIT 2", ("[1, 2, 3]",)),
    ("SELECT key, value FROM json_each('[5, 6, 7]') ORDER BY key DESC LIMIT 1",
     ()),
    ("SELECT user_name FROM users"
     " WHERE user_name IN (SELECT value FROM json_each('[2]'))", ()),
    ("SELECT user_name FROM users"
     " WHERE user_name IN (SELECT value FROM json_each(?))",
     ('[2, "2", "user1", 7]',)),
    ("SELECT user_name FROM users, json_each('[2]')"
     " WHERE user_name = json_each.value", ()),
    ("SELECT user_name FROM users JOIN json_each(?)"
     " ON user_name = json_each.value", ('["2", 2, "user0"]',)),
    ("SELECT u.user_name FROM json_each(?) j JOIN users u"
     " ON u.user_name = j.value", ('[2, "user0"]',)),
    ("SELECT user_name FROM users WHERE user_name IN (2, '7')", ()),
    ("SELECT job_id FROM jobs"
     " WHERE job_id IN (SELECT value FROM json_each(?))", ('["1", 2, "x"]',)),
    ("SELECT j.job_id FROM json_each(?) e JOIN jobs j ON j.job_id = e.value",
     ('["3", 1]',)),
    ("SELECT job_id FROM jobs WHERE owner IN (SELECT value FROM json_each(?))",
     ("[2]",)),
]


@pytest.mark.parametrize("sql, params", JSON_EACH_CASES)
def test_json_each_columns_have_no_text_affinity_and_no_estimate(sql, params):
    answers = {}
    for backend in ("sqlite", "memory", "wal"):
        db = Database(backend=backend)
        db.executemany(
            "INSERT INTO users (user_name, created_at) VALUES (?, 0)",
            [("2",), ("7",), ("user0",), ("user1",)])
        db.executemany(
            "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
            " VALUES (?, ?, 'x', 1.0, 0)",
            [(1, "2"), (2, "user0"), (3, "7")])
        answers[backend] = [tuple(row) for row in db.query_all(sql, params)]
        db.close()
    assert answers["memory"] == answers["wal"] == answers["sqlite"], sql


#: (statement, parameters) whose bind surface SQLite refuses.  The memory
#: engine used to let the first through, raise a bare ``IndexError`` on
#: the second, and check the third only when a row reached the predicate.
BIND_SURFACE_ERRORS = [
    ("SELECT user_name FROM users WHERE user_name = ?", ("a", "b")),
    ("SELECT user_name FROM users WHERE user_name = ? AND created_at = ?",
     ("a",)),
    ("SELECT user_name FROM users WHERE user_name = :name", {"nme": "a"}),
]


@pytest.mark.parametrize("populated", (False, True))
@pytest.mark.parametrize("sql, params", BIND_SURFACE_ERRORS)
def test_bind_surface_is_checked_before_any_row(sql, params, populated):
    """A statement bound with too many, too few or misnamed parameters is
    rejected by every engine, whether or not a row would reach the
    placeholder; an executemany keeps the rows before the bad one."""
    users, counts = {}, {}
    for backend in ("sqlite", "memory", "wal"):
        db = Database(backend=backend)
        if populated:
            db.execute("INSERT INTO users (user_name, created_at) "
                       "VALUES ('a', 0)")
        with pytest.raises(db.engine.ENGINE_ERRORS):
            db.execute(sql, params)
        with pytest.raises(db.engine.ENGINE_ERRORS):
            db.executemany(
                "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
                [("b", 1), ("c",)])
        counts[backend] = db.counts
        users[backend] = db.query_all("SELECT user_name FROM users")
        db.close()
    assert counts["memory"] == counts["sqlite"]
    assert [tuple(row) for row in users["memory"]] \
        == [tuple(row) for row in users["wal"]] \
        == [tuple(row) for row in users["sqlite"]]


#: Both ``jobs`` and ``vms`` have a ``state`` column.
AMBIGUOUS_SQL = (
    "SELECT state FROM jobs j JOIN vms v ON v.vm_id = j.cmd",
    "SELECT j.job_id FROM jobs j WHERE EXISTS (SELECT 1 FROM vms v"
    " JOIN machines m ON m.machine_name = v.machine_name"
    " WHERE state = 'busy')",
)
#: Qualified, or unqualified in a subquery where one source provides the
#: name: the innermost scope wins over the outer ``jobs``.
UNAMBIGUOUS_SQL = (
    "SELECT j.state, v.state FROM jobs j JOIN vms v ON v.vm_id = j.cmd",
    "SELECT job_id FROM jobs WHERE EXISTS"
    " (SELECT 1 FROM vms WHERE state = 'busy')",
    "SELECT j.job_id, (SELECT state FROM vms v WHERE v.vm_id = j.cmd)"
    " FROM jobs j",
)


def test_an_unqualified_name_two_sources_provide_is_ambiguous():
    answers = {}
    for backend in ("sqlite", "memory", "wal"):
        db = Database(backend=backend)
        db.execute("INSERT INTO machines (machine_name) VALUES ('m1')")
        db.execute("INSERT INTO vms (vm_id, machine_name, state)"
                   " VALUES ('vm0@m1', 'm1', 'busy')")
        db.execute("INSERT INTO users (user_name, created_at)"
                   " VALUES ('u', 0)")
        db.execute("INSERT INTO jobs (job_id, owner, cmd, run_seconds,"
                   " submitted_at) VALUES (1, 'u', 'vm0@m1', 1.0, 0)")
        for sql in AMBIGUOUS_SQL:
            with pytest.raises(db.engine.ENGINE_ERRORS, match="ambiguous"):
                db.execute(sql)
        answers[backend] = [[tuple(row) for row in db.query_all(sql)]
                            for sql in UNAMBIGUOUS_SQL]
        db.close()
    assert answers["memory"] == answers["wal"] == answers["sqlite"]
    assert answers["sqlite"] == [[("idle", "busy")], [(1,)], [(1, "busy")]]


#: A window outside a select's result columns and ORDER BY: SQLite
#: refuses each when it prepares the statement.  The memory engine used
#: to answer the first five: no rows, nine groups of one, 9, and an
#: UPDATE that ran.
WINDOW_MISUSE_SQL = {
    "where": "SELECT job_id FROM jobs"
             " WHERE ROW_NUMBER() OVER (ORDER BY job_id) = 1",
    "join-on": "SELECT j.job_id FROM jobs j JOIN users u"
               " ON u.user_name = j.owner"
               " AND ROW_NUMBER() OVER (ORDER BY j.job_id) = 1",
    "group-by": "SELECT COUNT(*) FROM jobs"
                " GROUP BY ROW_NUMBER() OVER (ORDER BY job_id)",
    "in-aggregate": "SELECT MAX(ROW_NUMBER() OVER (ORDER BY job_id))"
                    " FROM jobs",
    "update-set": "UPDATE jobs SET attempts ="
                  " ROW_NUMBER() OVER (ORDER BY job_id)",
    "delete-where": "DELETE FROM jobs"
                    " WHERE ROW_NUMBER() OVER (ORDER BY job_id) = 1",
    "insert-values": "INSERT INTO users (user_name, created_at)"
                     " VALUES ('z', ROW_NUMBER() OVER (ORDER BY 1))",
    "limit": "SELECT job_id FROM jobs"
             " LIMIT ROW_NUMBER() OVER (ORDER BY job_id)",
    "in-window-order": "SELECT ROW_NUMBER() OVER"
                       " (ORDER BY ROW_NUMBER() OVER (ORDER BY job_id))"
                       " FROM jobs",
}

#: Where a window stays legal: a select's ORDER BY, and the select list
#: of a subquery inside WHERE, EXISTS or IN.
WINDOW_LEGAL_SQL = {
    "order-by": "SELECT job_id FROM jobs"
                " ORDER BY ROW_NUMBER() OVER (ORDER BY run_seconds DESC)",
    "scalar-in-where": "SELECT j.job_id FROM jobs j WHERE j.job_id <="
                       " (SELECT ROW_NUMBER() OVER (ORDER BY k.job_id DESC)"
                       "  FROM jobs k WHERE k.owner = j.owner"
                       "  ORDER BY k.job_id LIMIT 1)"
                       " ORDER BY j.job_id",
    "exists": "SELECT j.job_id FROM jobs j WHERE EXISTS"
              " (SELECT ROW_NUMBER() OVER (ORDER BY k.job_id) FROM jobs k"
              "  WHERE k.owner = j.owner AND k.job_id > j.job_id)"
              " ORDER BY j.job_id",
    "in": "SELECT job_id FROM jobs WHERE job_id IN"
          " (SELECT ROW_NUMBER() OVER (ORDER BY job_id DESC) FROM jobs"
          "  WHERE owner = 'b')",
}


def _window_pool(backend):
    """Nine jobs over owners a, b and c, with distinct run times."""
    db = Database(backend=backend)
    db.executemany("INSERT INTO users (user_name, created_at) VALUES (?, 0)",
                   [("a",), ("b",), ("c",)])
    db.executemany(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (?, ?, 'c', ?, 0)",
        [(job_id, "abc"[job_id % 3], float(job_id * 7 % 5))
         for job_id in range(1, 10)])
    return db


@pytest.mark.parametrize("form", sorted(WINDOW_MISUSE_SQL))
def test_a_misplaced_window_is_refused_everywhere(form):
    counts = {}
    for backend in ("sqlite", "memory", "wal"):
        db = _window_pool(backend)
        with pytest.raises(db.engine.ENGINE_ERRORS,
                           match=r"misuse of window function ROW_NUMBER\(\)"):
            db.execute(WINDOW_MISUSE_SQL[form])
        counts[backend] = db.counts
        db.close()
    assert counts["memory"] == counts["sqlite"]


@pytest.mark.parametrize("form", sorted(WINDOW_LEGAL_SQL))
def test_a_window_where_sqlite_allows_it_answers_alike(form):
    answers = {}
    for backend in ("sqlite", "memory", "wal"):
        db = _window_pool(backend)
        answers[backend] = [tuple(row)
                            for row in db.query_all(WINDOW_LEGAL_SQL[form])]
        db.close()
    assert answers["memory"] == answers["wal"] == answers["sqlite"]
    assert len(answers["sqlite"]) >= 3


def _queued_matched_and_running(backend):
    """One pool with job 1 running, job 2 matched, job 3 idle and held
    back by an edge on job 2, job 4 idle."""
    pool = Pool(backend)
    pool.heartbeat.register_machine({"name": "m1", "vm_count": 2}, 0.0)
    pool.submission.submit_jobs(
        [JobSpec(job_id=1), JobSpec(job_id=2),
         JobSpec(job_id=3, depends_on=(2,)), JobSpec(job_id=4)], 1.0)
    assert pool.scheduling.run_pass(2.0) == 2
    vm_id = pool.db.scalar("SELECT vm_id FROM matches WHERE job_id = 1")
    pool.lifecycle.accept_match(1, vm_id, 3.0)
    return pool


def test_remove_job_is_two_guarded_statements_on_every_backend():
    """A removal is ``DELETE matches`` + one guarded ``DELETE jobs``; a
    refusal pays one disambiguating SELECT, keeps the match, and faults
    the way it always has.  Counts, ledger and tables equal everywhere."""
    outcomes = {}
    for backend in ("sqlite", "memory", "wal"):
        pool = _queued_matched_and_running(backend)
        db = pool.db
        steps = []
        for job_id, error in ((2, None), (3, None), (1, RowStateError),
                              (2, RowNotFound), (99, RowNotFound)):
            mark, edges = db.counts.mark(), dict(
                db.counts.transitions.get("jobs", {}))
            if error is None:
                pool.submission.remove_job(job_id)
            else:
                with pytest.raises(error):
                    pool.submission.remove_job(job_id)
            walked = {edge: count - edges.get(edge, 0) for edge, count
                      in db.counts.transitions["jobs"].items()
                      if count != edges.get(edge, 0)}
            steps.append((db.counts.since(mark).statements, walked))
        assert steps == [
            (2, {"matched->(gone)": 1}), (2, {"idle->(gone)": 1}),
            (3, {}), (3, {}), (3, {}),
        ], backend
        declared = set(LIFECYCLES["jobs"].edges())
        assert all(tuple(edge.split("->")) in declared
                   for edge in db.counts.transitions["jobs"])
        # the running job and its (vanished) match: untouched by the refusal
        assert db.scalar("SELECT state FROM jobs WHERE job_id = 1") == "running"
        outcomes[backend] = (
            {table: repr(rows) for table, rows in dump_tables(db).items()
             if table in ("matches", "jobs", "job_dependencies", "runs")},
            db.counts.statements, db.counts.tables, db.counts.transitions)
        pool.close()
    assert outcomes["memory"] == outcomes["wal"] == outcomes["sqlite"]
    tables = outcomes["sqlite"][0]
    assert tables["matches"] == "[]"           # job 2's match went with it
    assert tables["job_dependencies"] == "[]"  # job 3's edge went with it


@pytest.mark.parametrize("backend", ("sqlite", "memory", "wal"))
def test_refused_removal_rolls_the_match_delete_back(backend):
    """The guard misses *after* the match is deleted — a state the fuzzer
    cannot reach (``matches`` and ``'matched'`` move together), parked
    here with raw SQL — so the refusal must put the match back."""
    pool = _queued_matched_and_running(backend)
    pool.db.execute("UPDATE jobs SET state = 'running' WHERE job_id = 2")
    before = dump_tables(pool.db)
    with pytest.raises(RowStateError, match="'running'"):
        pool.submission.remove_job(2)
    assert pool.db.table_count("matches") == 1
    assert dump_tables(pool.db) == before
    pool.close()


def test_trace_count_meets_acceptance_floor():
    assert TRACE_COUNT >= 50
