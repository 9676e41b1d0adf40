"""The gated, slot-bounded scheduling pass against the pass it replaced.

``ORACLE_INSERT_SQL`` / ``ORACLE_UPDATE_SQL`` are the statements
``SchedulingService.run_pass`` executed before it was gated on its
probe, ranking the whole idle queue: ``:limit`` a constant 1000, one
transaction per call.  Two pools of the *same* backend are driven in
lockstep through the differential harness — one by ``run_pass``, one by
the oracle — and must hold byte-identical ``matches`` and ``jobs``
tables and return the same count after every pass, on all three
backends.  That pins the three soundness arguments in DESIGN.md:

* the probe is a necessary condition of the INSERT's own WHERE clauses
  (a pass it stops would have placed nothing);
* the slot join keeps min(free slots, eligible jobs) rows, so ranking
  either side past the free-slot count changes nothing;
* the global top K by (priority, job_id) lies within the union of every
  owner's first K eligible jobs, so each owner's walk may stop there.

The plan pins at the end hold what no statement of the pass may do:
walk the idle queue — on SQLite, and on the memory engine by the rows
its profiled plan reads.
"""

import gc
import random
import re

import pytest

from repro.cluster import JobSpec
from repro.condorj2.logic.scheduling import (
    MATCH_INSERT_SQL,
    MATCH_UPDATE_SQL,
    PASS_PROBE_SQL,
)
from tests.condorj2.test_differential import Pool, TraceRunner, dump_tables

BACKENDS = ("sqlite", "memory", "wal")

ORACLE_INSERT_SQL = """
INSERT INTO matches (job_id, vm_id, created_at)
SELECT ranked_jobs.job_id, ranked_vms.vm_id, :now
FROM (
    SELECT v.vm_id,
           ROW_NUMBER() OVER (ORDER BY v.vm_id) AS slot
    FROM vms v
    JOIN machines m ON m.machine_name = v.machine_name
    WHERE v.state = 'idle'
      AND m.state = 'alive'
      AND NOT EXISTS (SELECT 1 FROM matches mt WHERE mt.vm_id = v.vm_id)
      AND NOT EXISTS (SELECT 1 FROM runs r WHERE r.vm_id = v.vm_id)
    ORDER BY v.vm_id
    LIMIT :limit
) AS ranked_vms
JOIN (
    SELECT j.job_id,
           ROW_NUMBER() OVER (ORDER BY u.priority ASC, j.job_id ASC) AS slot
    FROM jobs j
    JOIN users u ON u.user_name = j.owner
    WHERE j.state = 'idle'
      AND NOT EXISTS (
          SELECT 1
          FROM job_dependencies d
          JOIN jobs p ON p.job_id = d.depends_on_job_id
          WHERE d.job_id = j.job_id
      )
    ORDER BY u.priority ASC, j.job_id ASC
    LIMIT :limit
) AS ranked_jobs ON ranked_jobs.slot = ranked_vms.slot
"""

ORACLE_UPDATE_SQL = """
UPDATE jobs SET state = 'matched'
WHERE state = 'idle'
  AND job_id IN (SELECT job_id FROM matches)
"""


def oracle_pass(pool, now):
    """The ungated pass, exactly as ``run_pass`` used to issue it."""
    with pool.db.transaction():
        created = pool.db.execute(
            ORACLE_INSERT_SQL, {"now": now, "limit": 1000}).rowcount
        if created:
            pool.db.execute(ORACLE_UPDATE_SQL)
    return created


def assert_same_tables(subject, oracle, context=""):
    got, want = dump_tables(subject.db), dump_tables(oracle.db)
    for table in ("matches", "jobs"):
        assert repr(got[table]) == repr(want[table]), (
            f"{table} diverges from the ungated pass {context}")


class OraclePair:
    """One backend twice: ``subject`` runs ``run_pass``, ``oracle`` the
    statements it replaced.  ``both`` applies any other step to the two
    pools alike."""

    def __init__(self, backend):
        self.subject, self.oracle = Pool(backend), Pool(backend)
        self.pools = (self.subject, self.oracle)

    def both(self, step):
        for pool in self.pools:
            step(pool)

    def run_pass(self, now):
        before = self.subject.db.counts.snapshot()
        created = self.subject.scheduling.run_pass(now)
        delta = self.subject.db.counts.delta(before)
        assert created == oracle_pass(self.oracle, now)
        assert_same_tables(self.subject, self.oracle, f"at t={now}")
        return created, delta

    def close(self):
        self.both(Pool.close)


@pytest.fixture(params=BACKENDS)
def pair(request):
    pools = OraclePair(request.param)
    yield pools
    pools.close()


def register(pair, name, vm_count, now=0.0):
    pair.both(lambda pool: pool.heartbeat.register_machine(
        {"name": name, "vm_count": vm_count}, now))


def submit(pair, specs, now=0.0):
    pair.both(lambda pool: pool.submission.submit_jobs(specs, now))
    return [spec.job_id for spec in specs]


# ----------------------------------------------------------------------
# (i) gate equivalence
# ----------------------------------------------------------------------

class GatedTraceRunner(TraceRunner):
    """The differential fuzzer's traces with the scheduling op split:
    pool 0 takes ``run_pass``, pool 1 the oracle.  The two issue
    different statements by design, so only relational state is
    compared."""

    def op_scheduling_pass(self):
        subject, oracle = self.pools
        assert subject.scheduling.run_pass(self.now) == \
            oracle_pass(oracle, self.now)

    def _assert_step_equivalence(self, name, step):
        assert_same_tables(*self.pools, f"after step {step} ({name})")


@pytest.mark.parametrize("seed", range(12))
def test_gated_pass_equals_ungated_pass_on_seeded_traces(pair, seed):
    GatedTraceRunner(seed, list(pair.pools)).run(28)
    subject, oracle = (dump_tables(pool.db) for pool in pair.pools)
    assert repr(subject) == repr(oracle)


def test_go_but_every_idle_job_waits_on_a_live_dependency(pair):
    """The probe sees an idle job and a free slot; the INSERT's own
    anti-join then places nothing — 2 statements, 1 commit, no match."""
    register(pair, "m1", vm_count=2)
    parent = JobSpec(owner="alice")
    children = [JobSpec(owner="alice", depends_on=(parent.job_id,))
                for _ in range(3)]
    submit(pair, [parent] + children)
    assert pair.run_pass(1.0)[0] == 1  # the parent; children all held
    created, delta = pair.run_pass(2.0)
    assert created == 0
    assert (delta.statements, delta.commits) == (2, 1), (
        "probe said go (idle children, one free VM); the INSERT ran and "
        "placed nothing, so no UPDATE followed")


def test_no_free_slot_when_every_idle_vm_is_matched_or_running(pair):
    register(pair, "m1", vm_count=2)
    first = submit(pair, [JobSpec(owner="alice") for _ in range(2)])
    assert pair.run_pass(1.0)[0] == 2
    match = pair.subject.db.query_one(
        "SELECT vm_id FROM matches WHERE job_id = ?", (first[0],))
    # One VM moves on to `runs`, the other still holds its match; both
    # still read state 'idle' in `vms` until the startd reports.
    pair.both(lambda pool: pool.lifecycle.accept_match(
        first[0], match["vm_id"], 2.0))
    pair.both(lambda pool: pool.db.execute(
        "UPDATE vms SET state = 'idle' WHERE vm_id = ?", (match["vm_id"],)))
    submit(pair, [JobSpec(owner="alice") for _ in range(3)], now=3.0)
    created, delta = pair.run_pass(4.0)
    assert created == 0
    assert (delta.statements, delta.commits) == (1, 0), (
        "no free slot: the pass stops at its probe and opens no "
        "transaction")


@pytest.mark.parametrize("state", ("missing", "offline"))
def test_no_free_slot_when_the_machine_is_not_alive(pair, state):
    register(pair, "m1", vm_count=2)
    pair.both(lambda pool: pool.db.execute(
        "UPDATE machines SET state = ? WHERE machine_name = 'm1'", (state,)))
    submit(pair, [JobSpec(owner="alice") for _ in range(3)])
    created, delta = pair.run_pass(1.0)
    assert created == 0
    assert (delta.statements, delta.commits) == (1, 0)
    # The machine comes back: the same queue now places.
    pair.both(lambda pool: pool.db.execute(
        "UPDATE machines SET state = 'alive' WHERE machine_name = 'm1'"))
    created, delta = pair.run_pass(2.0)
    assert created == 2
    assert (delta.statements, delta.commits) == (3, 1)


def test_gated_pass_leaves_the_wal_untouched(tmp_path):
    from repro.condorj2.database import Database
    from repro.condorj2.storage import WalStorageEngine

    pool = Pool("wal", database=Database(
        engine=WalStorageEngine(str(tmp_path / "wal"))))
    try:
        pool.heartbeat.register_machine({"name": "m1", "vm_count": 2}, 0.0)
        before = pool.db.counts.snapshot()
        assert pool.scheduling.run_pass(1.0) == 0  # empty queue
        delta = pool.db.counts.delta(before)
        assert (delta.statements, delta.commits, delta.wal_appends) == \
            (1, 0, 0)
    finally:
        pool.close()


# ----------------------------------------------------------------------
# (ii) the free-slot bound is exact
# ----------------------------------------------------------------------

@pytest.mark.parametrize("free_slots", (1, 2, 3, 4, 5, 8))
def test_equal_priority_owners_interleave_by_job_id(pair, free_slots):
    """alice and bob share a priority and alternate ids; carol is ahead
    of both with two jobs.  K sweeps below, at and above every per-owner
    count (2, 3 and 3) and the queue's length."""
    register(pair, "m1", vm_count=free_slots)
    specs = [JobSpec(owner=owner) for owner in
             ("alice", "bob", "alice", "carol", "bob", "alice", "carol",
              "bob")]
    submit(pair, specs)
    pair.both(lambda pool: pool.db.execute(
        "UPDATE users SET priority = 0.25 WHERE user_name = 'carol'"))
    created, delta = pair.run_pass(1.0)
    assert created == min(free_slots, len(specs))
    assert delta.statements == 3
    order = [row["job_id"] for row in pair.subject.db.query_all(
        "SELECT job_id FROM matches ORDER BY vm_id")]
    by_owner = {spec.job_id: spec.owner for spec in specs}
    expected = ([s.job_id for s in specs if s.owner == "carol"]
                + [s.job_id for s in specs if s.owner != "carol"])
    assert order == expected[:free_slots], [by_owner[j] for j in order]


@pytest.mark.parametrize("free_slots", (1, 2, 3))
def test_dependencies_disqualify_an_owners_first_ids(pair, free_slots):
    """alice's first three ids wait on a live parent of bob's, so her
    K-th *eligible* id lies beyond her K-th id: the bound counts
    eligible jobs, not idle ones."""
    register(pair, "m1", vm_count=free_slots)
    blocker = JobSpec(owner="bob")
    held = [JobSpec(owner="alice", depends_on=(blocker.job_id,))
            for _ in range(3)]
    free = [JobSpec(owner="alice") for _ in range(3)]
    submit(pair, [blocker] + held + free)
    pair.both(lambda pool: pool.db.execute(
        "UPDATE users SET priority = 0.9 WHERE user_name = 'bob'"))
    created, _ = pair.run_pass(1.0)
    assert created == free_slots
    matched = sorted(row["job_id"] for row in pair.subject.db.query_all(
        "SELECT job_id FROM matches"))
    assert matched == [spec.job_id for spec in free][:free_slots]


@pytest.mark.parametrize("seed", (3, 11, 42))
def test_bounded_pass_on_random_queues(pair, seed):
    """Random owners, priorities and dependency edges; several passes
    with VMs freed in between, so K varies pass to pass."""
    rng = random.Random(seed)
    for machine in range(3):
        register(pair, f"m{machine}", vm_count=rng.randint(1, 4))
    submitted = []
    for now in range(1, 7):
        specs = []
        for _ in range(rng.randint(3, 12)):
            spec = JobSpec(owner=f"user{rng.randint(0, 4)}")
            if submitted and rng.random() < 0.35:
                spec.depends_on = tuple(rng.sample(
                    submitted, k=min(len(submitted), rng.randint(1, 2))))
            specs.append(spec)
            submitted.append(spec.job_id)
        submit(pair, specs, now=float(now))
        for owner in {spec.owner for spec in specs}:
            priority = rng.choice((0.25, 0.5, 0.5, 0.75))
            pair.both(lambda pool: pool.db.execute(
                "UPDATE users SET priority = ? WHERE user_name = ?",
                (priority, owner)))
        pair.run_pass(now + 0.5)
        # Finish a random share of what is matched, freeing those VMs.
        for row in pair.subject.db.query_all(
                "SELECT job_id, vm_id FROM matches ORDER BY vm_id"):
            if rng.random() < 0.6:
                job_id, vm_id = row["job_id"], row["vm_id"]
                pair.both(lambda pool: pool.lifecycle.accept_match(
                    job_id, vm_id, now + 0.6))
                pair.both(lambda pool: pool.lifecycle.complete_job(
                    job_id, vm_id, now + 0.7))
        pair.run_pass(now + 0.8)


# ----------------------------------------------------------------------
# plan pins: the probe and the set UPDATE do not walk the idle queue
# ----------------------------------------------------------------------

def test_a_placing_pass_does_not_hoard_the_queue():
    """One free slot, 10,000 idle jobs, memory engine: the job side
    reads each owner's first eligible job, not the queue, and keeps at
    most a buffer's worth of what it reads.  A kept candidate is tracked
    containers (a key tuple, a values list), so a pass that kept every
    idle job would show about 60 gen-0 collections at this depth; this
    one shows next to none."""
    pool = Pool("memory")

    def placing_pass(now):
        gc.collect()
        collections = gc.get_stats()[0]["collections"]
        statements = pool.db.counts.statements
        assert pool.scheduling.run_pass(now) == 1
        statements = pool.db.counts.statements - statements
        collections = gc.get_stats()[0]["collections"] - collections
        match = pool.db.query_one("SELECT job_id, vm_id FROM matches")
        pool.lifecycle.accept_match(match["job_id"], match["vm_id"], now + 0.2)
        pool.lifecycle.complete_job(match["job_id"], match["vm_id"], now + 0.4)
        return statements, collections

    try:
        pool.heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
        pool.submission.submit_jobs(
            [JobSpec(owner=f"user{i % 13}") for i in range(10_000)], 0.0)
        placing_pass(1.0)  # compiles the plans
        statements, collections = placing_pass(2.0)
        assert statements == 3
        assert collections <= 8, (
            f"{collections} gen-0 collections in one placing pass")
    finally:
        pool.close()


def _plan_nodes(report):
    stack = [report.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def test_sqlite_probe_and_update_do_not_walk_the_queue():
    pool = Pool("sqlite")
    try:
        pool.heartbeat.register_machine({"name": "m1", "vm_count": 4}, 0.0)
        pool.submission.submit_jobs(
            [JobSpec(owner=f"user{i % 5}") for i in range(60)], 0.0)
        update = [node.detail for node in _plan_nodes(
            pool.db.explain(MATCH_UPDATE_SQL))]
        assert "SEARCH jobs USING INTEGER PRIMARY KEY (rowid=?)" in update, (
            f"the set UPDATE walks every idle job again: {update}")
        probe = [node.detail for node in _plan_nodes(
            pool.db.explain(PASS_PROBE_SQL))]
        assert not any(step.startswith("SCAN jobs") for step in probe)
    finally:
        pool.close()


def test_sqlite_walks_each_owners_idle_jobs_by_index():
    """The job side of the INSERT is ``users`` scanned and, per user, a
    search of ``idx_jobs_state_owner`` on (state, owner) cut at a job_id
    bound; no step scans a ``jobs`` alias."""
    pool = Pool("sqlite")
    try:
        pool.heartbeat.register_machine({"name": "m1", "vm_count": 4}, 0.0)
        pool.submission.submit_jobs(
            [JobSpec(owner=f"user{i % 5}") for i in range(60)], 0.0)
        steps = [node.detail for node in _plan_nodes(pool.db.explain(
            MATCH_INSERT_SQL, {"now": 1.0, "limit": 4}))]
        walk = [step for step in steps if step.startswith("SEARCH j ")]
        assert len(walk) == 1 and re.fullmatch(
            r"SEARCH j USING COVERING INDEX idx_jobs_state_owner "
            r"\(state=\? AND owner=\? AND (rowid|job_id)<\?\)", walk[0]), steps
        driver = [step for step in steps if step.startswith("SCAN u")]
        assert driver == ["SCAN u"], steps
        assert not any(re.match(r"SCAN (jobs|[jcp])\b", step)
                       for step in steps), steps
    finally:
        pool.close()


def test_memory_pass_reads_what_it_places():
    """10,000 idle jobs, 13 owners, one free slot: the profiled INSERT
    reads a few job rows per owner and per slot, not the queue."""
    pool = Pool("memory")
    try:
        pool.heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
        owners = 13
        pool.submission.submit_jobs(
            [JobSpec(owner=f"user{i % owners}") for i in range(10_000)], 0.0)
        limit = pool.db.scalar(PASS_PROBE_SQL)
        assert limit == 1
        report = pool.db.explain(MATCH_INSERT_SQL,
                                 {"now": 1.0, "limit": limit})
        read = sum(node.actual_rows or 0 for node in _plan_nodes(report)
                   if node.op in ("PROBE", "SCAN")
                   and node.detail.startswith("jobs"))
        assert 0 < read <= 4 * owners * limit, report.render()
    finally:
        pool.close()


def test_memory_pass_reads_no_bound_for_a_user_without_idle_jobs():
    """Every registered user costs the walk one probe, but only a user
    the probe finds costs the bound's subquery: 100 users with no job
    beside 13 owners run it 13 times."""
    pool = Pool("memory")
    try:
        pool.heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
        pool.db.executemany(
            "INSERT INTO users (user_name, created_at) VALUES (?, 0.0)",
            [(f"dormant{u}",) for u in range(100)])
        pool.submission.submit_jobs(
            [JobSpec(owner=f"user{i % 13}") for i in range(200)], 0.0)
        report = pool.db.explain(MATCH_INSERT_SQL, {"now": 1.0, "limit": 1})
        loops = {node.op if node.op != "PROBE" else node.detail:
                 node.actual_loops for node in _plan_nodes(report)}
        assert loops["jobs AS j (eq probe on (state, owner),"
                     " job_id <= bound)"] == 113, report.render()
        assert loops["SCALAR-SELECT"] == 13, report.render()
    finally:
        pool.close()
