"""Planner, compiled-plan cache and EXPLAIN tests.

Four concerns, matching the planner layer's contracts (DESIGN.md):

* unit tests for the pure planning rules in ``storage.planner`` —
  cardinality estimates, driver choice (stable on ties), and
  ROW_NUMBER/ORDER BY/LIMIT fusion detection;
* plan-cache semantics — a plan served from the cache returns exactly
  the rows a cold compile returns, both backends admit identically
  (equal ``StatementCounts`` ledgers), and repeated scheduling passes
  converge to a ≈100% hit rate (the perf property the compiled-plan
  cache exists for);
* ``engine.explain`` on both backends — a :class:`PlanNode` tree that
  renders, profiled execution on the memory engine reporting actual
  row counts, and profiled DML always rolled back and uncounted;
* correlated EXISTS against SQLite — NULL correlation keys on either
  side, a driving index lookup whose bucket is empty for some outer
  rows (answered from the index) and not for others, and the shapes
  that are not one inner-column equality (non-equality or outer-only
  conjuncts, LIMIT, GROUP BY, ORDER BY, two inner sources).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.condorj2.storage.planner as pl
import repro.condorj2.storage.sqlparser as sp
from repro.cluster import JobSpec
from repro.condorj2.beans import BeanContainer
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.logic.scheduling import MATCH_INSERT_SQL

BACKENDS = ("sqlite", "memory")


# ----------------------------------------------------------------------
# planning rules (pure functions)
# ----------------------------------------------------------------------

class TestEstimates:
    def test_unique_column_estimates_one_row(self):
        assert pl.estimate_eq_rows(10_000, 3, unique=True) == 1.0

    def test_uniform_spread(self):
        assert pl.estimate_eq_rows(10_000, 13) == 10_000 / 13

    def test_empty_table(self):
        assert pl.estimate_eq_rows(0, 0) == 0.0

    def test_zero_distinct_does_not_divide_by_zero(self):
        assert pl.estimate_eq_rows(100, 0) == 100.0


class TestChooseDriver:
    def test_cheapest_candidate_wins(self):
        a = pl.DriverCandidate(0, "eq", "state", 500.0)
        b = pl.DriverCandidate(1, "eq", "owner", 3.0)
        assert pl.choose_driver([a, b]) is b

    def test_ties_keep_source_order(self):
        # Strict < comparison: equal estimates must not flap the plan.
        a = pl.DriverCandidate(0, "eq", "x", 5.0)
        b = pl.DriverCandidate(1, "eq", "y", 5.0)
        assert pl.choose_driver([a, b]) is a
        assert pl.choose_driver([b, a]) is b

    def test_no_candidates(self):
        assert pl.choose_driver([]) is None


class TestFusableWindowItems:
    def test_matching_row_number_fuses(self):
        select = sp.parse(
            "SELECT j.job_id, ROW_NUMBER() OVER (ORDER BY j.job_id) AS r "
            "FROM jobs j ORDER BY j.job_id LIMIT 10")
        assert pl.fusable_window_items(select) == [1]

    def test_mismatched_order_does_not_fuse(self):
        select = sp.parse(
            "SELECT ROW_NUMBER() OVER (ORDER BY j.owner) AS r "
            "FROM jobs j ORDER BY j.job_id")
        assert pl.fusable_window_items(select) is None

    def test_no_windows_means_no_fusion(self):
        select = sp.parse("SELECT j.job_id FROM jobs j ORDER BY j.job_id")
        assert pl.fusable_window_items(select) is None

    def test_distinct_blocks_fusion(self):
        select = sp.parse(
            "SELECT DISTINCT ROW_NUMBER() OVER (ORDER BY j.job_id) AS r "
            "FROM jobs j ORDER BY j.job_id")
        assert pl.fusable_window_items(select) is None

    def test_window_inside_exists_is_invisible(self):
        # contains_window must not descend into subqueries: the outer
        # select has no window of its own, so no fusion — but also no
        # false rejection of the subquery-bearing WHERE.
        select = sp.parse(
            "SELECT j.job_id FROM jobs j WHERE EXISTS ("
            "SELECT ROW_NUMBER() OVER (ORDER BY d.job_id) FROM deps d"
            ") ORDER BY j.job_id")
        assert pl.fusable_window_items(select) is None
        assert not pl.contains_window(select.where)


# ----------------------------------------------------------------------
# compiled-plan cache semantics
# ----------------------------------------------------------------------

def _seeded_db(backend):
    db = Database(backend=backend)
    db.execute(
        "INSERT INTO users (user_name, priority, created_at) "
        "VALUES (?, ?, ?)",
        ("alice", 5, 0.0),
    )
    db.executemany(
        "INSERT INTO jobs (owner, cmd, run_seconds, state, submitted_at) "
        "VALUES (?, ?, ?, ?, ?)",
        [("alice", "job.sh", 1.0, "idle", float(i)) for i in range(20)],
    )
    return db


@pytest.mark.parametrize("backend", BACKENDS)
def test_cached_plan_returns_identical_rows(backend):
    """A plan served from the cache is indistinguishable from a cold
    compile: same rows, byte for byte, on every execution."""
    db = _seeded_db(backend)
    sql = ("SELECT job_id, owner, state FROM jobs "
           "WHERE state = ? ORDER BY job_id")
    cold = [tuple(row) for row in db.query_all(sql, ("idle",))]
    assert db.counts.plan_misses >= 1
    hits_before = db.counts.plan_hits
    warm = [tuple(row) for row in db.query_all(sql, ("idle",))]
    assert db.counts.plan_hits == hits_before + 1
    assert warm == cold
    # Force a cold recompile of the same text and compare again.
    db.statement_cache.clear()
    recompiled = [tuple(row) for row in db.query_all(sql, ("idle",))]
    assert recompiled == cold


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([
    "SELECT COUNT(*) FROM jobs WHERE state = 'idle'",
    "SELECT job_id FROM jobs WHERE owner = 'alice' ORDER BY job_id",
    "SELECT user_name, priority FROM users ORDER BY user_name",
    "UPDATE jobs SET state = 'held' WHERE job_id = 1",
    "UPDATE jobs SET state = 'idle' WHERE job_id = 1",
]), min_size=1, max_size=12))
def test_plan_ledger_identical_across_backends(statements):
    """Equal workloads produce equal plan-cache ledgers on both
    backends — hits, misses and evictions all admit through the one
    base-class path."""
    ledgers = {}
    results = {}
    for backend in BACKENDS:
        db = _seeded_db(backend)
        before = db.counts.snapshot()
        rows = []
        for sql in statements:
            if sql.startswith("SELECT"):
                rows.append([tuple(r) for r in db.query_all(sql)])
            else:
                db.execute(sql)
        delta = db.counts.delta(before)
        ledgers[backend] = (
            delta.plan_hits, delta.plan_misses, delta.plan_evictions)
        results[backend] = rows
    assert ledgers["sqlite"] == ledgers["memory"]
    assert results["sqlite"] == results["memory"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_scheduling_passes_converge_to_full_hit_rate(backend):
    """After the cold pass compiles the scheduling statements, every
    later pass runs entirely from the plan cache."""
    container = BeanContainer(Database(backend=backend))
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)
    for m in range(2):
        heartbeat.register_machine(
            {"name": f"m{m:03d}", "vm_count": 4}, 0.0)
    submission.submit_jobs(
        [JobSpec(owner=f"user{i % 3}") for i in range(50)], now=0.0)
    counts = container.db.counts
    scheduling.run_pass(now=1.0)  # cold: compiles the pass's plans
    misses_after_cold = counts.plan_misses
    hits_before = counts.plan_hits
    warm_passes = 10
    for n in range(warm_passes):
        scheduling.run_pass(now=float(n + 2))
    assert counts.plan_misses == misses_after_cold, (
        "warm scheduling passes must not recompile any plan")
    warm_admissions = (counts.plan_hits - hits_before) + (
        counts.plan_misses - misses_after_cold)
    assert counts.plan_hits - hits_before == warm_admissions  # 100% hits


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_explain_renders_a_plan_tree(backend):
    db = _seeded_db(backend)
    report = db.explain(
        "SELECT job_id FROM jobs WHERE owner = ? ORDER BY job_id")
    assert report.engine == backend
    assert report.root.op == "STATEMENT"
    rendered = report.render()
    assert "STATEMENT" in rendered
    payload = report.to_dict()
    assert payload["engine"] == backend
    assert payload["plan"]["op"] == "STATEMENT"


@pytest.mark.parametrize("backend", BACKENDS)
def test_explain_is_uncounted(backend):
    db = _seeded_db(backend)
    before = db.counts.snapshot()
    db.explain("SELECT COUNT(*) FROM jobs WHERE state = ?")
    delta = db.counts.delta(before)
    assert delta.statements == 0
    assert delta.plan_hits == 0 and delta.plan_misses == 0


@pytest.mark.parametrize("backend", ("sqlite", "memory", "wal"))
def test_explain_binds_every_placeholder_kind(backend):
    """Explaining a cached statement text binds NULL per placeholder:
    the scheduling statement's ``:now`` / ``:limit``, and a ``?``
    inside a string literal is not one."""
    db = Database(backend=backend)
    assert db.explain(MATCH_INSERT_SQL).root.children
    report = db.explain(
        "SELECT job_id FROM jobs WHERE owner = '?' AND state = ?")
    assert report.root.op == "STATEMENT"


def test_memory_explain_chooses_index_probe():
    db = _seeded_db("memory")
    report = db.explain("SELECT * FROM jobs WHERE job_id = ?")
    rendered = report.render()
    assert "PROBE" in rendered
    assert "est=" in rendered


def test_memory_declines_a_probe_that_would_convert_the_indexed_column():
    """``jobs.owner`` is TEXT: against a TEXT column the index answers,
    against a REAL one comparison affinity converts ``owner`` itself and
    the stored text is the wrong key -- the join falls back to a scan."""
    db = _seeded_db("memory")
    join = "SELECT j.job_id FROM users u JOIN jobs j ON j.owner = u.{column}"
    assert "PROBE jobs AS j (eq probe on owner)" in db.explain(
        join.format(column="user_name")).render()
    assert "SCAN jobs AS j" in db.explain(
        join.format(column="priority")).render()
    member = ("SELECT j.job_id FROM jobs j"
              " WHERE j.owner IN (SELECT u.{column} FROM users u)")
    assert "in-select probe on owner" in db.explain(
        member.format(column="user_name")).render()
    assert "PROBE" not in db.explain(
        member.format(column="priority")).render()


def test_memory_explain_profiles_actual_rows():
    db = _seeded_db("memory")
    report = db.explain(
        "SELECT job_id FROM jobs WHERE state = ? ORDER BY job_id",
        ("idle",))
    rendered = report.render()
    assert "actual=" in rendered
    # 20 idle jobs flow out of the driving probe.
    assert "actual=20" in rendered


def test_memory_explain_profiled_dml_rolls_back():
    db = _seeded_db("memory")
    before_rows = [tuple(r) for r in db.query_all(
        "SELECT job_id, state FROM jobs ORDER BY job_id")]
    before_counts = db.counts.snapshot()
    report = db.explain(
        "UPDATE jobs SET state = 'held' WHERE state = ?", ("idle",))
    assert report.root.op == "STATEMENT"
    after_rows = [tuple(r) for r in db.query_all(
        "SELECT job_id, state FROM jobs ORDER BY job_id")]
    assert after_rows == before_rows, "profiled DML must leave no trace"
    delta = db.counts.delta(before_counts)
    # Only the two verification SELECTs above are counted.
    assert delta.update == 0 and delta.rollbacks == 0


def test_sqlite_explain_binds_nulls_for_missing_params():
    # Explaining a cached statement text without its original arguments
    # must still work (the statistics page does exactly this).
    db = _seeded_db("sqlite")
    report = db.explain("SELECT * FROM jobs WHERE job_id = ?")
    assert "STEP" in report.render()


# ----------------------------------------------------------------------
# correlated EXISTS vs SQLite
# ----------------------------------------------------------------------

ENGINES = ("sqlite", "memory", "wal")


def _null_key_fixture(backend):
    db = Database(backend=backend)
    db.execute(
        "INSERT INTO users (user_name, priority, created_at) "
        "VALUES ('alice', 1, 0.0)")
    db.executemany(
        "INSERT INTO jobs (owner, cmd, run_seconds, state, submitted_at,"
        " requirements) VALUES (?, ?, ?, ?, ?, ?)",
        [("alice", "c", 1.0, "idle", 0.0, None),
         ("alice", "c", 1.0, "idle", 0.0, "mem>1"),
         ("alice", "c", 1.0, "idle", 0.0, "mem>2"),
         ("alice", "c", 1.0, "held", 0.0, None)]
        * 5,
    )
    return db


@pytest.mark.parametrize("negated", [False, True])
def test_correlated_exists_null_probe_matches_sqlite(negated):
    """EXISTS correlated on a nullable column: a NULL outer key never
    matches, a NULL inner key never admits — on every engine."""
    word = "NOT EXISTS" if negated else "EXISTS"
    sql = (
        "SELECT j.job_id FROM jobs j WHERE " + word + " ("
        "SELECT 1 FROM jobs o WHERE o.requirements = j.requirements "
        "AND o.state = 'held') ORDER BY j.job_id"
    )
    rows = {}
    for backend in ENGINES:
        db = _null_key_fixture(backend)
        rows[backend] = [tuple(r) for r in db.query_all(sql)]
        db.close()
    assert rows["memory"] == rows["sqlite"]
    assert rows["wal"] == rows["sqlite"]


def test_correlated_exists_all_null_keys_matches_sqlite():
    """Every inner key NULL: EXISTS is false (NOT EXISTS true) for
    every outer row, NULL keys included."""
    sql = (
        "SELECT j.job_id FROM jobs j WHERE NOT EXISTS ("
        "SELECT 1 FROM jobs o WHERE o.requirements = j.requirements "
        "AND o.state = 'removed') ORDER BY j.job_id"
    )
    rows = {}
    for backend in ENGINES:
        db = _null_key_fixture(backend)
        rows[backend] = [tuple(r) for r in db.query_all(sql)]
        db.close()
    assert rows["memory"] == rows["sqlite"]
    assert rows["wal"] == rows["sqlite"]
    # NOT EXISTS over an empty set keeps every row.
    assert len(rows["sqlite"]) == 20


#: The outer row's probe: NULL, 2, 2.0 and '2' in turn.
_PROBE = ("CASE WHEN w.workflow_id % 4 = 0 THEN NULL"
          " WHEN w.workflow_id % 4 = 1 THEN 2"
          " WHEN w.workflow_id % 4 = 2 THEN 2.0 ELSE '2' END")

#: Two-source correlated EXISTS driven by one equality lookup, against a
#: TEXT column (``users.user_name``) and an INTEGER one
#: (``job_dependencies.job_id``, the scheduling pass's own shape).  The
#: second source's ON reads the outer row too, so a bucket that is not
#: empty still admits only workflows 1-4.
_TWO_SOURCE_EXISTS = {
    "TEXT": ("users AS u",
             "SELECT 1 FROM users u JOIN jobs j ON j.owner = u.user_name"
             " AND w.workflow_id <= 4 WHERE u.user_name = " + _PROBE),
    "INTEGER": ("job_dependencies AS d",
                "SELECT 1 FROM job_dependencies d"
                " JOIN jobs p ON p.job_id = d.depends_on_job_id"
                " AND w.workflow_id <= 4 WHERE d.job_id = " + _PROBE),
}


def _probe_fixture(backend):
    """Users '2' and 'ann' (no '2.0'), eight workflows, and job 2 with
    one edge to a job that is in ``jobs``."""
    db = Database(backend=backend)
    db.executemany(
        "INSERT INTO users (user_name, created_at) VALUES (?, 0)",
        [("2",), ("ann",)])
    db.executemany(
        "INSERT INTO workflows (workflow_id, owner, submitted_at)"
        " VALUES (?, 'ann', 0)", [(n,) for n in range(1, 9)])
    db.executemany(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, submitted_at)"
        " VALUES (?, ?, 'c', 1, 0)", [(1, "ann"), (2, "2")])
    db.execute("INSERT INTO job_dependencies (job_id, depends_on_job_id)"
               " VALUES (2, 1)")
    return db


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("column", sorted(_TWO_SOURCE_EXISTS))
def test_exists_over_an_empty_driving_bucket_matches_sqlite(column, negated):
    """The empty bucket answers EXISTS before a row is read; a bucket
    that is not empty still runs the join.  NULL and, against TEXT,
    2.0 ('2.0') find no row; 2 and '2' do."""
    source, sub = _TWO_SOURCE_EXISTS[column]
    sql = ("SELECT w.workflow_id FROM workflows w WHERE "
           + ("NOT EXISTS (" if negated else "EXISTS (") + sub
           + ") ORDER BY w.workflow_id")
    rows = {}
    for backend in ENGINES:
        db = _probe_fixture(backend)
        rows[backend] = [row[0] for row in db.query_all(sql)]
        if backend == "memory":
            assert f"PROBE {source}" in db.explain(sql).render()
        db.close()
    assert rows["memory"] == rows["sqlite"]
    assert rows["wal"] == rows["sqlite"]
    found = {"TEXT": [1, 3], "INTEGER": [1, 2, 3]}[column]
    if negated:
        found = [n for n in range(1, 9) if n not in found]
    assert rows["sqlite"] == found


#: Correlated-EXISTS shapes that are not a plain equality on one inner
#: column: each runs per outer row on the memory engines, and each must
#: keep SQLite's answer.
_EXISTS_SHAPES = {
    "non-equality correlation":
        "SELECT 1 FROM job_dependencies d WHERE d.job_id < j.job_id",
    "both sides outer":
        "SELECT 1 FROM job_dependencies d WHERE d.job_id = j.job_id"
        " AND j.state = j.owner",
    "outer column against a constant":
        "SELECT 1 FROM job_dependencies d WHERE d.job_id = j.job_id"
        " AND j.state = 'idle'",
    "uncorrelated":
        "SELECT 1 FROM job_dependencies d WHERE d.depends_on_job_id = 9",
    "LIMIT 1":
        "SELECT 1 FROM job_dependencies d WHERE d.job_id = j.job_id"
        " LIMIT 1",
    "GROUP BY":
        "SELECT 1 FROM job_dependencies d WHERE d.job_id = j.job_id"
        " GROUP BY d.depends_on_job_id",
    "ORDER BY":
        "SELECT 1 FROM job_dependencies d WHERE d.job_id = j.job_id"
        " ORDER BY d.depends_on_job_id",
    "two inner sources":
        "SELECT 1 FROM job_dependencies d"
        " JOIN jobs p ON p.job_id = d.depends_on_job_id"
        " WHERE d.job_id = j.job_id AND p.state = 'held'",
}


def _edge_fixture(backend):
    """Jobs 1-6, idle and held by turns, and edges 2->1, 3->1, 3->2,
    5->4 and 6->9 (job 9 is not in ``jobs``)."""
    db = Database(backend=backend)
    db.executemany(
        "INSERT INTO users (user_name, created_at) VALUES (?, 0)",
        [("ann",), ("idle",)])
    db.executemany(
        "INSERT INTO jobs (job_id, owner, cmd, run_seconds, state,"
        " submitted_at) VALUES (?, ?, 'c', 1, ?, 0)",
        [(1, "ann", "held"), (2, "idle", "idle"), (3, "ann", "held"),
         (4, "ann", "held"), (5, "ann", "idle"), (6, "idle", "held")])
    db.executemany(
        "INSERT INTO job_dependencies (job_id, depends_on_job_id)"
        " VALUES (?, ?)", [(2, 1), (3, 1), (3, 2), (5, 4), (6, 9)])
    return db


@pytest.mark.parametrize("shape", sorted(_EXISTS_SHAPES))
def test_correlated_exists_shape_matches_sqlite(shape):
    """EXISTS and NOT EXISTS over each shape return SQLite's rows, and
    between them every job exactly once."""
    rows = {}
    for backend in ENGINES:
        db = _edge_fixture(backend)
        for word in ("EXISTS", "NOT EXISTS"):
            sql = ("SELECT j.job_id FROM jobs j WHERE " + word + " ("
                   + _EXISTS_SHAPES[shape] + ") ORDER BY j.job_id")
            rows[backend, word] = [row[0] for row in db.query_all(sql)]
        db.close()
    for word in ("EXISTS", "NOT EXISTS"):
        assert rows["memory", word] == rows["sqlite", word]
        assert rows["wal", word] == rows["sqlite", word]
    assert sorted(rows["sqlite", "EXISTS"]
                  + rows["sqlite", "NOT EXISTS"]) == [1, 2, 3, 4, 5, 6]
