"""Planner, compiled-plan cache and EXPLAIN tests.

Four concerns, matching the planner layer's contracts (DESIGN.md):

* unit tests for the pure planning rules in ``storage.planner`` —
  cardinality estimates, driver choice (stable on ties), join
  reordering for order-free contexts, EXISTS decorrelation accept and
  reject cases, and ROW_NUMBER/ORDER BY/LIMIT fusion detection;
* plan-cache semantics — a plan served from the cache returns exactly
  the rows a cold compile returns, both backends admit identically
  (equal ``StatementCounts`` ledgers), and repeated scheduling passes
  converge to a ≈100% hit rate (the perf property the compiled-plan
  cache exists for);
* ``engine.explain`` on both backends — a :class:`PlanNode` tree that
  renders, profiled execution on the memory engine reporting actual
  row counts, and profiled DML always rolled back and uncounted;
* semi-join NULL semantics — the decorrelated EXISTS probe must agree
  with SQLite when correlation keys are NULL on either side, including
  past the adaptive build threshold.
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


class TestOrderSourcesByCardinality:
    OWN = {"a": ["x", "k"], "b": ["y", "k"]}

    def _parse(self, sql):
        return sp.parse(sql)

    def test_reorders_smallest_first(self):
        select = self._parse(
            "SELECT a.x FROM big a JOIN small b ON b.k = a.k")
        result = pl.order_sources_by_cardinality(
            select.sources, sp.split_conjuncts(select.where),
            self.OWN, {"a": 10_000.0, "b": 2.0})
        assert result is not None
        sources, conjuncts = result
        assert [src.alias for src in sources] == ["b", "a"]
        # The ON conjunct is re-attached so the plan stays an eq join.
        assert len(conjuncts) + sum(
            len(sp.split_conjuncts(src.on)) for src in sources) == 1

    def test_already_optimal_returns_none(self):
        select = self._parse(
            "SELECT a.x FROM small a JOIN big b ON b.k = a.k")
        assert pl.order_sources_by_cardinality(
            select.sources, [], self.OWN,
            {"a": 2.0, "b": 10_000.0}) is None

    def test_left_join_is_not_reorderable(self):
        select = self._parse(
            "SELECT a.x FROM big a LEFT JOIN small b ON b.k = a.k")
        assert pl.order_sources_by_cardinality(
            select.sources, [], self.OWN,
            {"a": 10_000.0, "b": 2.0}) is None

    def test_outer_reference_leaves_order_alone(self):
        select = self._parse(
            "SELECT a.x FROM big a JOIN small b ON b.k = a.k "
            "WHERE a.k = outer_t.k")
        assert pl.order_sources_by_cardinality(
            select.sources, sp.split_conjuncts(select.where),
            self.OWN, {"a": 10_000.0, "b": 2.0}) is None


class TestDecorrelateExists:
    OWN = {"d": ["job_id", "kind"]}

    def _sub(self, sql):
        return sp.parse(sql)

    def test_accepts_simple_correlation(self):
        sub = self._sub(
            "SELECT 1 FROM deps d WHERE d.job_id = j.job_id "
            "AND d.kind = 'hard'")
        deco = pl.decorrelate_exists(sub, self.OWN)
        assert deco is not None
        assert len(deco.pairs) == 1
        local, outer = deco.pairs[0]
        assert isinstance(local, sp.Col) and local.name == "job_id"
        assert isinstance(outer, sp.Col) and outer.table == "j"
        # The local-only conjunct stays as the build side's residual.
        build = deco.build_select
        assert build.where is not None
        assert len(build.items) == 1

    def test_rejects_non_equality_correlation(self):
        sub = self._sub("SELECT 1 FROM deps d WHERE d.job_id < j.job_id")
        assert pl.decorrelate_exists(sub, self.OWN) is None

    def test_rejects_both_sides_outer(self):
        # `j.state = j.kind` references only outer columns on both
        # sides: no probeable key, so decorrelation must decline.
        sub = self._sub(
            "SELECT 1 FROM deps d WHERE d.job_id = j.job_id "
            "AND j.state = j.kind")
        assert pl.decorrelate_exists(sub, self.OWN) is None

    def test_constant_side_becomes_a_constant_key(self):
        # `j.state = 'idle'` is outer = column-free: the literal builds
        # a constant key column, the outer column probes it — NULL
        # probes still fail, exactly SQL's `NULL = x`.
        sub = self._sub(
            "SELECT 1 FROM deps d WHERE d.job_id = j.job_id "
            "AND j.state = 'idle'")
        deco = pl.decorrelate_exists(sub, self.OWN)
        assert deco is not None
        assert len(deco.pairs) == 2

    def test_rejects_uncorrelated(self):
        sub = self._sub("SELECT 1 FROM deps d WHERE d.kind = 'hard'")
        assert pl.decorrelate_exists(sub, self.OWN) is None

    @pytest.mark.parametrize("clause", [
        "LIMIT 1", "GROUP BY d.kind", "ORDER BY d.job_id",
    ])
    def test_rejects_existence_changing_clauses(self, clause):
        sub = self._sub(
            f"SELECT 1 FROM deps d WHERE d.job_id = j.job_id {clause}")
        assert pl.decorrelate_exists(sub, self.OWN) is None

    def test_row_counts_reorder_build_side(self):
        own = {"d": ["job_id"], "p": ["job_id", "state"]}
        sub = self._sub(
            "SELECT 1 FROM big d JOIN small p ON p.job_id = d.job_id "
            "WHERE d.job_id = j.job_id")
        deco = pl.decorrelate_exists(
            sub, own, row_counts={"d": 50_000.0, "p": 3.0})
        assert deco is not None
        assert [src.alias for src in deco.build_select.sources] == \
            ["p", "d"]


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
# semi-join NULL semantics (decorrelated EXISTS vs SQLite)
# ----------------------------------------------------------------------

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
        * 5,  # 20 rows: enough probes to cross the adaptive threshold
    )
    return db


@pytest.mark.parametrize("negated", [False, True])
def test_semi_join_null_probe_matches_sqlite(negated):
    """EXISTS correlated on a nullable column: NULL probe keys never
    match, NULL build keys never admit — identically on both engines,
    before and after the adaptive build threshold."""
    word = "NOT EXISTS" if negated else "EXISTS"
    sql = (
        "SELECT j.job_id FROM jobs j WHERE " + word + " ("
        "SELECT 1 FROM jobs o WHERE o.requirements = j.requirements "
        "AND o.state = 'held') ORDER BY j.job_id"
    )
    rows = {}
    for backend in BACKENDS:
        db = _null_key_fixture(backend)
        rows[backend] = [tuple(r) for r in db.query_all(sql)]
    assert rows["sqlite"] == rows["memory"]


def test_semi_join_empty_build_side_matches_sqlite():
    """All build-side keys NULL: EXISTS is false (NOT EXISTS true) for
    every probe, including NULL probes."""
    sql = (
        "SELECT j.job_id FROM jobs j WHERE NOT EXISTS ("
        "SELECT 1 FROM jobs o WHERE o.requirements = j.requirements "
        "AND o.state = 'removed') ORDER BY j.job_id"
    )
    rows = {}
    for backend in BACKENDS:
        db = _null_key_fixture(backend)
        rows[backend] = [tuple(r) for r in db.query_all(sql)]
    assert rows["sqlite"] == rows["memory"]
    # NOT EXISTS over an empty set keeps every row.
    assert len(rows["sqlite"]) == 20
