"""Tests for the pool web site, including the per-table statement
statistics page (the admin-console view of ``StatementCounts``)."""

import pytest

from repro.cluster import JobSpec
from repro.condorj2.beans import BeanContainer
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    ReportService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.web.site import PoolWebSite

BACKENDS = ("sqlite", "memory", "wal")


@pytest.fixture(params=BACKENDS)
def stack(request):
    container = BeanContainer(Database(backend=request.param))
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)
    reports = ReportService(container.db)
    config = ConfigService(container)
    site = PoolWebSite(reports, config)
    return container, submission, scheduling, heartbeat, site


def test_statistics_page_reports_per_table_traffic(stack):
    container, submission, scheduling, heartbeat, site = stack
    heartbeat.register_machine({"name": "m1", "vm_count": 2}, 0.0)
    submission.submit_jobs([JobSpec(), JobSpec()], now=1.0)
    scheduling.run_pass(now=2.0)
    page = site.statistics_page()
    assert "Statement Statistics" in page
    for table in ("jobs", "vms", "machines", "matches", "users"):
        assert table in page
    assert "Storage Engine" in page
    assert container.db.engine.name in page
    assert site.page_views["statistics"] == 1
    # the page reflects the ledger: match rows were actually written
    assert container.db.counts.table_writes("matches") == 2


def test_statistics_page_counts_reads_and_writes_separately(stack):
    container, submission, _, heartbeat, site = stack
    heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
    before_writes = container.db.counts.table_writes("machines")
    container.db.query_all("SELECT * FROM machines")
    container.db.query_all("SELECT * FROM machines")
    assert container.db.counts.table_writes("machines") == before_writes
    verbs = container.db.counts.tables["machines"]
    assert verbs.get("select", 0) >= 2
    page = site.statistics_page()
    assert "machines" in page


def test_standard_pages_render_on_both_backends(stack):
    container, submission, scheduling, heartbeat, site = stack
    heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
    job_id = submission.submit_job(JobSpec(owner="alice"), now=1.0)
    scheduling.run_pass(now=2.0)
    assert "Job Queue" in site.queue_page()
    assert "Pool Status" in site.pool_page()
    assert "alice" in site.user_page("alice")
    assert str(job_id) in site.job_page(job_id)
    assert "Accounting" in site.accounting_page()
    assert "Configuration" in site.config_page(["scheduling_interval_seconds"])


def test_statistics_page_durability_panel(stack):
    """The WAL backend's statistics page shows the durability ledger;
    engines without a write-ahead log render no such panel."""
    container, submission, _, heartbeat, site = stack
    heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
    submission.submit_jobs([JobSpec()], now=1.0)
    page = site.statistics_page()
    if container.db.engine.name == "wal":
        assert "Durability (write-ahead log)" in page
        assert "commit points" in page
        stats = container.db.engine.wal_stats()
        assert stats["appends"] > 0
        assert str(stats["appends"]) in page
    else:
        assert "Durability" not in page


def test_statistics_page_transition_ledger_panel(stack):
    """The statistics page renders the runtime transition ledger (the
    observed lifecycle edges) next to the durability panel."""
    container, submission, scheduling, heartbeat, site = stack
    assert "Lifecycle Transitions" not in site.statistics_page()
    heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
    submission.submit_jobs([JobSpec(owner="alice")], now=1.0)
    scheduling.run_pass(now=2.0)
    page = site.statistics_page()
    assert "Lifecycle Transitions (observed)" in page
    assert "(new)" in page  # creation edges out of the BORN pseudo-state
    edges = container.db.counts.transitions
    assert edges["jobs"].get("(new)->idle") == 1
    assert edges["jobs"].get("idle->matched") == 1
    assert edges["machines"].get("(new)->alive") == 1


def test_statistics_page_cache_panel_is_one_row(stack):
    """There is one statement cache, so the panel has one row, and it
    shows the same ledger ``StatementCounts`` carries."""
    container, submission, scheduling, heartbeat, site = stack
    heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
    submission.submit_jobs([JobSpec()], now=1.0)
    scheduling.run_pass(now=2.0)
    panel = site._caches_report()
    assert "Statement Cache" in panel
    assert "compiled plans" not in panel and "prepared" not in panel
    cache, counts = container.db.statement_cache, container.db.counts
    assert counts.plan_hits > 0 and counts.plan_misses == len(cache)
    figures = [str(cache.capacity), str(len(cache)), str(counts.plan_hits),
               str(counts.plan_misses), str(counts.plan_evictions),
               f"{counts.hit_rate():.3f}"]
    data_rows = [line.split() for line in panel.splitlines()
                 if line.split()[:1] == figures[:1]]
    assert data_rows == [figures]
    assert panel in site.statistics_page()


def test_hot_plan_panel_explains_or_says_why_not(stack, monkeypatch):
    """The hottest-statement panel renders the engine's plan, and an
    engine that cannot explain yields a visible line, not a missing
    panel; anything else (a bug) is not swallowed."""
    container, _, _, heartbeat, site = stack
    assert site._hot_plan_report() is None  # nothing cached yet
    heartbeat.register_machine({"name": "m1", "vm_count": 1}, 0.0)
    for _ in range(5):
        container.db.query_all("SELECT user_name FROM users")
    panel = site._hot_plan_report()
    assert panel.startswith("Hottest Plan (5 uses, engine=")
    assert "SELECT user_name FROM users" in panel

    engine = container.db.engine
    rejection = engine.ENGINE_ERRORS[0]("no plan for you")
    for error, shown in (
        (NotImplementedError("no EXPLAIN here"), "no EXPLAIN here"),
        (rejection, "no plan for you"),
    ):
        def explain(sql, params=None, error=error):
            raise error
        monkeypatch.setattr(engine, "explain", explain)
        panel = site._hot_plan_report()
        assert panel.startswith("Hottest Plan (5 uses, engine=")
        assert f"explain unavailable: {shown}" in panel
        assert panel in site.statistics_page()

    def broken(sql, params=None):
        raise KeyError("a bug, not a rejection")
    monkeypatch.setattr(engine, "explain", broken)
    with pytest.raises(KeyError):
        site._hot_plan_report()
