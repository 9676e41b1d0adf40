"""The pool web site: the human-facing interface.

"Users and administrators submit jobs, access standard reports, pose
queries and configure system behavior from anywhere that they have access
to the web" (section 4.1).  The site renders the same logic-layer services
the SOAP interface exposes — "the only difference being the presentation
to the client" — as monospace report pages.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.condorj2.database import DatabaseError
from repro.condorj2.logic import ConfigService, ReportService
from repro.metrics.report import ascii_table


class PoolWebSite:
    """Renders standard report pages from the report/config services."""

    def __init__(self, reports: ReportService, config: ConfigService,
                 gateway=None):
        self.reports = reports
        self.config = config
        #: The service gateway, when per-operation web-service statistics
        #: should appear on the statistics page.
        self.gateway = gateway
        self.page_views: Dict[str, int] = {}

    def _count(self, page: str) -> None:
        self.page_views[page] = self.page_views.get(page, 0) + 1

    def queue_page(self) -> str:
        """The job-queue overview (condor_q for the browser)."""
        self._count("queue")
        summary = self.reports.queue_summary()
        rows = [[state, count] for state, count in sorted(summary.items())]
        return ascii_table(["state", "jobs"], rows, title="Job Queue")

    def pool_page(self) -> str:
        """Machine/VM status overview (condor_status for the browser)."""
        self._count("pool")
        status = self.reports.pool_status()
        rows = [[key, value] for key, value in sorted(status.items())]
        return ascii_table(["metric", "value"], rows, title="Pool Status")

    def user_page(self, owner: str) -> str:
        """Per-user job and usage statistics."""
        self._count("user")
        summary = self.reports.user_summary(owner)
        rows = [[key, value] for key, value in sorted(summary.items())]
        return ascii_table(["metric", "value"], rows, title=f"User {owner}")

    def job_page(self, job_id: int) -> str:
        """Everything known about one job, live or from history."""
        self._count("job")
        detail = self.reports.job_detail(job_id)
        if detail is None:
            return f"Job {job_id}\n(no such job)"
        rows = [[key, value] for key, value in sorted(detail.items())]
        return ascii_table(["field", "value"], rows, title=f"Job {job_id}")

    def accounting_page(self) -> str:
        """Charged usage per user."""
        self._count("accounting")
        rows = self.reports.accounting_by_user()
        return ascii_table(
            ["owner", "jobs", "wall_seconds"],
            [[r["owner"], r["jobs"], round(r["wall_seconds"], 1)] for r in rows],
            title="Accounting",
        )

    def config_page(self, names: List[str]) -> str:
        """Current values for the given policies."""
        self._count("config")
        rows = [[name, self.config.get(name, "(unset)")] for name in names]
        return ascii_table(["policy", "value"], rows, title="Configuration")

    def statistics_page(self) -> str:
        """Per-table statement statistics from the storage engine.

        The admin-console view of :class:`StatementCounts`: actual row
        traffic per table and verb (reads are probes, writes are rows
        really changed), plus the engine-wide dispatch/commit/cache
        figures the cost model prices.
        """
        self._count("statistics")
        db = self.reports.db
        counts = db.counts
        rows = []
        for table in sorted(counts.tables):
            verbs = counts.tables[table]
            rows.append([
                table,
                verbs.get("select", 0),
                verbs.get("insert", 0),
                verbs.get("update", 0),
                verbs.get("delete", 0),
                verbs.get("select", 0) + verbs.get("insert", 0)
                + verbs.get("update", 0) + verbs.get("delete", 0),
            ])
        table_report = ascii_table(
            ["table", "select", "insert", "update", "delete", "total"],
            rows, title="Statement Statistics (rows by table)",
        )
        engine_rows = [
            ["backend", db.engine.name],
            ["statements", counts.statements],
            ["batches", counts.batches],
            ["commits", counts.commits],
            ["row work", counts.total()],
            ["cache hit rate", f"{counts.hit_rate():.3f}"],
        ]
        engine_report = ascii_table(
            ["metric", "value"], engine_rows, title="Storage Engine",
        )
        report = table_report + "\n\n" + engine_report
        durability_report = self._durability_report()
        if durability_report:
            report += "\n\n" + durability_report
        lifecycle_report = self._lifecycle_report()
        if lifecycle_report:
            report += "\n\n" + lifecycle_report
        report += "\n\n" + self._caches_report()
        explain_report = self._hot_plan_report()
        if explain_report:
            report += "\n\n" + explain_report
        operations_report = self._operations_report()
        if operations_report:
            report += "\n\n" + operations_report
        budget_report = self._budget_report()
        if budget_report:
            report += "\n\n" + budget_report
        return report

    def _durability_report(self) -> Optional[str]:
        """The WAL ledger, on backends that keep a write-ahead log
        (the ``wal_stats`` seam)."""
        db = self.reports.db
        wal_stats = getattr(db.engine, "wal_stats", None)
        if wal_stats is None:
            return None
        stats = wal_stats()
        rows = [
            ["log bytes written", stats["stream_bytes"]],
            ["log bytes (file)", stats["wal_bytes"]],
            ["frames written", stats["appends"]],
            ["commit points", stats["fsyncs"]],
            ["checkpoints", stats["checkpoints"]],
        ]
        return ascii_table(["metric", "value"], rows,
                           title="Durability (write-ahead log)")

    def _lifecycle_report(self) -> Optional[str]:
        """The runtime lifecycle-transition ledger, per table and edge.

        Every ``from->to`` edge the storage layer attributed to this
        store's workload, with affected-row counts.  A tier-1 test
        asserts the edges shown here are always a subset of the declared
        machines.
        """
        transitions = self.reports.db.counts.transitions
        rows = []
        for table in sorted(transitions):
            for edge, affected in sorted(transitions[table].items()):
                source, target = edge.split("->", 1)
                rows.append([table, source, target, affected])
        if not rows:
            return None
        return ascii_table(
            ["table", "from", "to", "rows"], rows,
            title="Lifecycle Transitions (observed)",
        )

    def _caches_report(self) -> str:
        """The statement cache: capacity, occupancy and its ledger.
        Equal workloads produce an equal row here on every backend —
        the shared-admission property the differential fuzzer pins."""
        cache = self.reports.db.statement_cache
        counts = self.reports.db.counts
        return ascii_table(
            ["capacity", "entries", "hits", "misses", "evictions", "hit rate"],
            [[cache.capacity, len(cache), counts.plan_hits, counts.plan_misses,
              counts.plan_evictions, f"{counts.hit_rate():.3f}"]],
            title="Statement Cache",
        )

    def _hot_plan_report(self) -> Optional[str]:
        """EXPLAIN for the most-executed cached statement (uncounted)."""
        db = self.reports.db
        entries = db.statement_cache.entries()
        if not entries:
            return None
        hottest = max(entries, key=lambda entry: entry.uses)
        try:
            plan = db.explain(hottest.sql).render()
        except (NotImplementedError, DatabaseError) as exc:
            plan = f"  explain unavailable: {exc}"
        return (f"Hottest Plan ({hottest.uses} uses, "
                f"engine={db.engine.name})\n"
                f"  {hottest.sql}\n" + plan)

    def _operations_report(self) -> Optional[str]:
        """Per-operation gateway meter: calls, faults, latency, charge."""
        if self.gateway is None or not self.gateway.stats:
            return None
        rows = []
        for operation in sorted(self.gateway.stats):
            stats = self.gateway.stats[operation]
            codes = ",".join(
                f"{code}:{count}"
                for code, count in sorted(stats.fault_codes.items())
            )
            rows.append([
                operation,
                stats.calls,
                stats.faults,
                f"{stats.fault_rate:.3f}",
                f"{stats.mean_handler_seconds * 1e6:.0f}",
                f"{stats.sim_seconds:.4f}",
                stats.statements,
                codes or "-",
            ])
        return ascii_table(
            ["operation", "calls", "faults", "fault rate", "mean µs",
             "sim s", "stmts", "fault codes"],
            rows, title="Web-Service Operations",
        )

    def _budget_report(self) -> Optional[str]:
        """Declared statement budgets vs observed per-call peaks.

        The admin-console face of DESIGN.md section 9.2: for every
        operation called so far, the contract's declared dispatch
        ceiling, the worst single call the meter observed, the remaining
        headroom, and how many calls blew the budget (each of which also
        raised ``INTERNAL/budget-exceeded``).
        """
        if self.gateway is None or not self.gateway.stats:
            return None
        rows = []
        for operation in sorted(self.gateway.stats):
            if operation.startswith("("):
                continue  # protocol pseudo-ops have no contract
            stats = self.gateway.stats[operation]
            budget = self.gateway.registry.contract(
                operation).statement_budget
            rows.append([
                operation, budget, stats.max_statements,
                budget - stats.max_statements, stats.budget_overruns,
            ])
        if not rows:
            return None
        return ascii_table(
            ["operation", "budget", "peak stmts", "headroom", "overruns"],
            rows, title="Statement Budgets",
        )
