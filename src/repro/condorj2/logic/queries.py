"""Monitoring and reporting queries.

One of the paper's core complaints about process-centric systems is that
"efficiently accessing and manipulating this data is often difficult or
impossible" — querying a Condor pool means asking each daemon for its
in-memory slice.  In CondorJ2 every question is a SQL query; this module
collects the standard reports the pool web site and web services expose.

The two reads a monitoring client polls while the queue grows read no
job row (DESIGN.md §5.3, "Monitoring reads").  ``queue_summary`` counts
the whole table from its B-tree (SQLite's ``Count`` opcode, the memory
engine's row count) and subtracts the small states, each a range of
``idx_jobs_state_owner``: flat in queue length.  ``user_summary`` counts
the owner's idle and running jobs inside that covering index: the size
of one bucket on the memory engine, a walk of the owner's range of index
entries on SQLite.  Its ``job_history`` count still reads the owner's
whole history on both.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.condorj2.database import Database


#: Jobs per state in one row.  ``total`` is the table's size, which
#: SQLite reads from a B-tree without visiting a row; each other count is
#: one range of ``idx_jobs_state_owner``, bounded by the slots, never by
#: the queue.  ``state`` is NOT NULL and CHECKed to three values, so idle
#: is exactly the total less the two listed here — every state of the
#: CHECK domain but idle.
QUEUE_SUMMARY_SQL = """
SELECT (SELECT COUNT(*) FROM jobs) AS total,
       (SELECT COUNT(*) FROM jobs WHERE state = 'matched') AS matched,
       (SELECT COUNT(*) FROM jobs WHERE state = 'running') AS running
"""

#: One owner's idle and running jobs, each counted inside the covering
#: ``idx_jobs_state_owner`` on its (state, owner) prefix: no row of the
#: base table is read.
USER_QUEUE_SQL = """
SELECT (SELECT COUNT(*) FROM jobs
        WHERE state = 'idle' AND owner = :owner) AS idle,
       (SELECT COUNT(*) FROM jobs
        WHERE state = 'running' AND owner = :owner) AS running
"""


class ReportService:
    """Read-only queries over the operational and historical tables."""

    def __init__(self, db: Database):
        self.db = db

    def queue_summary(self) -> Dict[str, int]:
        """Jobs per state (the condor_q equivalent): the states that
        hold a job, in name order, and always idle, matched, running."""
        counts = dict(self.db.query_one(QUEUE_SUMMARY_SQL))
        counts["idle"] = counts.pop("total") - sum(counts.values())
        summary = {state: n for state, n in sorted(counts.items()) if n}
        summary.setdefault("idle", 0)
        summary.setdefault("matched", 0)
        summary.setdefault("running", 0)
        return summary

    def pool_status(self) -> Dict[str, Any]:
        """The condor_status equivalent: machines, VMs, load."""
        machines = self.db.query_one(
            "SELECT COUNT(*) AS total, "
            "SUM(CASE WHEN state='alive' THEN 1 ELSE 0 END) AS alive FROM machines"
        )
        vms = self.db.query_all("SELECT state, COUNT(*) AS n FROM vms GROUP BY state")
        vm_states = {row["state"]: row["n"] for row in vms}
        return {
            "machines_total": machines["total"] or 0,
            "machines_alive": machines["alive"] or 0,
            "vms_idle": vm_states.get("idle", 0),
            "vms_busy": vm_states.get("busy", 0) + vm_states.get("claiming", 0),
            "matches_pending": self.db.scalar("SELECT COUNT(*) FROM matches"),
            "runs_in_flight": self.db.scalar("SELECT COUNT(*) FROM runs"),
        }

    def user_summary(self, owner: str) -> Dict[str, Any]:
        """Per-user queue and usage statistics."""
        queued = self.db.query_one(USER_QUEUE_SQL, {"owner": owner})
        completed = self.db.scalar(
            "SELECT COUNT(*) FROM job_history WHERE owner = ?", (owner,)
        )
        usage = self.db.scalar(
            "SELECT accumulated_usage_seconds FROM users WHERE user_name = ?", (owner,)
        )
        return {
            "owner": owner,
            "idle": queued["idle"],
            "running": queued["running"],
            "completed": completed or 0,
            "usage_seconds": usage or 0.0,
        }

    def job_detail(self, job_id: int) -> Optional[Dict[str, Any]]:
        """Everything known about one job, live or historical."""
        live = self.db.query_one("SELECT * FROM jobs WHERE job_id = ?", (job_id,))
        if live is not None:
            detail = dict(live)
            detail["source"] = "queue"
            return detail
        historical = self.db.query_one(
            "SELECT * FROM job_history WHERE job_id = ?", (job_id,)
        )
        if historical is not None:
            detail = dict(historical)
            detail["source"] = "history"
            return detail
        return None

    def accounting_by_user(self) -> List[Dict[str, Any]]:
        """Total charged wall-seconds per user."""
        rows = self.db.query_all(
            """
            SELECT owner, COUNT(*) AS jobs, SUM(wall_seconds) AS wall_seconds
            FROM accounting GROUP BY owner ORDER BY owner
            """
        )
        return [dict(row) for row in rows]
