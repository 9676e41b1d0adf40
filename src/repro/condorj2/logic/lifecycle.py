"""Job lifecycle services: acceptMatch, drops, completion.

Table 2, steps 9-15: the startd accepts a match (match tuple deleted, run
tuple inserted, job updated), the starter runs the job, and completion
deletes the run and job tuples.  Completion also performs the
*post-execution processing* the paper highlights in section 5.1.1:
recording history, recording accounting, charging the user, and removing
the job from the operational queue — all inside one transaction.

Completions arrive in batches (a heartbeat carries every event since the
last beat), so :meth:`LifecycleService.complete_jobs` is the primary
path: one validating SELECT over the batch, then one batched statement
per table touched — the statement count is flat in the batch size even
though the cost model still charges per row.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.condorj2.database import Database, RowNotFound, RowStateError
from repro.sim.monitor import EventLog


class LifecycleService:
    """State transitions for matched/running jobs."""

    def __init__(self, db: Database, log: Optional[EventLog] = None):
        self.db = db
        self.log = log if log is not None else EventLog()

    # ------------------------------------------------------------------
    # acceptMatch (steps 9-10)
    # ------------------------------------------------------------------
    def accept_match(self, job_id: int, vm_id: str, now: float) -> dict:
        """The startd accepted a match: match -> run, job -> running."""
        with self.db.transaction():
            matched = self.db.execute(
                "DELETE FROM matches WHERE job_id = ? AND vm_id = ?",
                (job_id, vm_id),
            )
            if matched.rowcount == 0:
                raise RowNotFound(f"no match for job {job_id} on {vm_id}")
            self.db.execute(
                "INSERT INTO runs (job_id, vm_id, started_at) VALUES (?, ?, ?)",
                (job_id, vm_id, now),
            )
            updated = self.db.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1 "
                "WHERE job_id = ? AND state = 'matched'",
                (job_id,),
            )
            if updated.rowcount == 0:
                raise RowStateError(
                    f"jobs[{job_id!r}]: illegal transition to 'running'"
                )
            claimed = self.db.execute(
                "UPDATE vms SET state = 'claiming', last_update = ? "
                "WHERE vm_id = ? AND state = 'idle'",
                (now, vm_id),
            )
            if claimed.rowcount == 0:
                raise RowStateError(
                    f"vms[{vm_id!r}]: cannot claim a non-idle slot"
                )
        self.log.record(now, "job_started", job_id=job_id, vm_id=vm_id)
        return {"job_id": job_id, "vm_id": vm_id, "status": "OK"}

    # ------------------------------------------------------------------
    # drops and vacates
    # ------------------------------------------------------------------
    def report_drop(self, job_id: int, vm_id: str, now: float, reason: str = "") -> None:
        """A start attempt failed; requeue the job, free the VM.

        This is the transactional guarantee of the paper's footnote 7:
        "Ensuring that the job queue manager does not drop jobs is one
        reason why job management requires transactions."
        """
        self.report_drops([(job_id, vm_id, reason)], now)

    def report_drops(
        self, drops: Sequence[Tuple[int, str, str]], now: float
    ) -> None:
        """Requeue a batch of dropped ``(job_id, vm_id, reason)`` tuples.

        A heartbeat carries every drop since the last beat, so like
        :meth:`complete_jobs` this is the primary path: one batched
        statement per table touched (runs, matches, jobs, vms) — four
        dispatches for any batch size — all inside one transaction so
        footnote 7's no-lost-jobs guarantee covers the whole batch.
        """
        if not drops:
            return
        db = self.db
        job_rows = [(job_id,) for job_id, _vm_id, _reason in drops]
        with db.transaction():
            db.executemany("DELETE FROM runs WHERE job_id = ?", job_rows)
            db.executemany("DELETE FROM matches WHERE job_id = ?", job_rows)
            db.executemany(
                "UPDATE jobs SET state = 'idle' "
                "WHERE job_id = ? AND state IN ('matched', 'running')",
                job_rows,
            )
            db.executemany(
                "UPDATE vms SET state = 'idle', last_update = ? "
                "WHERE vm_id = ? AND state IN ('claiming', 'busy')",
                [(now, vm_id) for _job_id, vm_id, _reason in drops],
            )
        for job_id, vm_id, reason in drops:
            self.log.record(
                now, "job_dropped", job_id=job_id, vm_id=vm_id, reason=reason
            )

    # ------------------------------------------------------------------
    # completion (steps 14-15) + post-execution processing
    # ------------------------------------------------------------------
    def complete_jobs(
        self, completions: Sequence[Tuple[int, str]], now: float
    ) -> None:
        """Post-execution processing for a batch of ``(job_id, vm_id)``.

        One validating SELECT over the whole batch, then one batched
        statement per table (runs, job_history, accounting, users, jobs,
        vms) — the statement count is independent of the batch size.
        """
        if not completions:
            return
        db = self.db
        job_ids = [job_id for job_id, _ in completions]
        with db.transaction():
            # json_each keeps the SQL text constant across batch sizes,
            # so the statement stays one prepared-statement-cache entry
            # instead of one per distinct IN-list length.
            rows = db.query_all(
                "SELECT j.job_id, j.owner, j.cmd, j.run_seconds,"
                "       j.submitted_at, j.state, j.attempts, r.started_at"
                " FROM jobs j LEFT JOIN runs r ON r.job_id = j.job_id"
                " WHERE j.job_id IN (SELECT value FROM json_each(?))",
                (json.dumps(job_ids),),
            )
            by_id = {row["job_id"]: row for row in rows}
            for job_id in job_ids:
                job = by_id.get(job_id)
                if job is None:
                    raise RowNotFound(f"jobs[{job_id!r}] not found")
                if job["state"] != "running":
                    raise RowStateError(
                        f"completion for job {job_id} in state {job['state']!r}"
                    )

            history_rows: List[Tuple] = []
            accounting_rows: List[Tuple] = []
            usage_by_owner: Dict[str, float] = {}
            for job_id, vm_id in completions:
                job = by_id[job_id]
                started_at = job["started_at"]
                wall = (
                    (now - started_at) if started_at is not None
                    else job["run_seconds"]
                )
                history_rows.append(
                    (
                        job_id, job["owner"], job["cmd"], job["run_seconds"],
                        job["submitted_at"], started_at, now, vm_id,
                        job["attempts"],
                    )
                )
                accounting_rows.append((job["owner"], job_id, vm_id, wall, now))
                usage_by_owner[job["owner"]] = (
                    usage_by_owner.get(job["owner"], 0.0) + wall
                )

            db.executemany(
                "DELETE FROM runs WHERE job_id = ?", [(j,) for j in job_ids]
            )
            db.executemany(
                """
                INSERT INTO job_history
                    (job_id, owner, cmd, run_seconds, submitted_at,
                     started_at, completed_at, final_state, vm_id, attempts)
                VALUES (?, ?, ?, ?, ?, ?, ?, 'completed', ?, ?)
                """,
                history_rows,
            )
            db.executemany(
                "INSERT INTO accounting (owner, job_id, vm_id, wall_seconds,"
                " recorded_at) VALUES (?, ?, ?, ?, ?)",
                accounting_rows,
            )
            db.executemany(
                "UPDATE users SET accumulated_usage_seconds ="
                " accumulated_usage_seconds + ? WHERE user_name = ?",
                [(wall, owner) for owner, wall in sorted(usage_by_owner.items())],
            )
            # Deleting the job tuple cascades its dependency edges; jobs
            # waiting on it now pass the scheduling pass's anti-join.
            # The whole batch was validated 'running' above, inside this
            # transaction, so the state guards cannot drop rows.
            db.executemany(
                "DELETE FROM jobs WHERE job_id = ? AND state = 'running'",
                [(j,) for j in job_ids]
            )
            db.executemany(
                "UPDATE vms SET state = 'idle', last_update = ? "
                "WHERE vm_id = ? AND state IN ('claiming', 'busy')",
                [(now, vm_id) for _, vm_id in completions],
            )
        for job_id, vm_id in completions:
            self.log.record(now, "job_completed", job_id=job_id, vm_id=vm_id)
