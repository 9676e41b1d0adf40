"""Job submission services.

"User invokes submit job service on CAS; CAS inserts a job tuple into
database" — Table 2, steps 1-2.  Submission is the simplest illustration
of the coarse/fine granularity split: one coarse ``submit_jobs`` call maps
to a handful of *batched* statements inside a single transaction — one
batch for the owners, one for the job tuples, one for the dependency
edges — rather than a round trip per job.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.job import JobSpec
from repro.condorj2.database import Database, RowNotFound, RowStateError

#: OR IGNORE: a duplicate id in a spec's depends_on tuple is harmless
#: (the edge set is what gates scheduling), and must not abort the batch.
_DEPENDENCY_INSERT_SQL = (
    "INSERT OR IGNORE INTO job_dependencies (job_id, depends_on_job_id) "
    "VALUES (?, ?)"
)


class SubmissionService:
    """Coarse-grained submission operations."""

    def __init__(self, db: Database):
        self.db = db

    def submit_job(self, spec: JobSpec, now: float) -> int:
        """Insert one job tuple; returns the job id."""
        return self.submit_jobs([spec], now)[0]

    def submit_jobs(self, specs: Sequence[JobSpec], now: float) -> List[int]:
        """Insert a batch of jobs in one transaction (one submit call).

        Three batched statements regardless of batch size: owners, job
        tuples, dependency edges.
        """
        if not specs:
            return []
        db = self.db
        with db.transaction():
            owners = sorted({spec.owner for spec in specs})
            db.executemany(
                "INSERT OR IGNORE INTO users (user_name, created_at) VALUES (?, ?)",
                [(owner, now) for owner in owners],
            )
            db.executemany(
                "INSERT INTO jobs (job_id, owner, cmd, args, state, "
                "run_seconds, image_size_mb, requirements, rank, "
                "submitted_at, attempts) "
                "VALUES (?, ?, ?, ?, 'idle', ?, ?, ?, ?, ?, 0)",
                [
                    (spec.job_id, spec.owner, spec.cmd, " ".join(spec.args),
                     spec.run_seconds, spec.image_size_mb,
                     spec.requirements, spec.rank, now)
                    for spec in specs
                ],
            )
            edges = [
                (spec.job_id, dep) for spec in specs for dep in spec.depends_on
            ]
            if edges:
                db.executemany(_DEPENDENCY_INSERT_SQL, edges)
        return [spec.job_id for spec in specs]

    def remove_job(self, job_id: int) -> None:
        """User-initiated removal of a queued (not running) job."""
        db = self.db
        with db.transaction():
            db.execute("DELETE FROM matches WHERE job_id = ?", (job_id,))
            removed = db.execute(
                "DELETE FROM jobs WHERE job_id = ? "
                "AND state IN ('idle', 'matched')",
                (job_id,),
            )
            if removed.rowcount == 0:
                # Guard miss: only this path pays the disambiguating
                # SELECT, and raising rolls the match delete back.
                state = db.scalar(
                    "SELECT state FROM jobs WHERE job_id = ?", (job_id,)
                )
                if state is None:
                    raise RowNotFound(f"jobs[{job_id!r}] not found")
                raise RowStateError(
                    f"cannot remove job {job_id} in state {state!r}"
                )
