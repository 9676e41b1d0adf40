"""The set-oriented scheduling pass.

Table 2, steps 5-6: "CAS selects relevant machine tuples, job tuples from
database for scheduling algorithm; CAS inserts match tuple, updates related
job tuple in db."

Where Condor's negotiator pulls every ad into memory and iterates, the
CondorJ2 scheduler is **at most three SQL statements at any queue
length, their cost governed by indexes, by the number of users and by
what the pass places, not by the queue's length** — that difference is
exactly why Figure 13's collapse (Condor) has no CondorJ2 counterpart.
One probe counts the free slots and stops the pass when there is no
idle job or no free slot, so an idle or saturated pool pays for nothing
else; one ``INSERT INTO matches ... SELECT`` pairs the ranked idle VMs
with the ranked eligible jobs via window functions, probing the index
once per user and reading each owner's idle jobs only up to that
owner's ``:limit``-th eligible one; and one set ``UPDATE`` flips the
matched jobs' state.  There is no Python loop over jobs or VMs anywhere
in the pass.  The machine side is ``vms`` alone: a machine row is born
``alive`` and never leaves it, and the ``vms.machine_name`` foreign key
already guarantees the row, so no statement of the pass reads
``machines``.

Jobs are matched FIFO within user priority; a dependency edge in
``job_dependencies`` holds a job back while its prerequisite is still
live in ``jobs`` (completed jobs move to ``job_history``), expressed as
a single indexed anti-join rather than a per-job subquery.
"""

from __future__ import annotations

from typing import List

from repro.condorj2.database import Database

#: The slots a pass may fill: idle VMs that no match or run already
#: holds.  The probe counts this relation and the INSERT ranks it, so the
#: two cannot drift apart.
_FREE_SLOTS_SQL = """
    FROM vms v
    WHERE v.state = 'idle'
      AND NOT EXISTS (SELECT 1 FROM matches mt WHERE mt.vm_id = v.vm_id)
      AND NOT EXISTS (SELECT 1 FROM runs r WHERE r.vm_id = v.vm_id)
"""

#: The gate: the free-slot count, and no row at all while no job is
#: idle — an empty queue is answered from ``idx_jobs_state_owner``
#: without touching ``vms``.  Both halves are necessary conditions of
#: MATCH_INSERT_SQL's own WHERE clauses, so a pass they stop would have
#: inserted nothing.
PASS_PROBE_SQL = """
SELECT (
    SELECT COUNT(*)""" + _FREE_SLOTS_SQL + """) AS free_slots
WHERE EXISTS (SELECT 1 FROM jobs WHERE state = 'idle')
"""

#: The entire scheduling pass, as one set-oriented statement.  Both
#: ranked sides are numbered with ROW_NUMBER over their scheduling order
#: and joined on the slot number, so the i-th best job lands on the i-th
#: idle VM — the relational form of the old Python ``zip``.  ``:limit``
#: is the probe's free-slot count: neither side ranks past it.
#:
#: The job side is one index walk per owner, not a ranking of the queue.
#: The global top ``:limit`` by (priority, job_id) lies within the union
#: of every owner's first ``:limit`` eligible jobs by job_id — within one
#: owner the priority is one value — so each owner's walk of
#: ``idx_jobs_state_owner`` stops at that owner's ``:limit``-th eligible
#: job_id, or runs to the end when the owner has fewer.  CROSS JOIN keeps
#: ``users`` the outer loop on SQLite, and ON hands both engines the
#: whole access path: the (state, owner) probe and its job_id bound.
#: Every registered user costs one probe, idle jobs or none, so this is
#: the cheaper plan while the queue is deeper than ``users`` is long
#: (DESIGN.md §5.2).
MATCH_INSERT_SQL = """
INSERT INTO matches (job_id, vm_id, created_at)
SELECT ranked_jobs.job_id, ranked_vms.vm_id, :now
FROM (
    SELECT v.vm_id,
           ROW_NUMBER() OVER (ORDER BY v.vm_id) AS slot""" + _FREE_SLOTS_SQL + """
    ORDER BY v.vm_id
    LIMIT :limit
) AS ranked_vms
JOIN (
    SELECT j.job_id,
           ROW_NUMBER() OVER (ORDER BY u.priority ASC, j.job_id ASC) AS slot
    FROM users u
    CROSS JOIN jobs j
      ON j.state = 'idle'
     AND j.owner = u.user_name
     AND j.job_id <= COALESCE((
          SELECT c.job_id
          FROM jobs c
          WHERE c.state = 'idle'
            AND c.owner = u.user_name
            AND NOT EXISTS (
                SELECT 1
                FROM job_dependencies d
                JOIN jobs p ON p.job_id = d.depends_on_job_id
                WHERE d.job_id = c.job_id
            )
          ORDER BY c.job_id
          LIMIT 1 OFFSET :limit - 1
      ), 9223372036854775807)
    WHERE NOT EXISTS (
          SELECT 1
          FROM job_dependencies d
          JOIN jobs p ON p.job_id = d.depends_on_job_id
          WHERE d.job_id = j.job_id
      )
    ORDER BY u.priority ASC, j.job_id ASC
    LIMIT :limit
) AS ranked_jobs ON ranked_jobs.slot = ranked_vms.slot
"""

#: Flip every job the INSERT just claimed.  The state guard makes the
#: statement exact: a job present in ``matches`` and still 'idle' is by
#: construction one the current pass created.  The unary plus keeps the
#: guard out of SQLite's access-path choice, so the statement is driven
#: from ``matches`` (at most one row per VM) through the jobs primary
#: key instead of walking every idle job.
MATCH_UPDATE_SQL = """
UPDATE jobs SET state = 'matched'
WHERE +state = 'idle'
  AND job_id IN (SELECT job_id FROM matches)
"""


class SchedulingService:
    """Creates match tuples pairing idle jobs with idle VMs."""

    def __init__(self, db: Database):
        self.db = db
        self.passes = 0
        self.matches_created = 0

    def run_pass(self, now: float) -> int:
        """One scheduling pass; returns the number of matches created.

        Executes O(1) SQL statements regardless of queue length or pool
        size: one probe; when it finds an idle job and a free slot, one
        set-oriented INSERT bound to the free-slot count; and one set
        UPDATE when the INSERT claimed anything.  A pass the probe stops
        opens no transaction.
        """
        self.passes += 1
        db = self.db
        free_slots = db.scalar(PASS_PROBE_SQL)
        if not free_slots:
            return 0
        with db.transaction():
            cursor = db.execute(
                MATCH_INSERT_SQL, {"now": now, "limit": free_slots}
            )
            created = cursor.rowcount
            if created:
                db.execute(MATCH_UPDATE_SQL)
        self.matches_created += created
        return created

    def pending_matches_for_machine(self, machine_name: str) -> List[dict]:
        """MATCHINFO payload for one machine's VMs (Table 2, step 8)."""
        rows = self.db.query_all(
            """
            SELECT mt.job_id, mt.vm_id, j.cmd, j.args, j.run_seconds, j.owner
            FROM matches mt
            JOIN vms v ON v.vm_id = mt.vm_id
            JOIN jobs j ON j.job_id = mt.job_id
            WHERE v.machine_name = ?
            """,
            (machine_name,),
        )
        return [dict(row) for row in rows]
