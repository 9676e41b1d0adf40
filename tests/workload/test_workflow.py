"""Tests of section 5.1.3's two-stage workflow.

The paper's example is 960 one-minute jobs whose outputs feed 240
six-minute jobs, each stage-2 job waiting on four stage-1 jobs.  It is
built here from plain ``JobSpec`` dependencies: its arithmetic is checked
through the workload helpers, and its gating through the database, where
``job_dependencies`` and the scheduling pass's anti-join hold a job back
while any job it depends on is still in ``jobs``.
"""

import pytest

from repro.cluster import JobSpec
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.workload import (
    average_job_seconds,
    optimal_makespan_seconds,
    scheduling_throughput_demand,
    total_work_seconds,
)


def two_stage(stage1_count=960, stage2_count=240, fan_in=4,
              stage1_seconds=60.0, stage2_seconds=360.0):
    """Stage-1 and stage-2 specs; stage-2 job ``i`` depends on stage-1
    jobs ``i*fan_in .. (i+1)*fan_in - 1``."""
    stage1 = [JobSpec(run_seconds=stage1_seconds) for _ in range(stage1_count)]
    stage2 = [
        JobSpec(run_seconds=stage2_seconds,
                depends_on=tuple(job.job_id for job in
                                 stage1[i * fan_in:(i + 1) * fan_in]))
        for i in range(stage2_count)
    ]
    return stage1, stage2


@pytest.fixture
def services():
    db = Database()
    submission = SubmissionService(db)
    scheduling = SchedulingService(db)
    lifecycle = LifecycleService(db)
    heartbeat = HeartbeatService(db, scheduling, lifecycle)
    yield db, submission, scheduling, lifecycle, heartbeat
    db.close()


def register_machine(heartbeat, vm_count):
    heartbeat.register_machine({"name": "m1", "vm_count": vm_count}, 0.0)


def matched_ids(db):
    return sorted(row["job_id"] for row in
                  db.query_all("SELECT job_id FROM matches"))


def run_one_pass(db, scheduling, lifecycle, now):
    """Match, accept and complete everything one pass claims; return the
    claimed job ids."""
    scheduling.run_pass(now=now)
    claimed = [(row["job_id"], row["vm_id"]) for row in
               db.query_all("SELECT job_id, vm_id FROM matches")]
    for job_id, vm_id in claimed:
        lifecycle.accept_match(job_id, vm_id, now=now + 1.0)
    lifecycle.complete_jobs(claimed, now=now + 2.0)
    return [job_id for job_id, _ in claimed]


def test_two_stage_counts_match_paper_example(services):
    db, submission, *_ = services
    stage1, stage2 = two_stage()
    submission.submit_jobs(stage1 + stage2, now=0.0)
    assert db.table_count("jobs") == 960 + 240
    assert db.table_count("job_dependencies") == 240 * 4
    fan_ins = db.query_all(
        "SELECT job_id, COUNT(*) AS n FROM job_dependencies GROUP BY job_id")
    assert len(fan_ins) == 240
    assert {row["job_id"] for row in fan_ins} == {job.job_id for job in stage2}
    assert all(row["n"] == 4 for row in fan_ins)


def test_two_stage_total_work_is_2400_minutes():
    stage1, stage2 = two_stage()
    jobs = stage1 + stage2
    assert total_work_seconds(jobs) == pytest.approx(2400 * 60.0)
    assert average_job_seconds(jobs) == pytest.approx(2 * 60.0)


def test_throughput_profile_matches_paper_numbers():
    """Section 5.1.3: on 120 machines the workflow needs 2 jobs/s for
    8 minutes, then 1/3 job/s for 12 minutes."""
    stage1, stage2 = two_stage()
    assert optimal_makespan_seconds(stage1, 120) == pytest.approx(8 * 60.0)
    assert scheduling_throughput_demand(
        120, average_job_seconds(stage1)) == pytest.approx(2.0)
    assert optimal_makespan_seconds(stage2, 120) == pytest.approx(12 * 60.0)
    assert scheduling_throughput_demand(
        120, average_job_seconds(stage2)) == pytest.approx(1.0 / 3.0)


def test_topological_order_respects_dependencies(services):
    db, submission, scheduling, lifecycle, heartbeat = services
    register_machine(heartbeat, vm_count=4)
    stage1, stage2 = two_stage(stage1_count=8, stage2_count=2)
    submission.submit_jobs(stage1 + stage2, now=0.0)
    pass_of = {}
    for number in range(6):
        for job_id in run_one_pass(db, scheduling, lifecycle,
                                   now=10.0 * (number + 1)):
            pass_of[job_id] = number
    assert db.table_count("jobs") == 0
    assert len(pass_of) == 10
    for job in stage2:
        for dep in job.depends_on:
            assert pass_of[dep] < pass_of[job.job_id]


def test_ready_jobs_gate_on_completion(services):
    db, submission, scheduling, lifecycle, heartbeat = services
    register_machine(heartbeat, vm_count=5)
    stage1, (child,) = two_stage(stage1_count=4, stage2_count=1)
    submission.submit_jobs(stage1 + [child], now=0.0)
    scheduling.run_pass(now=1.0)
    claimed = {row["job_id"]: row["vm_id"] for row in
               db.query_all("SELECT job_id, vm_id FROM matches")}
    assert sorted(claimed) == sorted(job.job_id for job in stage1)
    for job_id, vm_id in claimed.items():
        lifecycle.accept_match(job_id, vm_id, now=2.0)
    first_three = [(job.job_id, claimed[job.job_id]) for job in stage1[:3]]
    lifecycle.complete_jobs(first_three, now=3.0)
    scheduling.run_pass(now=4.0)
    assert child.job_id not in matched_ids(db)
    last = stage1[3].job_id
    lifecycle.complete_jobs([(last, claimed[last])], now=5.0)
    scheduling.run_pass(now=6.0)
    assert matched_ids(db) == [child.job_id]


def test_dependency_cycle_never_matches(services):
    """Nothing rejects a cycle at submission: its members wait on each
    other and stay idle, while a job outside it is matched."""
    db, submission, scheduling, _, heartbeat = services
    register_machine(heartbeat, vm_count=3)
    a = JobSpec()
    b = JobSpec(depends_on=(a.job_id,))
    a.depends_on = (b.job_id,)
    free = JobSpec()
    submission.submit_jobs([a, b, free], now=0.0)
    assert scheduling.run_pass(now=1.0) == 1
    assert matched_ids(db) == [free.job_id]
    assert scheduling.run_pass(now=2.0) == 0


def test_removed_parent_releases_its_dependents(services):
    """The gate is a parent still in ``jobs``: removing a queued parent
    lets its child run, though the child's edge to it remains."""
    db, submission, scheduling, _, heartbeat = services
    register_machine(heartbeat, vm_count=2)
    parent = JobSpec()
    child = JobSpec(depends_on=(parent.job_id,))
    submission.submit_jobs([parent, child], now=0.0)
    submission.remove_job(parent.job_id)
    assert db.table_count("job_dependencies") == 1
    assert scheduling.run_pass(now=1.0) == 1
    assert matched_ids(db) == [child.job_id]
