"""Dependency workflows (section 5.1.3).

The paper motivates mixed-workload scheduling with a two-stage workflow:
960 one-minute jobs whose outputs feed 240 six-minute jobs.  The second
stage cannot start until the first completes, which turns a smooth
one-job-per-second average into an 8-minute burst at two jobs per second
followed by a 12-minute trickle at 1/3 job per second.

Neither Condor nor CondorJ2 schedules around this (the paper's footnote 6);
the workflow machinery here exists so the experiment drivers can *induce*
the skew and measure how each system copes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.cluster.job import JobSpec

_workflow_ids = itertools.count(1)


@dataclass
class Workflow:
    """A DAG of jobs; edges point from prerequisites to dependents."""

    workflow_id: int = field(default_factory=lambda: next(_workflow_ids))
    name: str = "workflow"
    jobs: List[JobSpec] = field(default_factory=list)

    def add_job(self, job: JobSpec) -> JobSpec:
        """Attach ``job`` to this workflow (stamping its workflow_id)."""
        job.workflow_id = self.workflow_id
        self.jobs.append(job)
        return job

    def job_ids(self) -> Set[int]:
        """All job ids in the workflow."""
        return {job.job_id for job in self.jobs}

    def validate(self) -> None:
        """Check edges reference workflow members and the DAG is acyclic."""
        members = self.job_ids()
        for job in self.jobs:
            for dep in job.depends_on:
                if dep not in members:
                    raise ValueError(
                        f"job {job.job_id} depends on {dep}, not in workflow"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        order = self.topological_order()
        if len(order) != len(self.jobs):
            raise ValueError("workflow contains a dependency cycle")

    def topological_order(self) -> List[JobSpec]:
        """Jobs in an order that respects dependencies (Kahn's algorithm)."""
        by_id: Dict[int, JobSpec] = {job.job_id: job for job in self.jobs}
        indegree: Dict[int, int] = {job.job_id: 0 for job in self.jobs}
        dependents: Dict[int, List[int]] = {job.job_id: [] for job in self.jobs}
        for job in self.jobs:
            for dep in job.depends_on:
                if dep in indegree:
                    indegree[job.job_id] += 1
                    dependents[dep].append(job.job_id)
        ready = [job_id for job_id, degree in indegree.items() if degree == 0]
        order: List[JobSpec] = []
        while ready:
            current = ready.pop(0)
            order.append(by_id[current])
            for dependent in dependents[current]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        return order

    def ready_jobs(self, completed: Set[int]) -> List[JobSpec]:
        """Jobs whose prerequisites are all in ``completed``.

        Callers filter out jobs already submitted/running themselves.
        """
        return [
            job
            for job in self.jobs
            if all(dep in completed for dep in job.depends_on)
        ]


def two_stage_workflow(
    stage1_count: int = 960,
    stage2_count: int = 240,
    stage1_seconds: float = 60.0,
    stage2_seconds: float = 360.0,
    fan_in: int = 4,
    owner: str = "user",
) -> Workflow:
    """The section 5.1.3 workflow: stage-1 outputs feed stage-2 inputs.

    Each stage-2 job depends on ``fan_in`` distinct stage-1 jobs (960/240
    gives the paper's 4:1 ratio).  Total work is 2,400 minutes with a
    two-minute average, exactly the paper's example.
    """
    if stage1_count < stage2_count * fan_in:
        raise ValueError("not enough stage-1 jobs for the requested fan-in")
    workflow = Workflow(name="two-stage")
    stage1 = [
        workflow.add_job(JobSpec(owner=owner, run_seconds=stage1_seconds,
                                 output_files=(f"stage1.{i}.out",)))
        for i in range(stage1_count)
    ]
    for index in range(stage2_count):
        feeders = stage1[index * fan_in:(index + 1) * fan_in]
        workflow.add_job(
            JobSpec(
                owner=owner,
                run_seconds=stage2_seconds,
                depends_on=tuple(job.job_id for job in feeders),
                input_files=tuple(f for job in feeders for f in job.output_files),
            )
        )
    workflow.validate()
    return workflow


def workflow_throughput_profile(
    workflow: Workflow, vm_count: int
) -> List[Tuple[str, float, float]]:
    """Per-stage (label, duration_seconds, jobs_per_second) demand profile.

    For the paper's example on 120 machines this returns an 8-minute phase
    at 2 jobs/s and a 12-minute phase at 1/3 job/s.  Stages are the levels
    of the DAG (jobs grouped by dependency depth).
    """
    depth: Dict[int, int] = {}
    for job in workflow.topological_order():
        if job.depends_on:
            depth[job.job_id] = 1 + max(depth[dep] for dep in job.depends_on)
        else:
            depth[job.job_id] = 0
    levels: Dict[int, List[JobSpec]] = {}
    for job in workflow.jobs:
        levels.setdefault(depth[job.job_id], []).append(job)
    profile: List[Tuple[str, float, float]] = []
    for level in sorted(levels):
        jobs = levels[level]
        total_work = sum(job.run_seconds for job in jobs)
        duration = total_work / vm_count
        rate = len(jobs) / duration if duration > 0 else 0.0
        profile.append((f"stage{level}", duration, rate))
    return profile
