"""Job descriptions and lifecycle states shared by both systems.

A job in the paper's experiments is intentionally simple: a fixed-length
program with an owner, an image size and optional placement constraints.
Both Condor (section 2) and CondorJ2 (section 4) shepherd jobs through the
same conceptual states; the two systems differ in *where* that state lives
(daemon memory + log file vs. database tuples), not in what it is.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class JobState(enum.Enum):
    """Lifecycle of a job in either system."""

    #: Submitted, waiting in a queue for a match.
    IDLE = "idle"
    #: Matched to a virtual machine, not yet running.
    MATCHED = "matched"
    #: Executing on a virtual machine.
    RUNNING = "running"
    #: Finished successfully; post-execution processing done.
    COMPLETED = "completed"
    #: Removed by the user or the system.
    REMOVED = "removed"
    #: Held after repeated failures.
    HELD = "held"


#: States in which a job still needs cluster resources.
ACTIVE_STATES = (JobState.IDLE, JobState.MATCHED, JobState.RUNNING)

_job_ids = itertools.count(1)


def next_job_id() -> int:
    """Allocate a process-wide unique job id (monotonically increasing)."""
    return next(_job_ids)


@dataclass
class JobSpec:
    """Static description of one job, as written in a submit file.

    ``run_seconds`` is the job's intrinsic execution length — the quantity
    the paper varies between 6 seconds and 5 minutes to sweep scheduling
    throughput demand (section 5.2.1).
    """

    job_id: int = field(default_factory=next_job_id)
    owner: str = "user"
    cmd: str = "/bin/science"
    args: Tuple[str, ...] = ()
    run_seconds: float = 60.0
    image_size_mb: int = 16
    requirements: Optional[str] = None
    rank: Optional[str] = None
    depends_on: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.run_seconds <= 0:
            raise ValueError(f"run_seconds must be positive, got {self.run_seconds!r}")
        if self.image_size_mb < 0:
            raise ValueError("image_size_mb cannot be negative")


@dataclass
class JobRecord:
    """Mutable tracking record used by schedulers and experiment drivers."""

    spec: JobSpec
    state: JobState = JobState.IDLE
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    vm_id: Optional[str] = None
    attempts: int = 0
    drops: int = 0

    @property
    def job_id(self) -> int:
        """Shortcut to the underlying spec's id."""
        return self.spec.job_id

    def mark_started(self, time: float, vm_id: str) -> None:
        """Transition to RUNNING on a specific virtual machine."""
        self.state = JobState.RUNNING
        self.start_time = time
        self.vm_id = vm_id
        self.attempts += 1

    def mark_completed(self, time: float) -> None:
        """Transition to COMPLETED."""
        self.state = JobState.COMPLETED
        self.end_time = time

    def mark_dropped(self) -> None:
        """Record a failed start; the job returns to the idle queue."""
        self.drops += 1
        self.state = JobState.IDLE
        self.start_time = None
        self.vm_id = None
