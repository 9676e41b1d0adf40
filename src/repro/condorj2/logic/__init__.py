"""The application-logic layer: coarse-grained services over the store.

"This 'granularity mismatch' is resolved in an application logic layer
that wraps the persistence layer ... All interaction with the system goes
through this application logic layer" (section 4.1).
"""

from repro.condorj2.logic.config import ConfigService
from repro.condorj2.logic.heartbeat import HeartbeatService
from repro.condorj2.logic.lifecycle import LifecycleService
from repro.condorj2.logic.queries import ReportService
from repro.condorj2.logic.scheduling import SchedulingService
from repro.condorj2.logic.submission import SubmissionService

__all__ = [
    "ConfigService",
    "HeartbeatService",
    "LifecycleService",
    "ReportService",
    "SchedulingService",
    "SubmissionService",
]
