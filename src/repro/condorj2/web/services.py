"""The web-service interface: contract bindings and the service gateway.

"For daemons running on execute machines, the CAS exposes a set of web
services specifically tailored to the interactions the daemons need to
have with the operational data store" (section 4.1).  The same registry
also exposes the client-facing services (submission, queries), because
"both external interfaces are built on top of the same set of underlying
system services".

Every operation is declared as an
:class:`~repro.condorj2.api.contracts.OperationContract` (name, version,
request/response schemas, side-effect class, batchability, statement
budget); this module *binds* those contracts to the application-logic layer and
wraps the bindings in a :class:`~repro.condorj2.api.gateway.ServiceGateway`
so every dispatch is validated and metered.  Handlers receive payloads
the gateway has already validated and defaulted, and their replies are
validated against the response schema before they reach the wire.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cluster.job import JobSpec
from repro.condorj2.api.contracts import ContractRegistry
from repro.condorj2.api.gateway import ServiceGateway
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    ReportService,
    SchedulingService,
    SubmissionService,
)


class WebServiceRegistry:
    """Binds the operation contracts to the application-logic layer.

    The registry refuses to construct unless every declared contract has
    a handler; dispatch runs through the gateway pipeline (validate ->
    meter -> translate -> handler -> validate response).
    """

    def __init__(
        self,
        submission: SubmissionService,
        scheduling: SchedulingService,
        heartbeat: HeartbeatService,
        lifecycle: LifecycleService,
        reports: ReportService,
        config: ConfigService,
        costs: Any,
    ):
        self.submission = submission
        self.scheduling = scheduling
        self.heartbeat = heartbeat
        self.lifecycle = lifecycle
        self.reports = reports
        self.config = config
        self.contracts = ContractRegistry()
        for name, handler in {
            # startd-facing services
            "registerMachine": self._op_register_machine,
            "heartbeat": self._op_heartbeat,
            "acceptMatch": self._op_accept_match,
            "beginExecute": self._op_begin_execute,
            "reportDrop": self._op_report_drop,
            # client-facing services
            "submitJob": self._op_submit_job,
            "submitJobs": self._op_submit_jobs,
            "removeJob": self._op_remove_job,
            "queueSummary": self._op_queue_summary,
            "poolStatus": self._op_pool_status,
            "userSummary": self._op_user_summary,
            "jobDetail": self._op_job_detail,
            "setPolicy": self._op_set_policy,
            "getPolicy": self._op_get_policy,
        }.items():
            self.contracts.bind(name, handler)
        self.contracts.assert_fully_bound()
        self.gateway = ServiceGateway(
            self.contracts, submission.db.counts, costs
        )

    # ------------------------------------------------------------------
    # startd-facing handlers
    # ------------------------------------------------------------------
    def _op_register_machine(self, payload: Any, now: float) -> Any:
        self.heartbeat.register_machine(payload, now)
        return {"status": "OK"}

    def _op_heartbeat(self, payload: Any, now: float) -> Any:
        return self.heartbeat.process(payload, now)

    def _op_accept_match(self, payload: Any, now: float) -> Any:
        return self.lifecycle.accept_match(payload["job_id"], payload["vm_id"], now)

    def _op_begin_execute(self, payload: Any, now: float) -> Any:
        # Table 2, step 11 for a client that is not on the pulse: the
        # same ``started`` event a heartbeat carries, alone.
        self.heartbeat.apply_events(
            [{"kind": "started", "job_id": payload["job_id"],
              "vm_id": payload["vm_id"]}],
            now,
        )
        return {"status": "OK"}

    def _op_report_drop(self, payload: Any, now: float) -> Any:
        self.lifecycle.report_drop(
            payload["job_id"], payload["vm_id"], now, reason=payload["reason"]
        )
        return {"status": "OK"}

    # ------------------------------------------------------------------
    # client-facing handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _spec_from_payload(data: Dict[str, Any]) -> JobSpec:
        # The request schema validated types and filled contract
        # defaults, so the fields can be read directly.
        spec = JobSpec(
            owner=data["owner"],
            cmd=data["cmd"],
            run_seconds=float(data["run_seconds"]),
            image_size_mb=int(data["image_size_mb"]),
            requirements=data["requirements"],
            rank=data["rank"],
            depends_on=tuple(data["depends_on"]),
        )
        # Preserve the client-assigned id when present: dependency edges
        # reference submitted ids, so the server must keep them stable.
        if data["job_id"] is not None:
            spec.job_id = int(data["job_id"])
        return spec

    def _op_submit_job(self, payload: Any, now: float) -> Any:
        job_id = self.submission.submit_job(self._spec_from_payload(payload), now)
        return {"status": "OK", "job_id": job_id}

    def _op_submit_jobs(self, payload: Any, now: float) -> Any:
        specs = [self._spec_from_payload(data) for data in payload["jobs"]]
        ids = self.submission.submit_jobs(specs, now)
        return {"status": "OK", "job_ids": ids}

    def _op_remove_job(self, payload: Any, now: float) -> Any:
        self.submission.remove_job(payload["job_id"])
        return {"status": "OK"}

    def _op_queue_summary(self, payload: Any, now: float) -> Any:
        return self.reports.queue_summary()

    def _op_pool_status(self, payload: Any, now: float) -> Any:
        return self.reports.pool_status()

    def _op_user_summary(self, payload: Any, now: float) -> Any:
        return self.reports.user_summary(payload["owner"])

    def _op_job_detail(self, payload: Any, now: float) -> Any:
        return self.reports.job_detail(payload["job_id"])

    def _op_set_policy(self, payload: Any, now: float) -> Any:
        self.config.set(
            payload["name"], payload["value"], now,
            changed_by=payload["changed_by"],
        )
        return {"status": "OK"}

    def _op_get_policy(self, payload: Any, now: float) -> Any:
        return {"name": payload["name"], "value": self.config.get(payload["name"])}
