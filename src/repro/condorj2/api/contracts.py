"""Declarative operation contracts for the CAS web-services tier.

Every operation the CAS exposes — daemon-facing and client-facing alike —
is registered here as **data**: name, version, side-effect class,
request/response schemas, batchability and a statement budget.  The
dispatch pipeline (:mod:`repro.condorj2.api.gateway`) validates against
these specs and API.md is generated from them.

The contract table is the WSDL of the reproduction — the registry in
``web/services.py`` binds handlers to it and refuses to start if the two
ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.condorj2.api.faults import UnknownOperationFault
from repro.condorj2.api.fields import (
    FieldDef,
    SchemaDef,
    f_float,
    f_int,
    f_list,
    f_str,
    f_struct,
)
from repro.condorj2.schema import VM_STATES

#: Side-effect classes: ``read`` operations touch no operational state
#: (safe to retry, shardable to replicas), ``write`` operations do.
SIDE_EFFECTS = ("read", "write")

#: Event kinds a heartbeat may embed (Table 2's steps 11-15).
HEARTBEAT_EVENT_KINDS = ("completed", "dropped", "started")


@dataclass(frozen=True)
class OperationContract:
    """One operation's public contract, as pure data."""

    name: str
    version: str
    summary: str
    side_effect: str            # one of SIDE_EFFECTS
    request: SchemaDef
    response: SchemaDef
    #: Ceiling on statement dispatches per call, however large the
    #: request: the paper's bounded-statements-per-interaction claim,
    #: which the gateway meters on every live call.
    statement_budget: int
    #: May this operation ride a multiplexed batch envelope?
    batchable: bool = True


# ----------------------------------------------------------------------
# shared message fragments
# ----------------------------------------------------------------------
#: One job description as submitted by a client.  Field defaults are the
#: contract's, not the handler's: validation fills them in.
_JOB_SPEC_FIELDS: Tuple[FieldDef, ...] = (
    f_int("job_id", required=False, default=None, nullable=True),
    f_str("owner", required=False, default="user"),
    f_str("cmd", required=False, default="/bin/science"),
    f_float("run_seconds", required=False, default=60.0),
    f_int("image_size_mb", required=False, default=16),
    f_str("requirements", required=False, default=None, nullable=True),
    f_str("rank", required=False, default=None, nullable=True),
    f_list("depends_on", f_int("depends_on_job_id"),
           required=False, default=()),
)

#: One MATCHINFO row (Table 2, step 8): everything the startd needs to
#: spawn a starter for the matched job.
_MATCH_FIELDS: Tuple[FieldDef, ...] = (
    f_int("job_id"),
    f_str("vm_id"),
    f_str("owner"),
    f_str("cmd"),
    f_str("args"),
    f_float("run_seconds"),
)

_STATUS_ONLY = SchemaDef("StatusResponse", (f_str("status", enum=("OK",)),))

_HEARTBEAT_RESPONSE = SchemaDef(
    "HeartbeatResponse",
    (
        f_str("status", enum=("OK", "MATCHINFO")),
        f_list("matches", f_struct("match", _MATCH_FIELDS)),
    ),
)


def _contract(name, version, summary, side_effect, request_fields,
              response, *, statement_budget, batchable=True):
    return OperationContract(
        name=name,
        version=version,
        summary=summary,
        side_effect=side_effect,
        request=SchemaDef(f"{name}Request", tuple(request_fields)),
        response=response,
        statement_budget=statement_budget,
        batchable=batchable,
    )


#: The complete service surface, one contract per operation.
CONTRACTS: Tuple[OperationContract, ...] = (
    # -- startd-facing services (Table 2's daemon interactions) ---------
    _contract(
        "registerMachine", "1.0",
        "First contact or reboot: create/refresh machine and VM tuples.",
        "write",
        (
            f_str("name"),
            f_str("arch", required=False, default="INTEL"),
            f_str("opsys", required=False, default="LINUX"),
            f_int("cores", required=False, default=1),
            f_float("memory_mb", required=False, default=512),
            f_float("speed", required=False, default=1.0),
            f_int("vm_count", required=False, default=1),
        ),
        _STATUS_ONLY,
        # Boot-time handshake: it re-keys the machine's tuples, so it
        # must not be reordered against other ops in one envelope.
        batchable=False,
        statement_budget=12,
    ),
    _contract(
        "heartbeat", "1.1",
        "Liveness + VM states + embedded job events; returns MATCHINFO "
        "for idle VMs (Table 2, steps 3-4, 7-8, 12-15).",
        "write",
        (
            f_str("machine"),
            f_list(
                "vms",
                f_struct("vm", (
                    f_str("vm_id"),
                    f_str("state", enum=VM_STATES),
                )),
                required=False, default=(),
            ),
            f_list(
                "events",
                f_struct("event", (
                    f_str("kind", enum=HEARTBEAT_EVENT_KINDS),
                    f_int("job_id"),
                    f_str("vm_id"),
                    f_str("reason", required=False, default=""),
                )),
                required=False, default=(),
            ),
        ),
        _HEARTBEAT_RESPONSE,
        statement_budget=28,
    ),
    _contract(
        "acceptMatch", "1.1",
        "The startd accepted a match: match tuple -> run tuple, job -> "
        "running (Table 2, steps 9-10).",
        "write",
        (f_int("job_id"), f_str("vm_id")),
        SchemaDef("AcceptMatchResponse", (
            f_str("status", enum=("OK",)),
            f_int("job_id"),
            f_str("vm_id"),
        )),
        statement_budget=8,
    ),
    _contract(
        "beginExecute", "1.1",
        "The starter launched the job payload; the VM is busy (Table 2, "
        "step 11: a heartbeat's `started` event as a call of its own).",
        "write",
        (f_str("machine"), f_int("job_id"), f_str("vm_id")),
        _STATUS_ONLY,
        statement_budget=1,
    ),
    _contract(
        "reportDrop", "1.0",
        "A start attempt failed: requeue the job, free the VM "
        "(footnote 7's no-lost-jobs guarantee).",
        "write",
        (
            f_int("job_id"),
            f_str("vm_id"),
            f_str("reason", required=False, default=""),
        ),
        _STATUS_ONLY,
        statement_budget=8,
    ),
    # -- client-facing services -----------------------------------------
    _contract(
        "submitJob", "1.0",
        "Insert one job tuple (Table 2, steps 1-2).",
        "write",
        _JOB_SPEC_FIELDS,
        SchemaDef("SubmitJobResponse", (
            f_str("status", enum=("OK",)),
            f_int("job_id"),
        )),
        statement_budget=6,
    ),
    _contract(
        "submitJobs", "1.0",
        "Insert a batch of job tuples in one transaction.",
        "write",
        (f_list("jobs", f_struct("job", _JOB_SPEC_FIELDS)),),
        SchemaDef("SubmitJobsResponse", (
            f_str("status", enum=("OK",)),
            f_list("job_ids", f_int("job_id")),
        )),
        statement_budget=8,
    ),
    _contract(
        "removeJob", "1.0",
        "User-initiated removal of a queued (not running) job.",
        "write",
        (f_int("job_id"),),
        _STATUS_ONLY,
        statement_budget=3,
    ),
    _contract(
        "queueSummary", "1.0",
        "Jobs per state (the condor_q equivalent).",
        "read",
        (),
        SchemaDef("QueueSummaryResponse", map_item=f_int("n")),
        statement_budget=3,
    ),
    _contract(
        "poolStatus", "1.0",
        "Machine/VM status overview (the condor_status equivalent).",
        "read",
        (),
        SchemaDef("PoolStatusResponse", (
            f_int("machines_total"),
            f_int("machines_alive"),
            f_int("vms_idle"),
            f_int("vms_busy"),
            f_int("matches_pending"),
            f_int("runs_in_flight"),
        )),
        statement_budget=8,
    ),
    _contract(
        "userSummary", "1.0",
        "Per-user queue and usage statistics.",
        "read",
        (f_str("owner"),),
        SchemaDef("UserSummaryResponse", (
            f_str("owner"),
            f_int("idle"),
            f_int("running"),
            f_int("completed"),
            f_float("usage_seconds"),
        )),
        statement_budget=6,
    ),
    _contract(
        "jobDetail", "1.0",
        "Everything known about one job, live or historical.",
        "read",
        (f_int("job_id"),),
        SchemaDef("JobDetailResponse", (
            f_str("source", enum=("queue", "history")),
        ), allow_extra=True, nullable=True),
        statement_budget=5,
    ),
    _contract(
        "setPolicy", "1.0",
        "Create or change a configuration policy, recording history.",
        "write",
        (
            f_str("name"),
            f_str("value"),
            f_str("changed_by", required=False, default="admin"),
        ),
        _STATUS_ONLY,
        statement_budget=8,
    ),
    _contract(
        "getPolicy", "1.0",
        "Current value of a configuration policy.",
        "read",
        (f_str("name"),),
        SchemaDef("GetPolicyResponse", (
            f_str("name"),
            f_str("value", nullable=True),
        )),
        statement_budget=3,
    ),
)


class ContractRegistry:
    """Contracts bound to their handlers; the gateway dispatches off it."""

    def __init__(self, contracts: Iterable[OperationContract] = CONTRACTS):
        self._contracts: Dict[str, OperationContract] = {}
        self._handlers: Dict[str, Any] = {}
        for contract in contracts:
            if contract.name in self._contracts:
                raise ValueError(f"duplicate contract {contract.name!r}")
            if contract.side_effect not in SIDE_EFFECTS:
                raise ValueError(
                    f"{contract.name}: bad side effect "
                    f"{contract.side_effect!r}"
                )
            self._contracts[contract.name] = contract

    def bind(self, name: str, handler: Any) -> None:
        """Attach the handler implementing ``name``'s contract."""
        if name not in self._contracts:
            raise ValueError(f"no contract for handler {name!r}")
        self._handlers[name] = handler

    def assert_fully_bound(self) -> None:
        """Refuse to serve unless every contract has a handler."""
        missing = sorted(set(self._contracts) - set(self._handlers))
        if missing:
            raise ValueError(f"contracts without handlers: {missing}")

    def contract(self, name: str) -> OperationContract:
        try:
            return self._contracts[name]
        except KeyError:
            raise UnknownOperationFault(
                f"unknown operation {name!r}", operation=name
            ) from None

    def handler(self, name: str) -> Any:
        self.contract(name)  # raises UnknownOperationFault first
        return self._handlers[name]

    def contracts(self) -> List[OperationContract]:
        """All contracts, sorted by operation name."""
        return [self._contracts[name] for name in sorted(self._contracts)]

    def operations(self) -> List[str]:
        """Names of all registered operations (the WSDL, in spirit)."""
        return sorted(self._contracts)
