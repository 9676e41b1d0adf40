"""Contract-conformance tests for the typed service tier.

Every operation must be declared as a contract (schemas, version,
side-effect class), every handler's output must validate against its
response schema, and every fault the tier emits must carry a documented
(code, subcode) pair.
"""

import pytest

from repro.cluster import ClusterSpec, RELIABLE_EXECUTION
from repro.condorj2 import CondorJ2System
from repro.condorj2.api import (
    CONTRACTS,
    ConflictFault,
    FAULT_CODES,
    FAULT_SUBCODES,
    FaultCode,
    ValidationFault,
)
from repro.condorj2.api.contracts import SIDE_EFFECTS, ContractRegistry
from repro.condorj2.api.fields import SchemaDef
from repro.condorj2.costs import CasCostModel


def small_system(**kwargs):
    defaults = dict(
        cluster=ClusterSpec(physical_nodes=2, vms_per_node=2,
                            dual_core_fraction=0.0, speed_jitter=0.0),
        seed=13,
        execution=RELIABLE_EXECUTION,
    )
    defaults.update(kwargs)
    return CondorJ2System(**defaults)


# ----------------------------------------------------------------------
# registry conformance
# ----------------------------------------------------------------------
def test_every_operation_has_a_complete_contract():
    for contract in CONTRACTS:
        assert isinstance(contract.request, SchemaDef), contract.name
        assert isinstance(contract.response, SchemaDef), contract.name
        major, _, minor = contract.version.partition(".")
        assert major.isdigit() and minor.isdigit(), contract.name
        assert contract.side_effect in SIDE_EFFECTS, contract.name
        assert contract.summary, contract.name


def test_contract_table_covers_exactly_the_service_surface():
    system = small_system()
    assert system.cas.registry.contracts.operations() == sorted(
        contract.name for contract in CONTRACTS
    )
    assert len(CONTRACTS) == 14


def test_registry_refuses_partial_bindings():
    registry = ContractRegistry()
    registry.bind("heartbeat", lambda payload, now: None)
    with pytest.raises(ValueError, match="contracts without handlers"):
        registry.assert_fully_bound()
    with pytest.raises(ValueError, match="no contract"):
        registry.bind("noSuchOp", lambda payload, now: None)


def test_every_emitted_subcode_is_documented():
    for code in FAULT_CODES:
        assert code in FAULT_SUBCODES
        for subcode, meaning in FAULT_SUBCODES[code].items():
            assert subcode == subcode.lower()
            assert meaning


# ----------------------------------------------------------------------
# handler outputs validate against their response schemas
# ----------------------------------------------------------------------
def test_every_handler_response_validates():
    """Dispatch each of the 14 operations with a valid payload.

    The gateway validates responses after the handler runs, surfacing
    any mismatch as INTERNAL/response-validation — so a clean dispatch
    *is* the conformance proof.
    """
    system = small_system()
    gateway = system.cas.gateway
    now = 0.0

    def call(operation, payload):
        return gateway.dispatch(operation, payload, now)

    call("registerMachine", system.nodes[0].describe())
    call("registerMachine", system.nodes[1].describe())
    call("setPolicy", {"name": "p1", "value": "42"})
    assert call("getPolicy", {"name": "p1"})["value"] == "42"
    assert call("getPolicy", {"name": "absent"})["value"] is None

    submitted = call("submitJob", {"owner": "alice", "run_seconds": 30.0})
    job_id = submitted["job_id"]
    batch = call("submitJobs", {"jobs": [
        {"owner": "bob"}, {"owner": "bob", "run_seconds": 5.0},
    ]})
    assert len(batch["job_ids"]) == 2

    beat = call("heartbeat", {"machine": system.nodes[0].name})
    assert beat["status"] in ("OK", "MATCHINFO")
    assert beat["matches"] or beat["status"] == "OK"

    matches = system.cas.scheduling.pending_matches_for_machine(
        system.nodes[0].name
    ) or beat["matches"]
    assert matches, "scheduling should have matched the submitted jobs"
    match = matches[0]
    accepted = call("acceptMatch",
                    {"job_id": match["job_id"], "vm_id": match["vm_id"]})
    assert accepted["status"] == "OK"
    call("beginExecute", {"machine": system.nodes[0].name,
                          "job_id": match["job_id"],
                          "vm_id": match["vm_id"]})
    call("reportDrop", {"job_id": match["job_id"], "vm_id": match["vm_id"]})

    summary = call("queueSummary", {})
    assert summary["idle"] >= 1
    status = call("poolStatus", {})
    assert status["machines_total"] == 2
    users = call("userSummary", {"owner": "alice"})
    assert users["owner"] == "alice"
    detail = call("jobDetail", {"job_id": job_id})
    assert detail["source"] == "queue"
    assert call("jobDetail", {"job_id": 999999}) is None
    call("removeJob", {"job_id": job_id})


# ----------------------------------------------------------------------
# request validation: precise faults, applied defaults
# ----------------------------------------------------------------------
@pytest.fixture
def gateway():
    return small_system().cas.gateway


def _fault(gateway, operation, payload):
    with pytest.raises(ValidationFault) as excinfo:
        gateway.dispatch(operation, payload, 0.0)
    return excinfo.value


def test_missing_required_field(gateway):
    fault = _fault(gateway, "acceptMatch", {"job_id": 1})
    assert fault.subcode == "missing-field"
    assert "vm_id" in fault.detail


def test_wrong_type(gateway):
    fault = _fault(gateway, "acceptMatch", {"job_id": "one", "vm_id": "v"})
    assert fault.subcode == "wrong-type"


def test_unknown_field(gateway):
    fault = _fault(gateway, "removeJob", {"job_id": 1, "force": True})
    assert fault.subcode == "unknown-field"
    assert "force" in fault.detail


@pytest.mark.parametrize("state", ("exploded", "offline"))
def test_enum_violation(gateway, state):
    """The contract's enum is the one check of a reported VM state: the
    gateway refuses the call before the handler dispatches anything.
    ``offline`` is no state of a slot: no pool ever moves one there."""
    before = gateway.counts.statements
    fault = _fault(gateway, "heartbeat", {
        "machine": "m", "vms": [{"vm_id": "v", "state": state}],
    })
    assert (fault.code, fault.subcode) == (FaultCode.VALIDATION, "bad-value")
    assert state in fault.detail
    assert gateway.counts.statements == before


@pytest.mark.parametrize("backend", ("sqlite", "memory", "wal"))
@pytest.mark.parametrize("value", (float("nan"), float("inf"),
                                   float("-inf")))
def test_non_finite_double_is_a_bad_value(backend, value):
    """SQLite would bind NaN as NULL (a server fault) and the other
    engines would queue a job the simulated clock cannot schedule:
    both are refused at the edge, identically on every engine."""
    system = small_system(costs=CasCostModel(storage_backend=backend))
    gateway = system.cas.gateway
    fault = _fault(gateway, "submitJob", {"owner": "u", "run_seconds": value})
    assert (fault.code, fault.subcode) == (FaultCode.VALIDATION, "bad-value")
    assert "run_seconds" in fault.detail
    fault = _fault(gateway, "registerMachine",
                   {"name": "m1", "vm_count": 1, "memory_mb": value})
    assert (fault.code, fault.subcode) == (FaultCode.VALIDATION, "bad-value")
    assert system.cas.db.table_count("jobs") == 0
    assert system.cas.db.table_count("machines") == 0


def test_non_struct_payload(gateway):
    fault = _fault(gateway, "poolStatus", [1, 2, 3])
    assert fault.subcode == "not-a-struct"


def test_bool_is_not_an_int(gateway):
    fault = _fault(gateway, "jobDetail", {"job_id": True})
    assert fault.subcode == "wrong-type"


def test_defaults_are_contract_owned():
    """submitJob with an empty payload gets every contract default."""
    system = small_system()
    system.cas.gateway.dispatch("registerMachine",
                                system.nodes[0].describe(), 0.0)
    response = system.cas.gateway.dispatch("submitJob", {}, 0.0)
    detail = system.cas.reports.job_detail(response["job_id"])
    assert detail["owner"] == "user"
    assert detail["cmd"] == "/bin/science"
    assert detail["run_seconds"] == 60.0
    assert detail["image_size_mb"] == 16


def test_conflict_faults_carry_state_subcodes(gateway):
    with pytest.raises(ConflictFault) as excinfo:
        gateway.dispatch("acceptMatch", {"job_id": 404, "vm_id": "vm0@x"},
                         0.0)
    assert excinfo.value.subcode == "not-found"
    with pytest.raises(ConflictFault) as excinfo:
        gateway.dispatch("heartbeat", {"machine": "never-registered"}, 0.0)
    assert excinfo.value.subcode == "not-found"


