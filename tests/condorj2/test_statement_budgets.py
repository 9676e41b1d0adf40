"""Tier-1 tests for runtime statement-budget enforcement.

The runtime half of the dispatch-complexity story (DESIGN.md section
9.2): every operation contract declares a ``statement_budget``, the
gateway meters each call's share of the storage engine's statement
ledger against it on all three backends, and an overrun raises a
structured ``INTERNAL/budget-exceeded`` fault that the per-operation
stats and the admin console both surface.
"""

import pytest

from repro.cluster import ClusterSpec, RELIABLE_EXECUTION
from repro.condorj2 import CondorJ2System
from repro.condorj2.api import (
    CONTRACTS,
    ConflictFault,
    ContractRegistry,
    FaultCode,
    InternalFault,
    OperationContract,
)
from repro.condorj2.api.fields import SchemaDef, f_int, f_str
from repro.condorj2.api.gateway import ServiceGateway
from repro.condorj2.costs import CasCostModel
from repro.condorj2.database import Database
from repro.workload import fixed_length_batch
from tests.condorj2.test_gateway import accepted_job

BACKENDS = ("sqlite", "memory", "wal")


# ----------------------------------------------------------------------
# the contract surface declares budgets everywhere
# ----------------------------------------------------------------------

def test_every_contract_declares_a_constant_budget():
    for contract in CONTRACTS:
        budget = contract.statement_budget
        assert type(budget) is int and budget > 0, contract.name


def test_a_contract_without_a_budget_does_not_construct():
    fields = {name: getattr(CONTRACTS[0], name) for name in (
        "name", "version", "summary", "side_effect", "request", "response")}
    with pytest.raises(TypeError, match="statement_budget"):
        OperationContract(**fields)


# ----------------------------------------------------------------------
# enforcement, on every storage backend
# ----------------------------------------------------------------------

def _probe_gateway(backend, budget):
    """A one-operation registry whose handler dispatches on demand."""
    db = Database(backend=backend)
    contract = OperationContract(
        name="probe", version="1.0", summary="budget probe",
        side_effect="read",
        request=SchemaDef("ProbeRequest", (f_int("statements"),)),
        response=SchemaDef("ProbeResponse", (f_str("status", enum=("OK",)),)),
        statement_budget=budget,
    )
    registry = ContractRegistry([contract])

    def handler(payload, now):
        for _ in range(payload["statements"]):
            db.scalar("SELECT COUNT(*) FROM jobs")
        return {"status": "OK"}

    registry.bind("probe", handler)
    return ServiceGateway(registry, db.counts, CasCostModel())


@pytest.mark.parametrize("backend", BACKENDS)
def test_overrun_raises_budget_exceeded(backend):
    gateway = _probe_gateway(backend, 2)
    assert gateway.dispatch("probe", {"statements": 2}, 0.0) \
        == {"status": "OK"}
    with pytest.raises(InternalFault) as excinfo:
        gateway.dispatch("probe", {"statements": 3}, 1.0)
    fault = excinfo.value
    assert fault.code == FaultCode.INTERNAL
    assert fault.subcode == "budget-exceeded"
    assert fault.operation == "probe"
    assert "3 statements" in fault.detail and "budget of 2" in fault.detail
    stats = gateway.stats["probe"]
    assert stats.calls == 2
    assert stats.budget_overruns == 1
    assert stats.faults == 1
    assert stats.fault_codes == {FaultCode.INTERNAL: 1}
    assert stats.max_statements == 3


def test_handler_faults_are_not_double_counted_as_overruns():
    db = Database(backend="memory")
    contract = OperationContract(
        name="probe", version="1.0", summary="budget probe",
        side_effect="read",
        request=SchemaDef("ProbeRequest", ()),
        response=SchemaDef("ProbeResponse", (f_str("status", enum=("OK",)),)),
        statement_budget=1,
    )
    registry = ContractRegistry([contract])

    def handler(payload, now):
        for _ in range(10):
            db.scalar("SELECT COUNT(*) FROM jobs")
        raise ValueError("handler bug")

    registry.bind("probe", handler)
    gateway = ServiceGateway(registry, db.counts, CasCostModel())
    with pytest.raises(Exception) as excinfo:
        gateway.dispatch("probe", {}, 0.0)
    # The handler's own fault wins; the budget is only asserted on the
    # success path (the overrun is the likelier symptom, not the cause).
    assert getattr(excinfo.value, "subcode", "") != "budget-exceeded"
    stats = gateway.stats["probe"]
    assert stats.budget_overruns == 0
    assert stats.faults == 1
    assert stats.max_statements == 10


# ----------------------------------------------------------------------
# the real system runs inside its declared budgets
# ----------------------------------------------------------------------

def _small_system(**kwargs):
    defaults = dict(
        cluster=ClusterSpec(physical_nodes=2, vms_per_node=2,
                            dual_core_fraction=0.0, speed_jitter=0.0),
        seed=13,
        execution=RELIABLE_EXECUTION,
    )
    defaults.update(kwargs)
    return CondorJ2System(**defaults)


def test_full_workload_stays_inside_every_declared_budget():
    system = _small_system()
    system.submit_at(0.0, fixed_length_batch(8, 20.0))
    system.run_until_complete(expected_jobs=8, max_seconds=3600.0)
    assert system.completed_count() == 8
    for operation, stats in system.cas.gateway.stats.items():
        assert stats.budget_overruns == 0, operation
        contract = system.cas.gateway.registry.contract(operation)
        assert stats.max_statements <= contract.statement_budget, operation


@pytest.mark.parametrize("backend", BACKENDS)
def test_accept_is_four_guarded_writes_under_a_budget_of_eight(backend):
    """acceptMatch: the DELETE that consumes the match is its own guard
    (no SELECT ahead of it), then the run INSERT and the two guarded
    UPDATEs — and a miss stops at the first statement."""
    system, _machine, ids = accepted_job(backend)
    stats = system.cas.gateway.stats["acceptMatch"]
    assert stats.max_statements == 4
    contract = system.cas.gateway.registry.contract("acceptMatch")
    assert contract.statement_budget == 8
    with pytest.raises(ConflictFault) as excinfo:
        system.cas.gateway.dispatch("acceptMatch", ids, 2.0)  # match gone
    assert excinfo.value.subcode == "not-found"
    assert stats.statements == 5


@pytest.mark.parametrize("backend", BACKENDS)
def test_remove_is_two_guarded_deletes_under_a_budget_of_three(backend):
    """removeJob: the match DELETE, then one DELETE of the job that is
    its own guard; only a refusal pays the SELECT that names the fault."""
    system, _machine, ids = accepted_job(backend)
    dispatch = system.cas.gateway.dispatch
    queued = dispatch("submitJob", {"owner": "alice"}, 2.0)["job_id"]
    assert dispatch("removeJob", {"job_id": queued}, 3.0) == {"status": "OK"}
    stats = system.cas.gateway.stats["removeJob"]
    assert (stats.calls, stats.statements, stats.max_statements) == (1, 2, 2)
    contract = system.cas.gateway.registry.contract("removeJob")
    assert contract.statement_budget == 3
    for job_id, subcode in ((ids["job_id"], "illegal-state"),  # running
                            (queued, "not-found"),     # already removed
                            (10 ** 9, "not-found")):   # never existed
        with pytest.raises(ConflictFault) as excinfo:
            dispatch("removeJob", {"job_id": job_id}, 4.0)
        assert excinfo.value.subcode == subcode, job_id
    assert (stats.faults, stats.statements, stats.budget_overruns) == (3, 11, 0)
    assert system.cas.db.table_count("runs") == 1


def test_statistics_page_shows_budget_headroom_panel():
    system = _small_system()
    system.start()
    system.submit_at(1.0, fixed_length_batch(4, 15.0))
    system.run_until_complete(expected_jobs=4, max_seconds=600.0)
    page = system.cas.site.statistics_page()
    assert "Statement Budgets" in page
    assert "peak stmts" in page and "headroom" in page and "overruns" in page
    assert "(malformed)" not in page.split("Statement Budgets", 1)[1]
