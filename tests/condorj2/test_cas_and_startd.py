"""Unit tests for the CAS container mechanics and the pull-model startd."""

import pytest

from repro.cluster import ClusterSpec, RELIABLE_EXECUTION
from repro.condorj2 import CasCostModel, CondorJ2System
from repro.condorj2.api.faults import ServiceFault
from repro.condorj2.database import StatementCounts
from repro.condorj2.startd import StartdConfig
from repro.workload import fixed_length_batch


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
# cost model
# ----------------------------------------------------------------------
def test_parse_cost_scales_with_envelope_size():
    costs = CasCostModel()
    small = costs.parse_cost_seconds(512)
    large = costs.parse_cost_seconds(8192)
    assert large > small
    assert small >= costs.soap_parse_seconds


def test_sql_cost_counts_each_verb():
    costs = CasCostModel()
    delta = StatementCounts(select=2, insert=1, update=3, delete=1, commits=2)
    expected = (2 * costs.select_seconds + costs.insert_seconds
                + 3 * costs.update_seconds + costs.delete_seconds)
    assert costs.sql_cost_seconds(delta) == pytest.approx(expected)
    assert costs.io_cost_seconds(delta) == pytest.approx(2 * costs.commit_io_seconds)


# ----------------------------------------------------------------------
# CAS behaviour
# ----------------------------------------------------------------------
def test_cas_counts_requests_and_faults():
    system = small_system()
    system.start()
    ok = system.sim.spawn(system.user.call("poolStatus", {}))
    system.sim.run(until=5.0)
    assert ok.done and ok.error is None
    before_faults = system.cas.faults_returned
    bad = system.sim.spawn(system.user.call("acceptMatch",
                                            {"job_id": 999, "vm_id": "vm0@x"}))
    system.sim.run(until=10.0)
    assert bad.error is not None  # fault surfaced to the caller
    assert system.cas.faults_returned == before_faults + 1
    assert system.cas.requests_handled > 0


def test_cas_startup_charges_cpu():
    system = small_system()
    system.start()
    system.sim.run(until=120.0)
    startup = system.cas.costs.startup_cpu_seconds
    assert system.server_host.meter.total_seconds("user") >= startup * 0.9


def test_cas_db_background_runs_on_schedule():
    costs = CasCostModel(db_background_interval_seconds=100.0,
                         db_background_cpu_seconds=1.0,
                         db_background_io_seconds=0.5)
    system = small_system(costs=costs)
    system.start()
    system.sim.run(until=350.0)
    runs = system.log.times("db_background_run")
    assert runs == [pytest.approx(100.0), pytest.approx(200.0), pytest.approx(300.0)]


def test_registry_exposes_paper_operations():
    system = small_system()
    operations = system.cas.registry.contracts.operations()
    for op in ("heartbeat", "acceptMatch", "beginExecute", "submitJob",
               "registerMachine", "queueSummary", "setPolicy"):
        assert op in operations


def test_dispatch_counts_calls_per_operation():
    system = small_system()
    system.start()
    system.sim.run(until=10.0)
    stats = system.cas.gateway.stats
    assert stats["registerMachine"].calls == 2
    assert stats["heartbeat"].calls >= 2


# ----------------------------------------------------------------------
# startd behaviour
# ----------------------------------------------------------------------
def test_startd_delta_vm_reporting():
    config = StartdConfig(idle_poll_seconds=1.0, full_state_every_beats=1000)
    system = small_system(startd_config=config)
    startd = system.startds[0]
    first = startd._vm_states_payload()
    assert len(first) == 2  # first beat reports everything
    second = startd._vm_states_payload()
    assert second == []     # nothing changed since
    startd.node.vms[0].state = type(startd.node.vms[0].state).BUSY
    third = startd._vm_states_payload()
    assert len(third) == 1
    assert third[0]["state"] == "busy"


@pytest.mark.parametrize("every, sizes", [
    # beats 1 and 4 are full (2 VMs); the rest are deltas (0 changes)
    (3, [2, 0, 0, 2, 0, 0]),
    (1, [2, 2, 2, 2, 2, 2]),
])
def test_startd_full_refresh_every_n_beats(every, sizes):
    config = StartdConfig(full_state_every_beats=every)
    system = small_system(startd_config=config)
    startd = system.startds[0]
    assert [len(startd._vm_states_payload()) for _ in range(6)] == sizes


def test_startd_stop_halts_heartbeats():
    system = small_system()
    system.start()
    system.sim.run(until=5.0)
    victim = system.startds[0]
    count_before = system.cas.heartbeat.heartbeats_processed
    victim.stop()
    system.sim.run(until=200.0)
    # Only the surviving startd contributes further heartbeats.
    survivors = system.cas.heartbeat.heartbeats_processed - count_before
    assert survivors > 0
    last = system.cas.db.scalar(
        "SELECT last_heartbeat FROM machines WHERE machine_name = ?",
        (victim.node.name,),
    )
    assert last < 200.0 - 60.0  # the victim stopped reporting long ago


def test_startd_events_retried_after_transport_failure():
    """Events drained for a failed heartbeat are requeued, not lost."""
    system = small_system()
    startd = system.startds[0]
    startd._pending_events.append(
        {"kind": "completed", "job_id": 1, "vm_id": "vm0@x"}
    )
    payload = startd._heartbeat_payload()
    assert startd._pending_events == []
    # Simulate the retry path of _main_loop.
    startd._pending_events = payload["events"] + startd._pending_events
    assert len(startd._pending_events) == 1


def test_startd_resends_slot_states_after_transport_failure():
    """A slot change carried by a heartbeat whose transport failed goes
    out again on the very next beat, not at the next full-state beat."""
    config = StartdConfig(idle_poll_seconds=1.0, full_state_every_beats=1000)
    system = small_system(startd_config=config)
    startd = system.startds[0]
    sent = []
    fail_next = []
    original = startd._call

    def flaky(operation, payload):
        if operation == "heartbeat":
            sent.append(list(payload["vms"]))
            if fail_next:
                fail_next.clear()
                raise ServiceFault("injected transport failure")
        return (yield from original(operation, payload))

    startd._call = flaky
    system.start()
    system.sim.run(until=3.5)
    assert sent and all(vms == [] for vms in sent[1:])  # deltas, idle pool
    vm = startd.node.vms[0]
    vm.state = type(vm.state).BUSY
    fail_next.append(True)
    beats = len(sent)
    system.sim.run(until=8.0)
    change = {"vm_id": vm.vm_id, "state": "busy"}
    assert sent[beats] == [change]       # the beat that failed
    assert sent[beats + 1] == [change]   # ... and the retry carries it
    assert startd.rpc_failures == 1
    assert system.cas.db.scalar("SELECT state FROM vms WHERE vm_id = ?",
                                (vm.vm_id,)) == "busy"


def test_jobs_flow_through_small_pool_quickly():
    system = small_system()
    system.submit_at(0.0, fixed_length_batch(8, 15.0))
    system.run_until_complete(expected_jobs=8, max_seconds=600.0)
    assert system.completed_count() == 8
    # Pull model: jobs were delivered via heartbeat MATCHINFO + accept.
    assert system.cas.gateway.stats["acceptMatch"].calls == 8
