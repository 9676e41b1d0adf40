"""Integration tests for the assembled CondorJ2 system."""

import pytest

from repro.cluster import (
    RELIABLE_EXECUTION,
    ClusterSpec,
    ExecutionModel,
    JobSpec,
)
from repro.condorj2 import CondorJ2System
from repro.condorj2.costs import CasCostModel
from repro.condorj2.startd import StartdConfig
from repro.workload import fixed_length_batch, mixed_batch, two_stage_workflow


def small_system(**kwargs):
    defaults = dict(
        cluster=ClusterSpec(physical_nodes=3, vms_per_node=2,
                            dual_core_fraction=0.0, speed_jitter=0.0),
        seed=5,
        execution=RELIABLE_EXECUTION,
    )
    defaults.update(kwargs)
    return CondorJ2System(**defaults)


def test_full_workload_completes():
    system = small_system()
    system.submit_at(0.0, fixed_length_batch(18, 30.0))
    system.run_until_complete(expected_jobs=18, max_seconds=3600.0)
    assert system.completed_count() == 18
    # Operational tables are empty again (Table 2, step 15).
    assert system.cas.db.table_count("jobs") == 0
    assert system.cas.db.table_count("runs") == 0
    assert system.cas.db.table_count("matches") == 0
    assert system.cas.db.table_count("job_history") == 18


def test_machines_register_and_heartbeat():
    system = small_system()
    system.start()
    system.sim.run(until=10.0)
    assert system.cas.db.table_count("machines") == 3
    assert system.cas.db.table_count("vms") == 6
    assert system.cas.db.table_count("machine_boot_history") == 3
    last = system.cas.db.scalar("SELECT MIN(last_heartbeat) FROM machines")
    system.sim.run(until=200.0)
    assert system.cas.db.scalar("SELECT MIN(last_heartbeat) FROM machines") > last


def test_boot_policies_state_the_configuration_in_force():
    """What the admin console reports is what the pool runs on: every
    policy installed at boot is read off the live deployment."""
    costs = CasCostModel(scheduling_interval_seconds=3.0)
    system = small_system(costs=costs)
    system.start()
    policies = {row["policy_name"]: row["policy_value"] for row in
                system.cas.db.query_all("SELECT * FROM config_policies")}
    assert policies == {
        "storage_backend": system.cas.db.engine.name,
        "scheduling_interval_seconds": "3.0",
    }
    page = system.cas.site.config_page(["scheduling_interval_seconds"])
    assert "3.0" in page


def test_pull_model_no_server_initiated_messages():
    system = small_system(record_trace=True)
    system.submit_at(0.0, fixed_length_batch(6, 20.0))
    system.run_until_complete(expected_jobs=6, max_seconds=1200.0)
    startd_bound = [
        r for r in system.trace.records
        if not r.local and r.src_kind == "cas" and r.dst_kind == "startd"
    ]
    # The CAS never initiates: every cas->startd record is a response
    # (requests/responses are recorded once, at request time, src=caller).
    assert startd_bound == []


#: Set-up that often outlasts its timeout: drops, retries, cancelled timers.
FLAKY_EXECUTION = ExecutionModel(
    setup_cpu_seconds=0.2, setup_disk_seconds=0.3,
    teardown_cpu_seconds=0.1, teardown_disk_seconds=0.1,
    timeout_seconds=0.9, jitter_fraction=0.8,
    heavy_tail_prob=0.2, heavy_tail_factor=3.0,
    churn_disk_seconds_per_start=0.0,
)


def test_jobs_survive_drops_and_complete():
    system = small_system(execution=FLAKY_EXECUTION, seed=9)
    system.submit_at(0.0, fixed_length_batch(12, 20.0))
    system.run_until_complete(expected_jobs=12, max_seconds=7200.0)
    assert system.completed_count() == 12
    assert system.log.count("job_dropped") > 0  # drops happened and healed


def test_seeded_pool_is_pinned_event_for_event():
    """The same simulation, pinned: a kernel, wire or scheduling change
    that reorders equal-time events, or moves one envelope's size, moves
    these numbers -- and so would move every figure.  Measured at the
    commit before the event heap took tuple entries; equal on all three
    storage backends.  The statement count has moved since, the rest has
    not: 1612 -> 1513 when "execution began" became a ``started`` event
    on the heartbeat (beginExecute was a whole heartbeat of its own per
    job start), 1513 -> 1465 when acceptMatch's DELETE became its own
    guard (one SELECT fewer for each of the 48 accepts), 1465 -> 1448
    when boot stopped installing four policies nothing runs on and
    installed the other two in one batch (18 statements -> 1).  On wal
    the event count is one higher since that backend became SQLite in WAL
    mode: the cost model prices each commit's WAL frames and the run's two
    checkpoints, and that moves one event."""
    system = small_system(execution=FLAKY_EXECUTION, seed=9)
    # Ids from here, not the process-wide counter: an id's digits are
    # bytes on the wire, and bytes are simulated transport time.
    system.submit_at(0.0, [
        JobSpec(job_id=index + 1, owner=f"user{index % 3}",
                run_seconds=20.0 if index % 6 else 60.0)
        for index in range(36)
    ])
    system.run_until_complete(expected_jobs=36, max_seconds=7200.0)
    db = system.cas.db
    assert system.log.count("job_dropped") > 0  # timeouts and cancels ran
    assert (
        system.sim.events_processed, system.sim.now, db.counts.statements,
        db.table_count("job_history"), system.cas.scheduling.matches_created,
    ) == (2881 if db.engine.name == "wal" else 2880, 210.0, 1448, 36, 48)


def test_mixed_workload_dependency_free_ordering():
    system = small_system()
    system.submit_at(0.0, mixed_batch(8, 2, short_seconds=20.0, long_seconds=60.0))
    system.run_until_complete(expected_jobs=10, max_seconds=3600.0)
    assert system.completed_count() == 10


def test_workflow_dependencies_enforced_end_to_end():
    system = small_system()
    wf = two_stage_workflow(stage1_count=4, stage2_count=1, fan_in=4,
                            stage1_seconds=20.0, stage2_seconds=30.0)
    system.submit_at(0.0, wf.jobs)
    system.run_until_complete(expected_jobs=5, max_seconds=3600.0)
    history = system.cas.db.query_all(
        "SELECT job_id, started_at FROM job_history"
    )
    started = {row["job_id"]: row["started_at"] for row in history}
    stage2 = [j for j in wf.jobs if j.depends_on][0]
    for dep in stage2.depends_on:
        completed_at = system.cas.db.scalar(
            "SELECT completed_at FROM job_history WHERE job_id = ?", (dep,)
        )
        assert started[stage2.job_id] >= completed_at


def test_cpu_metering_produces_samples():
    system = small_system()
    system.submit_at(0.0, fixed_length_batch(6, 30.0))
    system.run_until_complete(expected_jobs=6, max_seconds=1200.0)
    samples = system.server_utilization()
    assert samples
    assert any(s.fraction("user") > 0 for s in samples)


def test_startd_full_state_refresh_cycle():
    config = StartdConfig(idle_poll_seconds=1.0, full_state_every_beats=3)
    system = small_system(startd_config=config)
    system.start()
    system.sim.run(until=30.0)
    # VM states on the server match reality (all idle, nothing running).
    states = [r["state"] for r in system.cas.db.query_all("SELECT state FROM vms")]
    assert states == ["idle"] * 6


def test_deterministic_given_seed():
    def fingerprint(seed):
        system = small_system(seed=seed)
        system.submit_at(0.0, fixed_length_batch(10, 25.0))
        system.run_until_complete(expected_jobs=10, max_seconds=3600.0)
        return tuple(round(t, 6) for t in system.completion_times())

    assert fingerprint(3) == fingerprint(3)


def test_user_client_submit_via_web_service():
    system = small_system()
    system.start()
    process = system.sim.spawn(
        system.user.call("submitJob", {"owner": "bob", "run_seconds": 15.0})
    )
    system.sim.run(until=5.0)
    assert process.done
    assert process.result["status"] == "OK"
    assert system.cas.db.table_count("jobs") == 1


def test_unknown_operation_returns_fault():
    from repro.condorj2.web.soap import ServiceFault

    system = small_system()
    system.start()
    process = system.sim.spawn(system.user.call("noSuchOp", {}))
    system.sim.run(until=5.0)
    assert isinstance(process.error, ServiceFault)
