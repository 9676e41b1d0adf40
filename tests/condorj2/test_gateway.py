"""Gateway pipeline, metering, batch envelope and end-to-end fault tests."""

import pytest

from repro.cluster import ClusterSpec, RELIABLE_EXECUTION
from repro.condorj2 import CondorJ2System
from repro.condorj2.api import FaultCode, ServiceFault, ValidationFault
from repro.condorj2.api.gateway import MALFORMED_OP
from repro.condorj2.web.soap import encode_request
from repro.workload import fixed_length_batch
from tests.condorj2.test_soap import MALFORMED_ENVELOPES


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
# metering middleware (per-operation call/fault/latency stats)
# ----------------------------------------------------------------------
def test_meter_records_calls_faults_and_latency():
    system = small_system()
    gateway = system.cas.gateway
    gateway.dispatch("registerMachine", system.nodes[0].describe(), 0.0)
    with pytest.raises(ServiceFault):
        gateway.dispatch(
            "acceptMatch", {"job_id": 404, "vm_id": "vm0@x"}, 0.0
        )
    register = gateway.stats["registerMachine"]
    assert register.calls == 1
    assert register.faults == 0
    assert register.handler_seconds > 0.0
    assert register.max_handler_seconds <= register.handler_seconds
    assert register.statements > 0
    accept = gateway.stats["acceptMatch"]
    assert accept.calls == 1
    assert accept.faults == 1
    assert accept.fault_codes == {FaultCode.CONFLICT: 1}
    assert accept.fault_rate == 1.0


def test_validation_failures_meter_without_counting_a_call():
    system = small_system()
    with pytest.raises(ValidationFault):
        system.cas.gateway.dispatch("acceptMatch", {"job_id": 1}, 0.0)
    stats = system.cas.gateway.stats["acceptMatch"]
    assert stats.calls == 0
    assert stats.fault_codes == {FaultCode.VALIDATION: 1}
    # ...but it still counts as an attempt, so the fault rate is honest.
    assert stats.attempts == 1
    assert stats.fault_rate == 1.0


def test_fault_rate_shares_a_denominator_across_fault_kinds():
    """Validation faults (pre-handler) and handler faults must land in
    the same attempts denominator — 1 success + 2 validation faults is
    a 2/3 fault rate, never 2.0 or 0.0."""
    system = small_system()
    system.cas.gateway.dispatch("submitJob", {"owner": "a"}, 0.0)
    for _ in range(2):
        with pytest.raises(ValidationFault):
            system.cas.gateway.dispatch("submitJob", {"owner": 7}, 0.0)
    stats = system.cas.gateway.stats["submitJob"]
    assert stats.attempts == 3
    assert stats.calls == 1
    assert stats.faults == 2
    assert stats.fault_rate == pytest.approx(2 / 3)


def test_meter_attributes_statement_work_per_operation():
    system = small_system()
    system.cas.gateway.dispatch("registerMachine",
                                system.nodes[0].describe(), 0.0)
    system.cas.gateway.dispatch("submitJob", {"owner": "a"}, 0.0)
    stats = system.cas.gateway.stats
    assert stats["submitJob"].row_work > 0
    assert stats["submitJob"].sim_seconds > 0.0


# ----------------------------------------------------------------------
# batch dispatch: isolation and batchability
# ----------------------------------------------------------------------
def test_batch_isolates_per_op_faults():
    system = small_system()
    items = system.cas.gateway.dispatch_batch(
        [
            ("submitJob", {"owner": "a"}),
            ("acceptMatch", {"job_id": 404, "vm_id": "nope"}),
            ("queueSummary", {}),
        ],
        0.0,
    )
    assert [item.ok for item in items] == [True, False, True]
    assert items[1].fault.code == FaultCode.CONFLICT
    assert items[2].result["idle"] == 1


def test_non_batchable_operation_is_refused_in_batch():
    system = small_system()
    items = system.cas.gateway.dispatch_batch(
        [("registerMachine", system.nodes[0].describe())], 0.0
    )
    assert not items[0].ok
    assert items[0].fault.code == FaultCode.VALIDATION
    assert items[0].fault.subcode == "not-batchable"
    # ...but it is fine as a single-op envelope.
    assert system.cas.gateway.dispatch(
        "registerMachine", system.nodes[0].describe(), 0.0
    )["status"] == "OK"


# ----------------------------------------------------------------------
# end-to-end fault paths through the CAS (each charged in the cost model)
# ----------------------------------------------------------------------
def _send_raw(system, envelope):
    """Push a raw envelope through the network to the CAS."""
    return system.sim.spawn(_raw_call(system, envelope))


def _raw_call(system, envelope):
    from repro.condorj2.web.soap import decode_response, envelope_size
    from repro.sim.kernel import Wait
    from repro.sim.network import RpcResult

    signal = system.network.request(
        system.user, "cas", "raw", payload=envelope,
        size_bytes=envelope_size(envelope),
    )
    _, result = yield Wait(signal)
    assert isinstance(result, RpcResult)
    return decode_response(result.value)


@pytest.mark.parametrize(
    "envelope_factory, expected_code, expected_subcode",
    [
        (lambda: "<soap:Envelope><garbage>", FaultCode.MALFORMED,
         "bad-envelope"),
        (lambda: encode_request("noSuchOp", {}), FaultCode.UNKNOWN_OP,
         "unregistered"),
        (lambda: encode_request("acceptMatch", {"job_id": 1}),
         FaultCode.VALIDATION, "missing-field"),
        # Every envelope the rescanning decoder mis-read (accepted, or
        # crashed on with ValueError/RecursionError, which the client saw
        # as INTERNAL/transport: "requeue and retry").
        *[
            pytest.param(lambda envelope=envelope: envelope,
                         FaultCode.MALFORMED, subcode, id=name)
            for name, (envelope, subcode)
            in sorted(MALFORMED_ENVELOPES.items())
        ],
    ],
)
def test_fault_paths_end_to_end(envelope_factory, expected_code,
                                expected_subcode):
    system = small_system()
    system.start()
    system.sim.run(until=5.0)
    faults_before = system.cas.faults_returned
    user_cpu_before = system.server_host.meter.total_seconds("user")
    process = _send_raw(system, envelope_factory())
    system.sim.run(until=10.0)
    assert process.done
    fault = process.error
    assert isinstance(fault, ServiceFault)
    assert fault.code == expected_code
    assert fault.subcode == expected_subcode
    assert system.cas.faults_returned == faults_before + 1
    # The fault consumed real simulated CPU: parse + encode at minimum.
    assert (system.server_host.meter.total_seconds("user")
            > user_cpu_before)
    if expected_code == FaultCode.MALFORMED:
        # ...and an undecodable envelope's share lands on the pseudo-op.
        assert system.cas.gateway.stats[MALFORMED_OP].sim_seconds > 0.0


def test_malformed_envelopes_are_metered():
    system = small_system()
    system.start()
    system.sim.run(until=5.0)
    _send_raw(system, "<soap:Envelope><garbage>")
    system.sim.run(until=10.0)
    stats = system.cas.gateway.stats[MALFORMED_OP]
    assert stats.fault_codes == {FaultCode.MALFORMED: 1}
    # The garbage still consumed parse + encode CPU, and it shows.
    assert stats.sim_seconds > 0.0
    # Non-numeric text in a numeric element is metered the same way: it
    # used to leave the CAS as an untyped ValueError, so no fault was
    # counted and nothing was charged to the pseudo-op.
    charged = stats.sim_seconds
    faults_before = system.cas.faults_returned
    _send_raw(system, MALFORMED_ENVELOPES["int-text"][0])
    system.sim.run(until=15.0)
    assert stats.fault_codes == {FaultCode.MALFORMED: 2}
    assert stats.sim_seconds > charged
    assert system.cas.faults_returned == faults_before + 1


def test_unknown_ops_never_create_raw_stats_rows():
    """The transport charge for an unresolved operation name lands on
    the "(unknown)" pseudo-op, not on an arbitrary client-supplied
    string (which would grow the stats table unboundedly)."""
    from repro.condorj2.api.gateway import UNKNOWN_OP

    system = small_system()
    system.start()
    system.sim.run(until=5.0)
    _send_raw(system, encode_request("noSuchOp", {}))
    system.sim.run(until=10.0)
    assert "noSuchOp" not in system.cas.gateway.stats
    unknown = system.cas.gateway.stats[UNKNOWN_OP]
    assert unknown.fault_codes == {FaultCode.UNKNOWN_OP: 1}
    assert unknown.sim_seconds > 0.0


# ----------------------------------------------------------------------
# the batch envelope in the wild: fewer simulated round-trips
# ----------------------------------------------------------------------
def _four_vm_system(**kwargs):
    return CondorJ2System(
        ClusterSpec(physical_nodes=1, vms_per_node=4,
                    dual_core_fraction=0.0, speed_jitter=0.0),
        seed=5, execution=RELIABLE_EXECUTION, **kwargs,
    )


def _vm_states(system):
    return {row["vm_id"]: row["state"] for row in system.cas.db.query_all(
        "SELECT vm_id, state FROM vms ORDER BY vm_id")}


def test_accepts_ride_one_batch_and_starts_ride_the_heartbeat():
    """Four jobs matched onto one 4-VM machine: the accepts go out as
    one batch envelope (not four round-trips), and "execution began" is
    a ``started`` event on the next heartbeat — no envelope, batch or
    single, carries a beginExecute."""
    system = _four_vm_system(record_trace=True)
    system.submit_at(0.0, fixed_length_batch(4, 15.0))
    system.start()
    system.sim.run(until=10.0)  # accepted and started; 15 s jobs still run
    assert set(_vm_states(system).values()) == {"busy"}
    assert system.cas.db.counts.transitions["vms"]["claiming->busy"] == 4

    system.run_until_complete(expected_jobs=4, max_seconds=600.0)
    assert system.completed_count() == 4
    assert system.cas.gateway.stats["acceptMatch"].calls == 4
    assert system.trace.count("acceptMatch") == 0
    assert system.trace.count("batch") == 1
    # Every op of every envelope is metered as an attempt, so this also
    # covers the inside of the batch.
    assert "beginExecute" not in system.cas.gateway.stats
    assert system.trace.count("beginExecute") == 0


def test_faulted_heartbeat_requeues_its_started_events():
    """A heartbeat that commits and then faults at the application level
    is resent with the same events, ``started`` included, ahead of
    anything newer; the replay leaves every slot as it was."""
    from repro.condorj2.api import ConflictFault

    system = _four_vm_system()
    gateway = system.cas.gateway
    original = gateway.registry.handler("heartbeat")
    seen = []  # (events, slot states once applied), from the fault on

    def flaky(payload, now):
        response = original(payload, now)
        events = [dict(event) for event in payload["events"]]
        if seen or events:
            seen.append((events, _vm_states(system)))
        if len(seen) == 1:
            raise ConflictFault("injected heartbeat fault",
                                subcode="injected-test")
        return response

    gateway.registry.bind("heartbeat", flaky)
    system.submit_at(0.0, fixed_length_batch(4, 15.0))
    system.run_until_complete(expected_jobs=4, max_seconds=600.0)
    assert system.completed_count() == 4
    assert system.startds[0].rpc_failures == 1

    (lost, before), (replayed, after) = seen[:2]
    assert len(lost) == 4
    assert {event["kind"] for event in lost} == {"started"}
    assert replayed[:4] == lost
    assert set(before.values()) == {"busy"} and after == before
    vms = system.cas.db.counts.transitions["vms"]
    assert vms["claiming->busy"] == 4 and vms["busy->idle"] == 4


def accepted_job(backend):
    """A pool on ``backend`` with one job accepted onto one slot."""
    from repro.condorj2.costs import CasCostModel

    system = small_system(costs=CasCostModel(storage_backend=backend))
    dispatch = system.cas.gateway.dispatch
    machine = system.nodes[0].name
    dispatch("registerMachine", system.nodes[0].describe(), 0.0)
    dispatch("submitJob", {"owner": "alice", "run_seconds": 1.0}, 0.0)
    response = dispatch("heartbeat", {"machine": machine}, 1.0)
    match = response["matches"][0]
    ids = {"job_id": match["job_id"], "vm_id": match["vm_id"]}
    dispatch("acceptMatch", ids, 1.0)
    return system, machine, ids


@pytest.mark.parametrize("backend", ["sqlite", "memory", "wal"])
def test_job_that_starts_and_ends_between_beats_walks_every_edge(backend):
    """One payload carries both events; whatever their order in it, the
    start is applied first, so the slot walks claiming -> busy -> idle
    instead of skipping straight home."""
    system, machine, ids = accepted_job(backend)
    system.cas.gateway.dispatch("heartbeat", {
        "machine": machine,
        "events": [{"kind": "completed", **ids}, {"kind": "started", **ids}],
    }, 3.0)
    vms = system.cas.db.counts.transitions["vms"]
    assert vms["claiming->busy"] == 1 and vms["busy->idle"] == 1
    assert "claiming->idle" not in vms
    assert system.cas.db.table_count("job_history") == 1


@pytest.mark.parametrize("backend", ["sqlite", "memory", "wal"])
def test_begin_execute_is_one_guarded_statement(backend):
    """beginExecute stays on the wire for a client that is not on the
    pulse, and costs what its one ``started`` event costs: no machine
    refresh, no MATCHINFO probe, no scheduling pass."""
    system, machine, ids = accepted_job(backend)
    passes = system.cas.scheduling.passes
    beats = system.cas.heartbeat.heartbeats_processed
    reply = system.cas.gateway.dispatch(
        "beginExecute", {"machine": machine, **ids}, 2.0)
    assert reply == {"status": "OK"}
    stats = system.cas.gateway.stats["beginExecute"]
    assert (stats.calls, stats.statements, stats.max_statements) == (1, 1, 1)
    assert _vm_states(system)[ids["vm_id"]] == "busy"
    assert system.cas.scheduling.passes == passes
    assert system.cas.heartbeat.heartbeats_processed == beats


def test_batch_envelope_via_user_client():
    system = small_system()
    system.start()
    process = system.sim.spawn(system.user.call_batch([
        ("submitJob", {"owner": "alice", "run_seconds": 20.0}),
        ("queueSummary", {}),
        ("jobDetail", {"job_id": 424242}),
        ("acceptMatch", {"job_id": 424242, "vm_id": "ghost"}),
    ]))
    system.sim.run(until=5.0)
    assert process.done and process.error is None
    submit, summary, detail, accept = process.result
    assert submit["status"] == "OK"
    assert summary["idle"] >= 1
    assert detail is None
    assert isinstance(accept, ServiceFault)
    assert accept.code == FaultCode.CONFLICT
    # One transport, four validated dispatches.
    assert system.cas.requests_handled >= 1


#: Per-op ``(sim_seconds, statements, row_work)`` and host seconds by
#: tag for the envelope below, as the commit before the scalar marks
#: (full snapshot/delta around every envelope and every op) charged them
#: — but for acceptMatch, whose miss has since become a DELETE that
#: removes nothing where it was a SELECT that found nothing (one
#: ``delete_seconds`` for one ``select_seconds``: +0.0001 s, here and
#: in the host's user time).
_PINNED_OPS = {
    "acceptMatch": (0.00241109375, 1, 1),
    "jobDetail": (0.00351109375, 2, 2),
    "queueSummary": (0.0023110937499999998, 1, 1),
    "submitJob": (0.006911093749999999, 2, 2),
    "submitJobs": (0.0075110937499999995, 2, 3),
}
_PINNED_HOST = {"user": 0.01865546875, "system": 0.0018000000000000004,
                "io": 0.004}
#: The WAL engine also prices its commit points and the WAL frames each
#: one writes (five per commit here).
_PINNED_WAL = {"submitJob": 0.00901109375, "submitJobs": 0.00961109375,
               "io": 0.0082}


@pytest.mark.parametrize("backend", ["sqlite", "memory", "wal"])
def test_request_path_copies_no_ledger_and_charges_the_same(backend,
                                                            monkeypatch):
    """The CAS and the meter bracket work with scalar marks: serving an
    envelope never calls ``snapshot``/``delta``, and every simulated
    charge is what the full-ledger pair produced."""
    from repro.condorj2.costs import CasCostModel
    from repro.condorj2.storage import StatementCounts

    def copied(*args, **kwargs):
        raise AssertionError("a ledger was copied on the request path")
    monkeypatch.setattr(StatementCounts, "snapshot", copied)
    monkeypatch.setattr(StatementCounts, "delta", copied)

    system = small_system(costs=CasCostModel(storage_backend=backend))
    process = system.sim.spawn(system.user.call_batch([
        ("submitJob", {"owner": "alice", "run_seconds": 20.0}),
        ("submitJobs", {"jobs": [{"owner": "bob", "run_seconds": 5.0},
                                 {"owner": "bob", "run_seconds": 6.0}]}),
        ("queueSummary", {}),
        ("jobDetail", {"job_id": 424242}),
        ("acceptMatch", {"job_id": 424242, "vm_id": "ghost"}),
    ]))
    system.sim.run(until=5.0)
    assert process.done and process.error is None
    assert isinstance(process.result[-1], ServiceFault)  # per-op, not fatal

    wal = _PINNED_WAL if backend == "wal" else {}
    stats = system.cas.gateway.stats
    assert sorted(stats) == sorted(_PINNED_OPS)
    for operation, (sim_seconds, statements, row_work) in _PINNED_OPS.items():
        observed = stats[operation]
        assert observed.sim_seconds == pytest.approx(
            wal.get(operation, sim_seconds), abs=1e-12), operation
        assert (observed.statements, observed.row_work) == (
            statements, row_work), operation
    meter = system.server_host.meter
    for tag, seconds in _PINNED_HOST.items():
        assert meter.total_seconds(tag) == pytest.approx(
            wal.get(tag, seconds), abs=1e-12), tag
    counts = system.cas.db.counts
    assert (counts.statements, counts.total(), counts.commits) == (8, 9, 2)

    # The periodic pass brackets its work the same way: still looping
    # (a raised AssertionError would have ended the process).
    loop = system.sim.spawn(system.cas._scheduler_loop())
    system.sim.run(until=8.5)
    assert not loop.done and system.cas.scheduling.passes == 3


def test_statistics_page_surfaces_per_operation_stats():
    system = small_system()
    system.start()
    system.submit_at(1.0, fixed_length_batch(4, 15.0))
    system.run_until_complete(expected_jobs=4, max_seconds=600.0)
    page = system.cas.site.statistics_page()
    assert "Web-Service Operations" in page
    for operation in ("heartbeat", "acceptMatch", "submitJobs"):
        assert operation in page
    assert "fault rate" in page
