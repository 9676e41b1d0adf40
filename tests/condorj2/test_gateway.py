"""Gateway pipeline, metering, batch envelope and end-to-end fault tests."""

import pytest

from repro.cluster import ClusterSpec, RELIABLE_EXECUTION
from repro.condorj2 import CondorJ2System
from repro.condorj2.api import (
    ConflictFault,
    ContractRegistry,
    FaultCode,
    OperationContract,
    ServiceFault,
    ValidationFault,
)
from repro.condorj2.api.fields import SchemaDef, f_int, f_str
from repro.condorj2.api.gateway import MALFORMED_OP, ServiceGateway
from repro.condorj2.costs import CasCostModel
from repro.condorj2.database import Database, RowNotFound, RowStateError
from repro.condorj2.logic import ReportService
from repro.condorj2.storage import DatabaseError
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
# every fault path, metered in full
# ----------------------------------------------------------------------
#: What the probe handler raises after its statements, by request mode.
_PROBE_RAISES = {
    "conflict": lambda: ConflictFault("taken", subcode="illegal-state"),
    "not-found": lambda: RowNotFound("no such tuple"),
    "illegal-state": lambda: RowStateError("wrong state"),
    "bad-value": lambda: ValueError("bad number"),
    "server-error": lambda: DatabaseError("disk gone"),
    "untranslated": lambda: RuntimeError("handler bug"),
}


def _probe_gateway():
    """``probe`` (batchable, budget 2) and ``solo`` (not batchable): each
    runs ``statements`` SELECTs, then raises what ``mode`` names, answers
    off its schema (``bad-reply``) or answers OK."""
    db = Database(backend="memory")
    request = SchemaDef("ProbeRequest", (f_str("mode"), f_int("statements")))
    response = SchemaDef("ProbeResponse",
                         (f_str("status", enum=("OK",)),))
    registry = ContractRegistry([
        OperationContract(name=name, version="1.0", summary="fault probe",
                          side_effect="read", request=request,
                          response=response, statement_budget=2,
                          batchable=name == "probe")
        for name in ("probe", "solo")])

    def handler(payload, now):
        for _ in range(payload["statements"]):
            db.scalar("SELECT COUNT(*) FROM jobs")
        mode = payload["mode"]
        if mode in _PROBE_RAISES:
            raise _PROBE_RAISES[mode]()
        return {"status": "NOPE" if mode == "bad-reply" else "OK"}

    for name in ("probe", "solo"):
        registry.bind(name, handler)
    return ServiceGateway(registry, db.counts, CasCostModel())


def _probe(mode, statements=1, operation="probe"):
    return operation, {"mode": mode, "statements": statements}


def _stats_row(stats):
    return (stats.attempts, stats.calls, stats.faults, stats.fault_codes,
            stats.statements, stats.row_work, stats.max_statements,
            stats.budget_overruns, round(stats.sim_seconds, 12))


#: (calls, in_batch) -> (each item's fault or result, or the exception
#: that escaped; every touched operation's meter as ``_stats_row``).
_V, _C, _I, _U = (FaultCode.VALIDATION, FaultCode.CONFLICT,
                  FaultCode.INTERNAL, FaultCode.UNKNOWN_OP)
_FAULT_PATHS = {
    "success": (([_probe("ok", 2)], True), (
        [{"status": "OK"}],
        {"probe": (1, 1, 0, {}, 2, 2, 2, 0, 0.0023)})),
    "unknown-operation": (([("nosuch", {})], True), (
        [("UnknownOperationFault", _U, "unregistered",
          "unknown operation 'nosuch'", "nosuch")],
        {"(unknown)": (1, 0, 1, {_U: 1}, 0, 0, 0, 0, 0.0)})),
    "not-batchable": (([_probe("ok", 0, "solo")], True), (
        [("ValidationFault", _V, "not-batchable",
          "solo may not ride a batch envelope", "solo")],
        {"solo": (1, 0, 1, {_V: 1}, 0, 0, 0, 0, 0.0)})),
    "not-batchable-alone": (([_probe("ok", 0, "solo")], False), (
        [{"status": "OK"}],
        {"solo": (1, 1, 0, {}, 0, 0, 0, 0, 0.0002)})),
    "bad-request": (([("probe", {"mode": 7, "statements": 1})], True), (
        [("ValidationFault", _V, "wrong-type",
          "ProbeRequest.mode: expected string, got int", "probe")],
        {"probe": (1, 0, 1, {_V: 1}, 0, 0, 0, 0, 0.0)})),
    "service-fault": (([_probe("conflict")], True), (
        [("ConflictFault", _C, "illegal-state", "taken", "probe")],
        {"probe": (1, 1, 1, {_C: 1}, 1, 1, 1, 0, 0.0014)})),
    "not-found": (([_probe("not-found")], True), (
        [("ConflictFault", _C, "not-found", "no such tuple", "probe")],
        {"probe": (1, 1, 1, {_C: 1}, 1, 1, 1, 0, 0.0014)})),
    "illegal-state": (([_probe("illegal-state")], True), (
        [("ConflictFault", _C, "illegal-state", "wrong state", "probe")],
        {"probe": (1, 1, 1, {_C: 1}, 1, 1, 1, 0, 0.0014)})),
    "bad-value": (([_probe("bad-value")], True), (
        [("ValidationFault", _V, "bad-value", "bad number", "probe")],
        {"probe": (1, 1, 1, {_V: 1}, 1, 1, 1, 0, 0.0014)})),
    "server-error": (([_probe("server-error")], True), (
        [("InternalFault", _I, "server-error", "disk gone", "probe")],
        {"probe": (1, 1, 1, {_I: 1}, 1, 1, 1, 0, 0.0014)})),
    "bad-reply": (([_probe("bad-reply")], True), (
        [("InternalFault", _I, "response-validation",
          "probe response failed its schema: ProbeResponse.status: "
          "'NOPE' not in ['OK']", "probe")],
        {"probe": (1, 1, 1, {_I: 1}, 1, 1, 1, 0, 0.0014)})),
    "over-budget": (([_probe("ok", 3)], True), (
        [("InternalFault", _I, "budget-exceeded",
          "probe dispatched 3 statements against a budget of 2", "probe")],
        {"probe": (1, 1, 1, {_I: 1}, 3, 3, 3, 1, 0.0032)})),
    "untranslated": (([_probe("untranslated")], True), (
        "RuntimeError",
        {"probe": (1, 1, 0, {}, 1, 1, 1, 0, 0.0014)})),
    "one-envelope-of-each": (([
        _probe("ok", 2), ("nosuch", {}), _probe("ok", 0, "solo"),
        ("probe", {"mode": 7, "statements": 1}), _probe("not-found"),
        _probe("bad-reply", 0), _probe("ok", 3), _probe("server-error", 2),
        _probe("conflict", 0),
    ], True), (
        [{"status": "OK"},
         ("UnknownOperationFault", _U, "unregistered",
          "unknown operation 'nosuch'", "nosuch"),
         ("ValidationFault", _V, "not-batchable",
          "solo may not ride a batch envelope", "solo"),
         ("ValidationFault", _V, "wrong-type",
          "ProbeRequest.mode: expected string, got int", "probe"),
         ("ConflictFault", _C, "not-found", "no such tuple", "probe"),
         ("InternalFault", _I, "response-validation",
          "probe response failed its schema: ProbeResponse.status: "
          "'NOPE' not in ['OK']", "probe"),
         ("InternalFault", _I, "budget-exceeded",
          "probe dispatched 3 statements against a budget of 2", "probe"),
         ("InternalFault", _I, "server-error", "disk gone", "probe"),
         ("ConflictFault", _C, "illegal-state", "taken", "probe")],
        {"(unknown)": (1, 0, 1, {_U: 1}, 0, 0, 0, 0, 0.0),
         "solo": (1, 0, 1, {_V: 1}, 0, 0, 0, 0, 0.0),
         "probe": (7, 6, 6, {_V: 1, _C: 2, _I: 3}, 8, 8, 3, 1, 0.0087)})),
}


@pytest.mark.parametrize("name", sorted(_FAULT_PATHS))
def test_every_fault_path_meters_in_full(name):
    """Each fault the gateway can raise, alone and all in one batch: the
    fault that comes back (type, code, subcode, detail, operation) and
    every meter reading but wall-clock seconds, which are only checked to
    be charged to the calls that reached a handler."""
    (calls, in_batch), (expected_items, expected_stats) = _FAULT_PATHS[name]
    gateway = _probe_gateway()
    try:
        items = gateway.dispatch_batch(calls, 0.0, in_batch=in_batch)
    except Exception as exc:  # noqa: BLE001 - the untranslated path
        outcome = type(exc).__name__
    else:
        outcome = [item.result if item.ok else (
            type(item.fault).__name__, item.fault.code, item.fault.subcode,
            item.fault.detail, item.fault.operation) for item in items]
    assert outcome == expected_items
    assert {operation: _stats_row(stats)
            for operation, stats in gateway.stats.items()} == expected_stats
    for stats in gateway.stats.values():
        assert (stats.handler_seconds > 0.0) == (stats.calls > 0)
        assert stats.max_handler_seconds <= stats.handler_seconds


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


@pytest.mark.parametrize("description", [
    {"name": "m-bad", "vm_count": 0},
    {"name": "m-bad", "cores": 0, "vm_count": 2},
], ids=["no-vms", "no-cores"])
def test_a_machine_without_cores_or_vms_is_the_clients_bad_value(
        description):
    """registerMachine refuses the machine before any statement; the
    value is the client's, so the fault is VALIDATION/bad-value, not the
    INTERNAL a client reads as a server bug, and nothing is written."""
    system = small_system()
    system.start()
    system.sim.run(until=5.0)
    faults_before = system.cas.faults_returned
    process = _send_raw(system, encode_request("registerMachine", description))
    system.sim.run(until=10.0)
    fault = process.error
    assert isinstance(fault, ServiceFault)
    assert (fault.code, fault.subcode) == (FaultCode.VALIDATION, "bad-value")
    assert fault.detail == "machine must have cores and vms"
    stats = system.cas.gateway.stats["registerMachine"]
    assert stats.fault_codes == {FaultCode.VALIDATION: 1}
    assert system.cas.faults_returned == faults_before + 1
    db = system.cas.db
    assert db.scalar("SELECT COUNT(*) FROM machines"
                     " WHERE machine_name = 'm-bad'") == 0
    assert db.scalar("SELECT COUNT(*) FROM vms"
                     " WHERE machine_name = 'm-bad'") == 0


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


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_a_reply_with_no_wire_form_is_answered_with_a_fault(monkeypatch,
                                                            batch):
    """A reply can pass its schema (an ``allow_extra`` field holding
    bytes) and still be refused by the encoder.  That refusal used to
    escape the CAS's request process: the client saw a retryable
    INTERNAL/transport error after the handler had committed, and the
    operation's meter showed no fault.  It is answered, and metered, as
    the operation's INTERNAL/response-validation fault."""
    job_detail = ReportService.job_detail

    def with_bytes(self, job_id):
        detail = job_detail(self, job_id)
        detail["blob"] = b"\x00raw"
        return detail

    monkeypatch.setattr(ReportService, "job_detail", with_bytes)
    system = small_system()
    system.start()
    submit = system.sim.spawn(system.user.call("submitJob", {"owner": "al"}))
    system.sim.run(until=5.0)
    job_id = submit.result["job_id"]
    faults = system.cas.faults_returned
    if batch:
        process = system.sim.spawn(system.user.call_batch([
            ("jobDetail", {"job_id": job_id}), ("queueSummary", {})]))
    else:
        process = system.sim.spawn(
            system.user.call("jobDetail", {"job_id": job_id}))
    system.sim.run(until=10.0)
    assert process.done
    if batch:
        assert process.error is None
        fault, summary = process.result
        assert "idle" in summary
        assert fault.operation == "jobDetail"
    else:
        fault = process.error
    assert isinstance(fault, ServiceFault)
    assert (fault.code, fault.subcode) == (FaultCode.INTERNAL,
                                           "response-validation")
    assert "bytes" in fault.detail
    stats = system.cas.gateway.stats["jobDetail"]
    assert (stats.attempts, stats.calls, stats.faults) == (1, 1, 1)
    assert stats.fault_codes == {FaultCode.INTERNAL: 1}
    assert system.cas.faults_returned == faults + 1
    # The CAS goes on serving.
    summary = system.sim.spawn(system.user.call("queueSummary", {}))
    system.sim.run(until=15.0)
    assert summary.done and summary.error is None


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
#: one writes (four per commit here).
_PINNED_WAL = {"submitJob": 0.00899109375, "submitJobs": 0.00959109375,
               "io": 0.00816}


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
