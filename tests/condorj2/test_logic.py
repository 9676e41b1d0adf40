"""Unit tests for the application-logic layer services."""

import pytest

from repro.cluster import JobSpec
from repro.condorj2.database import (
    Database,
    DatabaseError,
    RowNotFound,
    RowStateError,
)
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    ReportService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.schema import LIFECYCLES, TABLE_BY_NAME, VM_STATES


@pytest.fixture
def services():
    return _services(Database())


def _services(db):
    submission = SubmissionService(db)
    scheduling = SchedulingService(db)
    lifecycle = LifecycleService(db)
    heartbeat = HeartbeatService(db, scheduling, lifecycle)
    reports = ReportService(db)
    config = ConfigService(db)
    return db, submission, scheduling, lifecycle, heartbeat, reports, config


def register_machine(heartbeat, name="m1", vm_count=2, now=0.0):
    heartbeat.register_machine(
        {"name": name, "arch": "INTEL", "opsys": "LINUX", "cores": 1,
         "memory_mb": 512, "vm_count": vm_count},
        now,
    )


# ----------------------------------------------------------------------
# submission
# ----------------------------------------------------------------------
def test_submit_job_inserts_tuple(services):
    db, submission, *_ = services
    job_id = submission.submit_job(JobSpec(owner="alice", run_seconds=30.0), now=1.0)
    row = db.query_one("SELECT * FROM jobs WHERE job_id = ?", (job_id,))
    assert row["owner"] == "alice"
    assert row["state"] == "idle"
    assert db.table_count("users") == 1


def test_submit_jobs_batch(services):
    db, submission, *_ = services
    ids = submission.submit_jobs([JobSpec(), JobSpec(), JobSpec()], now=0.0)
    assert len(ids) == 3
    assert db.table_count("jobs") == 3


def test_submitted_job_row_carries_its_spec(services):
    db, submission, *_ = services
    spec = JobSpec(owner="bob", cmd="/bin/sim", args=("-n", "4"),
                   run_seconds=12.5, image_size_mb=64,
                   requirements="Arch == \"INTEL\"", rank="Memory")
    submission.submit_job(spec, now=7.0)
    row = db.query_one(
        "SELECT owner, cmd, args, state, run_seconds, image_size_mb, "
        "requirements, rank, submitted_at, attempts FROM jobs "
        "WHERE job_id = ?", (spec.job_id,))
    assert tuple(row) == ("bob", "/bin/sim", "-n 4", "idle", 12.5, 64,
                          "Arch == \"INTEL\"", "Memory", 7.0, 0)


def test_submit_jobs_is_three_batches_whatever_its_size(services):
    """One batch each for owners, job tuples and dependency edges; no
    statement per job (footnote 1: no object per tuple either)."""
    db, submission, *_ = services
    first = JobSpec(owner="alice")
    specs = [first, JobSpec(owner="bob"),
             JobSpec(owner="alice", depends_on=(first.job_id,)),
             JobSpec(owner="carol"), JobSpec(owner="bob")]
    before = db.counts.snapshot()
    submission.submit_jobs(specs, now=0.0)
    spent = db.counts.delta(before)
    assert (spent.statements, spent.batches) == (3, 3)
    assert spent.insert == 3 + 5 + 1  # rows of work, one per parameter row
    assert db.table_count("users") == 3
    assert db.table_count("jobs") == 5
    assert db.table_count("job_dependencies") == 1


def test_submit_jobs_refuses_the_whole_batch_on_one_bad_row(services):
    db, submission, *_ = services
    taken = submission.submit_job(JobSpec(owner="alice"), now=0.0)
    fresh = JobSpec(owner="dave")
    with pytest.raises(DatabaseError):
        submission.submit_jobs([fresh, JobSpec(job_id=taken)], now=1.0)
    assert [row[0] for row in db.query_all("SELECT job_id FROM jobs")] == [taken]
    assert db.scalar("SELECT COUNT(*) FROM users WHERE user_name = 'dave'") == 0


def test_remove_idle_job(services):
    db, submission, *_ = services
    job_id = submission.submit_job(JobSpec(), now=0.0)
    submission.remove_job(job_id)
    assert db.table_count("jobs") == 0


def test_remove_matched_job_takes_its_match_and_frees_the_slot(services):
    db, submission, scheduling, _, heartbeat, *_ = services
    register_machine(heartbeat, vm_count=1)
    first = submission.submit_job(JobSpec(), now=0.0)
    second = submission.submit_job(JobSpec(), now=0.0)
    assert scheduling.run_pass(now=1.0) == 1
    submission.remove_job(first)
    assert db.table_count("matches") == 0
    assert scheduling.run_pass(now=2.0) == 1  # the slot goes to the next job
    assert db.scalar("SELECT job_id FROM matches") == second


def test_remove_unknown_or_already_removed_job_is_not_found(services):
    _, submission, *_ = services
    job_id = submission.submit_job(JobSpec(), now=0.0)
    submission.remove_job(job_id)
    for missing in (job_id, 10 ** 9):
        with pytest.raises(RowNotFound):
            submission.remove_job(missing)


def test_remove_running_job_rejected(services):
    db, submission, scheduling, lifecycle, heartbeat, *_ = services
    register_machine(heartbeat)
    job_id = submission.submit_job(JobSpec(), now=0.0)
    scheduling.run_pass(now=1.0)
    match = db.query_one("SELECT vm_id FROM matches WHERE job_id = ?", (job_id,))
    lifecycle.accept_match(job_id, match["vm_id"], now=2.0)
    with pytest.raises(RowStateError, match="in state 'running'"):
        submission.remove_job(job_id)
    assert db.table_count("runs") == 1


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
def test_scheduling_pass_creates_matches(services):
    db, submission, scheduling, _, heartbeat, *_ = services
    register_machine(heartbeat, vm_count=2)
    submission.submit_jobs([JobSpec(), JobSpec(), JobSpec()], now=0.0)
    created = scheduling.run_pass(now=1.0)
    assert created == 2  # limited by idle VMs
    assert db.table_count("matches") == 2
    states = [r["state"] for r in db.query_all(
        "SELECT state FROM jobs ORDER BY job_id")]
    assert states.count("matched") == 2
    assert states.count("idle") == 1


def test_scheduling_pass_idempotent_when_no_capacity(services):
    _, submission, scheduling, _, heartbeat, *_ = services
    register_machine(heartbeat, vm_count=1)
    submission.submit_jobs([JobSpec()], now=0.0)
    assert scheduling.run_pass(now=1.0) == 1
    assert scheduling.run_pass(now=2.0) == 0  # vm already matched


def test_scheduling_respects_user_priority(services):
    db, submission, scheduling, _, heartbeat, *_ = services
    register_machine(heartbeat, vm_count=1)
    low = JobSpec(owner="low-priority")
    high = JobSpec(owner="high-priority")
    submission.submit_jobs([low, high], now=0.0)
    db.execute(
        "UPDATE users SET priority = 0.9 WHERE user_name = 'low-priority'"
    )
    db.execute(
        "UPDATE users SET priority = 0.1 WHERE user_name = 'high-priority'"
    )
    scheduling.run_pass(now=1.0)
    match = db.query_one("SELECT job_id FROM matches")
    assert match["job_id"] == high.job_id


def test_scheduling_defers_dependent_jobs(services):
    db, submission, scheduling, lifecycle, heartbeat, *_ = services
    register_machine(heartbeat, vm_count=2)
    parent = JobSpec()
    child = JobSpec(depends_on=(parent.job_id,))
    submission.submit_jobs([parent, child], now=0.0)
    scheduling.run_pass(now=1.0)
    matched = [r["job_id"] for r in db.query_all("SELECT job_id FROM matches")]
    assert matched == [parent.job_id]
    # Complete the parent; the child becomes eligible.
    match = db.query_one("SELECT vm_id FROM matches")
    lifecycle.accept_match(parent.job_id, match["vm_id"], now=2.0)
    lifecycle.complete_jobs([(parent.job_id, match["vm_id"])], now=3.0)
    scheduling.run_pass(now=4.0)
    matched = [r["job_id"] for r in db.query_all("SELECT job_id FROM matches")]
    assert child.job_id in matched


def test_pending_matches_scoped_to_machine(services):
    db, submission, scheduling, _, heartbeat, *_ = services
    register_machine(heartbeat, "m1", vm_count=1)
    register_machine(heartbeat, "m2", vm_count=1)
    submission.submit_jobs([JobSpec(), JobSpec()], now=0.0)
    scheduling.run_pass(now=1.0)
    m1_matches = scheduling.pending_matches_for_machine("m1")
    m2_matches = scheduling.pending_matches_for_machine("m2")
    assert len(m1_matches) == 1
    assert len(m2_matches) == 1
    assert m1_matches[0]["vm_id"].endswith("@m1")


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def full_cycle(services, now=0.0):
    db, submission, scheduling, lifecycle, heartbeat, *_ = services
    register_machine(heartbeat)
    job_id = submission.submit_job(JobSpec(owner="alice", run_seconds=60.0), now)
    scheduling.run_pass(now + 1)
    match = db.query_one("SELECT vm_id FROM matches WHERE job_id = ?", (job_id,))
    return job_id, match["vm_id"]


def test_accept_match_moves_match_to_run(services):
    db, *_ = services
    lifecycle = services[3]
    job_id, vm_id = full_cycle(services)
    response = lifecycle.accept_match(job_id, vm_id, now=2.0)
    assert response["status"] == "OK"
    assert db.table_count("matches") == 0
    assert db.table_count("runs") == 1
    job = db.query_one("SELECT state FROM jobs WHERE job_id = ?", (job_id,))
    assert job["state"] == "running"


def test_accept_match_unknown_pair_raises(services):
    lifecycle = services[3]
    with pytest.raises(RowNotFound):
        lifecycle.accept_match(999, "vm0@nowhere", now=0.0)


def test_accept_match_rejects_job_not_in_matched_state(services):
    """The jobs guard is a lifecycle check, and its failure is atomic:
    the match and run tuples written earlier in the transaction roll
    back (the paper's footnote-7 guarantee)."""
    db = services[0]
    lifecycle = services[3]
    job_id, vm_id = full_cycle(services)
    db.execute(
        "UPDATE jobs SET state = 'idle' "
        "WHERE job_id = ? AND state = 'matched'",
        (job_id,),
    )
    with pytest.raises(RowStateError, match="illegal transition to 'running'"):
        lifecycle.accept_match(job_id, vm_id, now=2.0)
    assert db.table_count("matches") == 1
    assert db.table_count("runs") == 0
    job = db.query_one(
        "SELECT state FROM jobs WHERE job_id = ?", (job_id,))
    assert job["state"] == "idle"


def test_accept_match_rejects_non_idle_vm(services):
    db = services[0]
    lifecycle = services[3]
    job_id, vm_id = full_cycle(services)
    db.execute(
        "UPDATE vms SET state = 'busy' WHERE vm_id = ? AND state = 'idle'",
        (vm_id,),
    )
    with pytest.raises(RowStateError, match="cannot claim a non-idle slot"):
        lifecycle.accept_match(job_id, vm_id, now=2.0)
    # The whole acceptMatch rolled back: the job is still matched.
    job = db.query_one(
        "SELECT state FROM jobs WHERE job_id = ?", (job_id,))
    assert job["state"] == "matched"
    assert db.table_count("matches") == 1


def test_complete_job_performs_post_execution_processing(services):
    db = services[0]
    lifecycle = services[3]
    job_id, vm_id = full_cycle(services)
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    lifecycle.complete_jobs([(job_id, vm_id)], now=62.0)
    # Operational tuples gone (Table 2, step 15).
    assert db.table_count("jobs") == 0
    assert db.table_count("runs") == 0
    # History + accounting written.
    history = db.query_one("SELECT * FROM job_history WHERE job_id = ?", (job_id,))
    assert history["final_state"] == "completed"
    assert history["completed_at"] == 62.0
    accounting = db.query_one("SELECT * FROM accounting WHERE job_id = ?", (job_id,))
    assert accounting["wall_seconds"] == pytest.approx(60.0)
    usage = db.scalar(
        "SELECT accumulated_usage_seconds FROM users WHERE user_name = 'alice'"
    )
    assert usage == pytest.approx(60.0)


def test_complete_unstarted_job_rejected(services):
    lifecycle = services[3]
    job_id, vm_id = full_cycle(services)
    with pytest.raises(RowStateError):
        lifecycle.complete_jobs([(job_id, vm_id)], now=10.0)


def test_drop_requeues_job(services):
    db = services[0]
    lifecycle = services[3]
    job_id, vm_id = full_cycle(services)
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    lifecycle.report_drop(job_id, vm_id, now=3.0, reason="setup-timeout")
    job = db.query_one("SELECT state FROM jobs WHERE job_id = ?", (job_id,))
    assert job["state"] == "idle"
    assert db.table_count("runs") == 0
    vm = db.query_one("SELECT state FROM vms WHERE vm_id = ?", (vm_id,))
    assert vm["state"] == "idle"


def test_history_records_completions_only_and_reports_nothing_else(services):
    """A drop requeues the job and writes no history row, so no report
    filters ``job_history`` by outcome and no index is kept for one
    (drop statistics come from the event log: ``drop_stats``)."""
    db, lifecycle, reports = services[0], services[3], services[5]
    job_id, vm_id = full_cycle(services)
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    lifecycle.report_drop(job_id, vm_id, now=3.0, reason="setup-timeout")
    assert db.table_count("job_history") == 0
    services[2].run_pass(now=4.0)
    lifecycle.accept_match(job_id, vm_id, now=5.0)
    lifecycle.complete_jobs([(job_id, vm_id)], now=65.0)
    outcomes = db.query_all("SELECT final_state FROM job_history")
    assert [row["final_state"] for row in outcomes] == ["completed"]
    assert not hasattr(reports, "drops_by_machine")
    assert [index.name for index in TABLE_BY_NAME["job_history"].indexes] == [
        "idx_job_history_owner"]


# ----------------------------------------------------------------------
# heartbeat
# ----------------------------------------------------------------------
def test_register_machine_creates_tuples_and_boot_history(services):
    db = services[0]
    heartbeat = services[4]
    heartbeat.register_machine(
        {"name": "m9", "arch": "SPARC", "opsys": "SOLARIS", "cores": 2,
         "memory_mb": 1024.0, "vm_count": 3}, 1.0)
    assert db.table_count("machines") == 1
    assert db.table_count("vms") == 3
    assert db.table_count("machine_boot_history") == 1
    register_machine(heartbeat, "m9", vm_count=3, now=100.0)  # reboot
    assert db.table_count("vms") == 3  # no duplicates
    machine = db.query_one(
        "SELECT boot_count, last_heartbeat FROM machines "
        "WHERE machine_name = 'm9'")
    assert tuple(machine) == (2, 100.0)
    # Each boot records the description the machine booted with: its
    # attributes change only when the machine is rebooted, and the
    # reboot stores the new ones.
    history = db.query_all(
        "SELECT booted_at, arch, opsys, cores, memory_mb "
        "FROM machine_boot_history ORDER BY boot_id")
    assert [tuple(row) for row in history] == [
        (1.0, "SPARC", "SOLARIS", 2, 1024.0),
        (100.0, "INTEL", "LINUX", 1, 512.0)]
    stored = db.query_one(
        "SELECT arch, opsys, cores, memory_mb, vm_count FROM machines "
        "WHERE machine_name = 'm9'")
    assert tuple(stored) == ("INTEL", "LINUX", 1, 512.0, 3)


def test_reboot_with_more_slots_stores_the_new_vm_count(services):
    db = services[0]
    heartbeat = services[4]
    register_machine(heartbeat, "m3", vm_count=2, now=1.0)
    register_machine(heartbeat, "m3", vm_count=4, now=2.0)
    assert db.scalar(
        "SELECT vm_count FROM machines WHERE machine_name = 'm3'") == 4
    assert db.table_count("vms") == 4


def test_first_contact_stores_the_machine_as_described(services):
    db = services[0]
    heartbeat = services[4]
    heartbeat.register_machine(
        {"name": "m5", "arch": "X86_64", "opsys": "OSX", "cores": 8,
         "memory_mb": 4096.0, "vm_count": 2}, 3.0)
    machine = db.query_one(
        "SELECT arch, opsys, cores, memory_mb, vm_count, state, "
        "last_heartbeat, boot_count FROM machines WHERE machine_name = 'm5'")
    assert tuple(machine) == ("X86_64", "OSX", 8, 4096.0, 2, "alive", 3.0, 1)
    vms = db.query_all(
        "SELECT vm_id, state, last_update FROM vms "
        "WHERE machine_name = 'm5' ORDER BY vm_id")
    assert [tuple(vm) for vm in vms] == [
        ("vm0@m5", "idle", 3.0), ("vm1@m5", "idle", 3.0)]


def _verbs(db, action):
    """The leading verb of every statement ``action`` dispatches, sorted
    (the text ledger keeps first-ever-seen order, not this call's)."""
    before = db.counts.snapshot()
    action()
    texts = db.counts.delta(before).texts
    return sorted(sql.split()[0] for sql, n in texts.items() for _ in range(n))


def test_register_machine_reads_no_row_back_after_its_insert(services):
    """First contact looks the machine up once and then only writes;
    a re-registration skips the machine INSERT."""
    db = services[0]
    heartbeat = services[4]
    first = _verbs(db, lambda: register_machine(heartbeat, "m7", now=1.0))
    assert first == ["INSERT", "INSERT", "INSERT", "SELECT", "UPDATE"]
    again = _verbs(db, lambda: register_machine(heartbeat, "m7", now=2.0))
    assert again == ["INSERT", "INSERT", "SELECT", "UPDATE"]


@pytest.mark.parametrize("description", [
    {"name": "m-bad", "cores": 0, "vm_count": 2},
    {"name": "m-bad", "cores": 2, "vm_count": 0},
], ids=["no-cores", "no-vms"])
def test_register_machine_refuses_no_cores_or_vms_before_any_statement(
        services, description):
    db = services[0]
    heartbeat = services[4]
    before = db.counts.statements
    with pytest.raises(ValueError, match="^machine must have cores and vms$"):
        heartbeat.register_machine(description, 0.0)
    assert db.counts.statements == before


def test_heartbeat_updates_machine_and_vms(services):
    db = services[0]
    heartbeat = services[4]
    register_machine(heartbeat, "m1", vm_count=2)
    response = heartbeat.process(
        {"machine": "m1",
         "vms": [{"vm_id": "vm0@m1", "state": "busy"}],
         "events": []},
        now=50.0,
    )
    assert response["status"] == "OK"
    machine = db.query_one("SELECT last_heartbeat FROM machines")
    assert machine["last_heartbeat"] == 50.0
    vm = db.query_one("SELECT state FROM vms WHERE vm_id = 'vm0@m1'")
    assert vm["state"] == "busy"


def test_heartbeat_returns_matchinfo(services):
    _, submission, scheduling, _, heartbeat, *_ = services
    register_machine(heartbeat, "m1", vm_count=1)
    submission.submit_job(JobSpec(run_seconds=10.0), now=0.0)
    response = heartbeat.process({"machine": "m1", "vms": [], "events": []}, now=1.0)
    # inline scheduling produced a match for the idle VM
    assert response["status"] == "MATCHINFO"
    assert len(response["matches"]) == 1
    assert response["matches"][0]["run_seconds"] == 10.0


def test_heartbeat_completion_event_flow(services):
    db, submission, scheduling, lifecycle, heartbeat, *_ = services
    job_id, vm_id = full_cycle(services)
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    response = heartbeat.process(
        {"machine": "m1", "vms": [],
         "events": [{"kind": "completed", "job_id": job_id, "vm_id": vm_id}]},
        now=62.0,
    )
    assert db.table_count("job_history") == 1
    assert db.table_count("jobs") == 0


def test_heartbeat_unknown_event_kind_raises(services):
    heartbeat = services[4]
    register_machine(heartbeat)
    with pytest.raises(ValueError):
        heartbeat.process(
            {"machine": "m1", "vms": [],
             "events": [{"kind": "exploded", "job_id": 1, "vm_id": "x"}]},
            now=1.0,
        )


def test_heartbeat_unknown_machine_raises(services):
    """The refresh by key is the whole check: a miss is an unknown
    machine, and no second statement asks why."""
    db = services[0]
    heartbeat = services[4]
    before = db.counts.statements
    with pytest.raises(RowNotFound):
        heartbeat.process({"machine": "ghost", "vms": [], "events": []},
                          now=1.0)
    assert db.counts.statements - before == 1


REPORT_BACKENDS = ("sqlite", "memory")


@pytest.mark.parametrize("backend", REPORT_BACKENDS)
def test_report_of_unchanged_slots_writes_no_row(backend):
    """The beat's slot report is one batch charged per reported slot,
    but a slot already in the reported state is not rewritten: no row,
    no index entry, no ledger edge, and ``last_update`` keeps the time
    of the slot's last change."""
    db, *_, heartbeat, _, _ = _services(Database(backend=backend))
    register_machine(heartbeat, "m40", vm_count=40, now=1.0)
    before = db.counts.snapshot()
    heartbeat.process(
        {"machine": "m40", "events": [],
         "vms": [{"vm_id": f"vm{index}@m40", "state": "idle"}
                 for index in range(40)]},
        now=2.0)
    delta = db.counts.delta(before)
    # The machine refresh, then one unit per reported slot.
    assert (delta.update, delta.batches) == (1 + 40, 1)
    assert delta.table_writes("vms") == 0
    assert "vms" not in delta.transitions
    assert db.scalar("SELECT MAX(last_update) FROM vms") == 1.0


@pytest.mark.parametrize("backend", REPORT_BACKENDS)
def test_stale_claiming_report_does_not_demote_a_started_slot(backend):
    """The startd queues ``started`` before its slot leaves ``claiming``,
    so one beat can carry both; the event promotes the slot and the
    report that follows it in the same transaction writes nothing."""
    services = _services(Database(backend=backend))
    db, lifecycle = services[0], services[3]
    heartbeat = services[4]
    job_id, vm_id = full_cycle(services)
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    before = db.counts.snapshot()
    heartbeat.process(
        {"machine": "m1",
         "vms": [{"vm_id": vm_id, "state": "claiming"}],
         "events": [{"kind": "started", "job_id": job_id, "vm_id": vm_id}]},
        now=3.0)
    assert db.counts.delta(before).transitions == {
        "vms": {"claiming->busy": 1}}
    assert db.scalar("SELECT state FROM vms WHERE vm_id = ?",
                     (vm_id,)) == "busy"


@pytest.mark.parametrize("backend", REPORT_BACKENDS)
@pytest.mark.parametrize("held", VM_STATES)
@pytest.mark.parametrize("reported", VM_STATES)
def test_report_writes_exactly_the_declared_edges(backend, held, reported):
    """Every (held, reported) pair: the report moves the slot iff the
    lifecycle declares the edge, and writes nothing otherwise."""
    db, *_, heartbeat, _, _ = _services(Database(backend=backend))
    register_machine(heartbeat, "m1", vm_count=1, now=1.0)
    if held != "idle":
        db.execute("UPDATE vms SET state = ? WHERE state = 'idle'", (held,))
    before = db.counts.snapshot()
    heartbeat.process(
        {"machine": "m1", "events": [],
         "vms": [{"vm_id": "vm0@m1", "state": reported}]},
        now=2.0)
    delta = db.counts.delta(before)
    moves = held != reported and LIFECYCLES["vms"].allows(held, reported)
    row = db.query_one("SELECT state, last_update FROM vms")
    if moves:
        assert tuple(row) == (reported, 2.0)
        assert delta.transitions == {"vms": {f"{held}->{reported}": 1}}
    else:
        assert tuple(row) == (held, 1.0)
        assert "vms" not in delta.transitions
    assert delta.table_writes("vms") == int(moves)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def test_queue_summary_groups_by_state(services):
    _, submission, scheduling, _, heartbeat, reports, _ = services
    register_machine(heartbeat, vm_count=1)
    submission.submit_jobs([JobSpec(), JobSpec()], now=0.0)
    scheduling.run_pass(now=1.0)
    summary = reports.queue_summary()
    assert summary["idle"] == 1
    assert summary["matched"] == 1


def test_pool_status_counts(services):
    _, submission, scheduling, _, heartbeat, reports, _ = services
    register_machine(heartbeat, "m1", vm_count=2)
    status = reports.pool_status()
    assert status["machines_total"] == 1
    assert status["machines_alive"] == 1
    assert status["vms_idle"] == 2


def test_user_summary_and_job_detail(services):
    db, submission, scheduling, lifecycle, heartbeat, reports, _ = services
    job_id, vm_id = full_cycle(services)
    assert reports.user_summary("alice")["idle"] == 0  # job is matched
    detail = reports.job_detail(job_id)
    assert detail["source"] == "queue"
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    lifecycle.complete_jobs([(job_id, vm_id)], now=62.0)
    detail = reports.job_detail(job_id)
    assert detail["source"] == "history"
    assert reports.job_detail(987654) is None
    assert reports.user_summary("alice")["completed"] == 1


def test_job_detail_is_the_row_and_its_source(services):
    """A jobDetail reply carries a table's columns and nothing else."""
    db, submission, scheduling, lifecycle, heartbeat, reports, _ = services
    job_id, vm_id = full_cycle(services)

    def columns(table):
        return {col.name for col in TABLE_BY_NAME[table].columns}

    assert set(reports.job_detail(job_id)) == columns("jobs") | {"source"}
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    lifecycle.complete_jobs([(job_id, vm_id)], now=62.0)
    assert (set(reports.job_detail(job_id))
            == columns("job_history") | {"source"})


def test_accounting_by_user_aggregates(services):
    db, submission, scheduling, lifecycle, heartbeat, reports, _ = services
    job_id, vm_id = full_cycle(services)
    lifecycle.accept_match(job_id, vm_id, now=2.0)
    lifecycle.complete_jobs([(job_id, vm_id)], now=62.0)
    rows = reports.accounting_by_user()
    assert rows[0]["owner"] == "alice"
    assert rows[0]["jobs"] == 1


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_config_defaults_and_typed_access(services):
    config = services[6]
    config.install_defaults(0.0, {"scheduling_interval_seconds": "2.0"})
    config.install_defaults(5.0, {"scheduling_interval_seconds": "9.0",
                                  "storage_backend": "sqlite"})
    assert config.get("scheduling_interval_seconds") == "2.0"  # kept
    assert config.get("storage_backend") == "sqlite"  # only the missing one
    assert config.get("missing-policy") is None
    assert config.get("missing-policy", "fallback") == "fallback"


def test_config_set_records_history(services):
    config = services[6]
    config.set("x", "1", now=1.0)
    config.set("x", "2", now=2.0)
    config.set("x", "3", now=3.0, changed_by="ops")
    history = services[0].query_all(
        "SELECT old_value, new_value FROM config_history "
        "WHERE policy_name = 'x' ORDER BY change_id")
    assert [(h["old_value"], h["new_value"]) for h in history] == [
        (None, "1"), ("1", "2"), ("2", "3")]
    stored = services[0].query_one(
        "SELECT policy_value, updated_at, updated_by FROM config_policies "
        "WHERE policy_name = 'x'")
    assert tuple(stored) == ("3", 3.0, "ops")


def test_config_set_reads_only_the_old_value(services):
    """A new name and a change each read the old value once, write the
    policy, and append one history row; nothing is read back."""
    db = services[0]
    config = services[6]
    created = _verbs(db, lambda: config.set("y", "1", now=1.0))
    assert created == ["INSERT", "INSERT", "SELECT"]
    changed = _verbs(db, lambda: config.set("y", "2", now=2.0))
    assert changed == ["INSERT", "SELECT", "UPDATE"]
    assert config.get("y") == "2"
