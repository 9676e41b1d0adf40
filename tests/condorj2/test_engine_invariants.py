"""Cost-shape invariants pinned on *every* storage backend.

The claims that make CondorJ2's scalability story: the scheduling pass is
three statement dispatches regardless of queue depth (one when its probe
finds no idle job or no free slot), and an idle heartbeat
costs a fixed, small number of statements (the per-beat MATCHINFO SELECT
is skipped when the server-side per-machine dirty flag says nothing is
pending).  Each invariant is parametrized over the engines — SQLite,
memory, and the WAL-durable engine — so a backend cannot satisfy the
contract accidentally, and adding durability cannot change the statement
shape the cost model prices.
"""

import pytest

from repro.cluster import JobSpec
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)

BACKENDS = ("sqlite", "memory", "wal")


def build_services(backend):
    db = Database(backend=backend)
    submission = SubmissionService(db)
    scheduling = SchedulingService(db)
    lifecycle = LifecycleService(db)
    heartbeat = HeartbeatService(db, scheduling, lifecycle)
    return db, submission, scheduling, lifecycle, heartbeat


def register(heartbeat, name="m1", vm_count=4, now=0.0):
    heartbeat.register_machine({"name": name, "vm_count": vm_count}, now)


# ----------------------------------------------------------------------
# the statements-per-pass invariant (the test keeps its pre-gate name)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", (50, 800))
def test_scheduling_pass_is_two_statements(backend, depth):
    db, submission, scheduling, _, heartbeat = build_services(backend)
    for machine in range(4):
        register(heartbeat, f"m{machine}", vm_count=4)
    submission.submit_jobs(
        [JobSpec(owner=f"u{i % 5}") for i in range(depth)], now=0.0
    )
    before = db.counts.snapshot()
    created = scheduling.run_pass(now=1.0)
    delta = db.counts.delta(before)
    assert created == 16
    assert delta.statements == 3, (
        "a placing pass is the probe, one INSERT..SELECT and one set "
        "UPDATE at every depth (2 before the pass was gated on its probe)")
    assert delta.commits == 1
    assert delta.insert == 16 and delta.update == 16  # per-row charges
    assert delta.total() == 33  # the probe is one more unit of row work


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_pass_is_one_statement(backend):
    db, _, scheduling, _, _ = build_services(backend)
    before = db.counts.snapshot()
    assert scheduling.run_pass(now=1.0) == 0
    delta = db.counts.delta(before)
    assert delta.statements == 1  # the probe found no idle job
    assert delta.total() == 1
    assert delta.commits == 0  # a gated pass opens no transaction
    # The per-table ledger records *actual* rows, so the no-op pass
    # writes zero match rows — which is exactly what lets the heartbeat
    # dirty flag treat it as "nothing changed".
    assert delta.table_writes("matches") == 0


# ----------------------------------------------------------------------
# the idle-heartbeat dirty flag
# ----------------------------------------------------------------------

def _beat(heartbeat, machine, now):
    return heartbeat.process(
        {"machine": machine, "vms": [], "events": []}, now
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_idle_beat_statement_count_is_pinned(backend):
    """Steady-state idle beats skip the MATCHINFO SELECT: 3 statements
    (machine refresh, idle-VM probe, the gated pass's probe) instead of
    5."""
    db, _, scheduling, _, heartbeat = build_services(backend)
    register(heartbeat, "m1", vm_count=2)
    _beat(heartbeat, "m1", now=1.0)  # first beat pays the full price
    skipped_before = heartbeat.matchinfo_selects_skipped
    before = db.counts.snapshot()
    response = _beat(heartbeat, "m1", now=2.0)
    delta = db.counts.delta(before)
    assert response["status"] == "OK"
    assert delta.statements == 3
    assert delta.select == 2, (
        "the idle-VM probe and the pass's own probe, which replaced the "
        "no-op INSERT..SELECT")
    assert heartbeat.matchinfo_selects_skipped == skipped_before + 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_dirty_flag_never_hides_fresh_matches(backend):
    """A match created by any path re-arms the machine's MATCHINFO probe."""
    db, submission, scheduling, _, heartbeat = build_services(backend)
    register(heartbeat, "m1", vm_count=1)
    register(heartbeat, "m2", vm_count=1)
    assert _beat(heartbeat, "m1", now=1.0)["status"] == "OK"  # marked clean
    submission.submit_jobs([JobSpec(), JobSpec()], now=2.0)
    scheduling.run_pass(now=3.0)  # a server-side pass, not m1's beat
    response = _beat(heartbeat, "m1", now=4.0)
    assert response["status"] == "MATCHINFO"
    assert len(response["matches"]) == 1
    # m2 was never marked clean and sees its match as well
    assert _beat(heartbeat, "m2", now=5.0)["status"] == "MATCHINFO"


@pytest.mark.parametrize("backend", BACKENDS)
def test_dirty_flag_rearms_after_accept_and_drop(backend):
    db, submission, scheduling, lifecycle, heartbeat = \
        build_services(backend)
    register(heartbeat, "m1", vm_count=1)
    submission.submit_jobs([JobSpec()], now=0.0)
    response = _beat(heartbeat, "m1", now=1.0)
    assert response["status"] == "MATCHINFO"
    match = response["matches"][0]
    lifecycle.accept_match(match["job_id"], match["vm_id"], now=2.0)
    # The accept deleted the match tuple (a write): the next beat probes
    # again, finds nothing, and re-marks the machine clean.
    skipped = heartbeat.matchinfo_selects_skipped
    response = _beat(heartbeat, "m1", now=3.0)
    assert response["status"] == "OK"
    assert heartbeat.matchinfo_selects_skipped == skipped
    # A drop frees the VM and requeues the job; the following beat's
    # inline pass creates a fresh match that must be delivered.
    lifecycle.report_drop(match["job_id"], match["vm_id"], now=4.0)
    response = _beat(heartbeat, "m1", now=5.0)
    assert response["status"] == "MATCHINFO"


@pytest.mark.parametrize("backend", BACKENDS)
def test_rollback_invalidates_clean_marks(backend):
    """A rollback restores rows without reverting the write counter, so
    it must invalidate every clean mark — otherwise a match deleted in
    an aborted transaction could stay hidden after being restored."""
    db, submission, scheduling, _, heartbeat = build_services(backend)
    register(heartbeat, "m1", vm_count=1)
    submission.submit_jobs([JobSpec()], now=0.0)
    response = _beat(heartbeat, "m1", now=1.0)
    assert response["status"] == "MATCHINFO"
    job_id = response["matches"][0]["job_id"]
    # Delete the match inside a transaction, observe empty (mark set),
    # then abort: the match row comes back but the counters do not move.
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("DELETE FROM matches WHERE job_id = ?", (job_id,))
            assert heartbeat._pending_matches("m1") == []
            raise RuntimeError("abort")
    assert db.table_count("matches") == 1
    response = _beat(heartbeat, "m1", now=2.0)
    assert response["status"] == "MATCHINFO"  # not hidden by a stale mark


@pytest.mark.parametrize("backend", BACKENDS)
def test_idle_pool_sql_shrinks_with_dirty_flag(backend):
    """Fifty idle beats cost 2 fewer SELECT dispatches each than the
    pre-fix path (the MATCHINFO SELECT plus its re-check after the
    inline pass)."""
    db, _, _, _, heartbeat = build_services(backend)
    register(heartbeat, "m1", vm_count=2)
    _beat(heartbeat, "m1", now=0.5)
    before = db.counts.snapshot()
    for beat in range(50):
        _beat(heartbeat, "m1", now=1.0 + beat)
    delta = db.counts.delta(before)
    assert delta.statements == 3 * 50
    assert delta.select == 2 * 50, (
        "per beat: the idle-VM probe and the gated pass's probe (the "
        "latter was a no-op INSERT..SELECT before the gate)")
    assert heartbeat.matchinfo_selects_skipped >= 100


# ----------------------------------------------------------------------
# one statement cache, one ledger
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_ledger_pairs_are_equal_by_construction(backend):
    """``prepared_*`` and ``plan_*`` are ticked by the one admission, so
    after any workload — evictions included — each pair is equal, every
    statement was admitted exactly once, and the eviction count is what
    the cache's occupancy implies.  (What lets a later benchmark change
    report one pair instead of two; the cache keeps no third copy.)"""
    db, submission, scheduling, lifecycle, heartbeat = \
        build_services(backend)
    register(heartbeat, "m1", vm_count=2)
    submission.submit_jobs([JobSpec(owner="alice") for _ in range(4)], now=0.0)
    for beat in range(3):
        response = _beat(heartbeat, "m1", now=1.0 + beat)
        for match in response.get("matches", ()):
            lifecycle.accept_match(match["job_id"], match["vm_id"], now=2.0)
    for index in range(db.statement_cache.capacity + 5):  # force evictions
        db.execute(f"SELECT {index} FROM users")  # sql-ident: distinct texts
    counts, cache = db.counts, db.statement_cache
    assert counts.prepared_hits == counts.plan_hits > 0
    assert counts.prepared_misses == counts.plan_misses > 0
    assert counts.statements == counts.plan_hits + counts.plan_misses
    # every miss admitted one entry; what is not resident was evicted
    assert len(cache) == cache.capacity
    assert counts.plan_evictions == counts.plan_misses - len(cache) >= 5
