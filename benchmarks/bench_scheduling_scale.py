"""Macro-bench: the scheduling pass is flat in queue length.

The paper's scalability claim, measured directly: one set-oriented
scheduling pass over a 1,000-job queue and over a 50,000-job queue must
execute the *same number of SQL statements* — the work is pushed into
the database's indexed access paths, not a Python loop — and, since the
job side walks each owner's idle jobs by index only as far as it places
(DESIGN.md §5.2), take about the *same wall clock*: the cold pass and
the one-free-slot pass at 50k must each stay within
``FLATNESS_BUDGET``x the same pass at 1k, on both engines.  A lost index
or a plan that ranks the whole queue again shows up as timing collapse
at the deep end.  A sqlite-vs-memory backend comparison holds the second
`StorageEngine` implementation to the same statement-count contract and
makes its interpreter overhead visible as a wall-clock ratio, not a
guess.

Cold and warm passes are measured separately.  A *cold* pass is the
first scheduling pass on a fresh pool: it compiles every plan
cache-cold and does the real matchmaking work (all VMs are free).  A
*warm* pass runs after an explicit warmup phase: plans come from the
compiled-plan cache and the VMs are saturated, so it measures the pass
that stops at its probe.  Three more regimes sit beside them: *one free
slot* (50k queued, one VM turning over — the steady state of a busy
pool), *many users* (the same with 50 queued and 1,000 registered
users, the shape the per-owner walk pays most for) and *empty queue*
(idle VMs, nothing to place).

Results are also written machine-readably to ``BENCH_scheduling.json``
at the repo root (per-engine µs/pass at every depth and regime plus
plan-cache hit rates); CI uploads it as an artifact, and a separate
smoke job runs the flatness gate and pins the memory/sqlite ratio at 50k
jobs, cold pass and one free slot alike, to ``PERF_RATIO_BUDGET``.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.cluster import JobSpec
from repro.condorj2.beans import BeanContainer
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)

QUEUE_DEPTHS = (1_000, 10_000, 50_000)
VM_COUNT = 64
BACKENDS = ("sqlite", "memory")

#: Explicit warmup passes before warm timing starts (plan cache fully
#: primed, VMs saturated), and the number of timed warm passes averaged.
WARMUP_PASSES = 5
TIMED_WARM_PASSES = 10

#: Steady-state passes for the one-free-slot and empty-queue regimes;
#: the median is reported, so one collector pause does not read as a
#: slow pass.
TIMED_REGIME_PASSES = 10

#: The many-users regime: a short queue in a pool whose ``users`` table
#: (which only grows) holds far more names than own an idle job.
MANY_USERS = 1_000
MANY_USERS_QUEUED = 50

#: The cold pass and the one-free-slot pass at the deepest queue must
#: each stay within this multiple of the same pass at the shallowest,
#: on both engines (the perf-smoke CI job).
FLATNESS_BUDGET = 2.0
FLATNESS_DEPTHS = (QUEUE_DEPTHS[0], QUEUE_DEPTHS[-1])
REGIMES = ("cold", "one_free_slot")

#: CI budget for the memory engine: at 50k queued jobs its cold
#: scheduling pass (64 free slots, plans compiled) and its one-free-slot
#: pass (K = 1 — what a busy pool's every placing pass looks like, and
#: what the cold K = 64 pass does not represent) must each stay within
#: this multiple of SQLite's.  The perf-smoke CI job fails beyond this;
#: apply the `perf-override` PR label to land a known, accepted
#: regression (see .github/workflows/ci.yml).  RE-PINNED from 2.5x when
#: the job side became a per-owner index walk: 2.5x held while both
#: engines walked the whole idle queue (at 50k: SQLite 43 ms cold and
#: 40 ms with one free slot, memory 59 and 56 ms), so the ratio compared
#: two walks.  Now neither walks it.  SQLite's pass is flat at 2.3-2.8 ms
#: cold and 0.1-0.3 ms with one free slot, and what is left on the
#: memory engine is fixed cost in Python: tokenizing, parsing and
#: compiling three statements (about a third of the cold pass) and the
#: per-owner loop over 13 owners.  Measured at 50k, both engines taking
#: turns on two shared cores of a container: 3.8x-4.4x cold, 3.6x-3.9x
#: one free slot, six runs; the budget leaves an eighth over the worst
#: for host noise.  A memory plan that walks the queue again reads about
#: 22x cold and 450x with one free slot, so a failure here still means
#: that.
PERF_RATIO_BUDGET = 5.0
PERF_RATIO_DEPTH = FLATNESS_DEPTHS[-1]

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scheduling.json"


def _pool_with_queue(n_jobs, backend=None, vm_count=VM_COUNT,
                     dormant_users=0):
    """A pool of ``vm_count`` VMs with ``n_jobs`` idle jobs over 13
    owners, and ``dormant_users`` more registered users with no job."""
    container = BeanContainer(Database(backend=backend))
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)
    for m in range(-(-vm_count // 8)):
        heartbeat.register_machine(
            {"name": f"m{m:03d}", "vm_count": min(8, vm_count - 8 * m)}, 0.0)
    if dormant_users:
        with container.db.transaction():
            container.db.executemany(
                "INSERT INTO users (user_name, created_at) VALUES (?, 0.0)",
                [(f"dormant{u}",) for u in range(dormant_users)])
    specs = [JobSpec(owner=f"user{i % 13}") for i in range(n_jobs)]
    submission.submit_jobs(specs, now=0.0)
    return container, scheduling, lifecycle


def _pass_statements(container, scheduling, now):
    before = container.db.counts.snapshot()
    created = scheduling.run_pass(now)
    delta = container.db.counts.delta(before)
    return created, delta.statements, delta.commits


def test_scheduling_pass_statement_count_flat_1k_to_50k(benchmark):
    """Statement count per pass is identical at every queue depth."""
    observations = {}
    pools = {depth: _pool_with_queue(depth) for depth in QUEUE_DEPTHS}

    def run_passes():
        for depth, (container, scheduling, _) in pools.items():
            observations[depth] = _pass_statements(
                container, scheduling, now=float(scheduling.passes + 1)
            )

    benchmark.pedantic(run_passes, rounds=1, iterations=1)

    print()
    for depth, (created, statements, commits) in sorted(observations.items()):
        print(
            f"queue={depth:>6}: {created} matches, "
            f"{statements} statements, {commits} commits"
        )
    counts = {
        (statements, commits)
        for _, statements, commits in observations.values()
    }
    assert len(counts) == 1, (
        f"statement count varies with queue length: {observations}"
    )
    statements, commits = counts.pop()
    assert statements == 3, (
        "a placing pass is the probe, one INSERT..SELECT and one set "
        "UPDATE at every depth")
    assert commits == 1
    assert all(created == VM_COUNT for created, _, _ in observations.values())
    # The saturated pool's next pass stops at its probe, at every depth.
    for container, scheduling, _ in pools.values():
        assert _pass_statements(container, scheduling, now=99.0) == (0, 1, 0)


@pytest.mark.parametrize("depth", QUEUE_DEPTHS)
def test_scheduling_pass_wall_clock_by_depth(benchmark, depth):
    """Per-depth warm timing: the pass must not collapse at 50k jobs.

    The explicit warmup phase runs the cold pass (plan compiles, real
    matchmaking) plus enough saturated passes to prime every cache, so
    the timed rounds measure only the steady-state no-capacity probe —
    cold-start cost is reported separately by the cold/warm split test.
    """
    container, scheduling, _ = _pool_with_queue(depth)

    def one_pass():
        return scheduling.run_pass(now=float(scheduling.passes + 1))

    benchmark.pedantic(
        one_pass, rounds=3, iterations=1, warmup_rounds=WARMUP_PASSES
    )


def _cold_pass(backend, depth):
    """``(seconds, container, scheduling)``: the first pass on a fresh
    pool of ``depth`` queued jobs — plan compiles plus the real
    ``VM_COUNT``-match work."""
    container, scheduling, _ = _pool_with_queue(depth, backend=backend)
    start = time.perf_counter()
    created = scheduling.run_pass(now=1.0)
    seconds = time.perf_counter() - start
    assert created == VM_COUNT
    return seconds, container, scheduling


def _one_free_slot(backend, depth, dormant_users=0):
    """A pool of ``depth`` jobs queued behind a single VM, and a step
    that times one placing pass on it (K = 1) — ``(seconds,
    statements)`` — then runs the placed job to completion to free the
    slot again.  The pool's first pass is its cold one."""
    container, scheduling, lifecycle = _pool_with_queue(
        depth, backend=backend, vm_count=1, dormant_users=dormant_users)
    db = container.db

    def placing_pass():
        now = float(scheduling.passes + 1)
        before = db.counts.statements
        start = time.perf_counter()
        created = scheduling.run_pass(now=now)
        seconds = time.perf_counter() - start
        assert created == 1
        statements = db.counts.statements - before
        match = db.query_one("SELECT job_id, vm_id FROM matches")
        lifecycle.accept_match(match["job_id"], match["vm_id"], now=now + 0.2)
        lifecycle.complete_job(match["job_id"], match["vm_id"], now=now + 0.4)
        return seconds, statements

    return placing_pass


def _measure_backend(backend, depth, cold_samples=3):
    """Cold/warm split for one backend at one queue depth.

    Cold: first scheduling pass on a fresh pool (empty plan cache, all
    VMs free — plan compiles plus the real 64-match work), minimum over
    ``cold_samples`` fresh pools.  Warm: after ``WARMUP_PASSES`` extra
    passes on the last pool, mean over ``TIMED_WARM_PASSES`` saturated
    passes.  Also reports the plan-cache hit rate over the whole run.
    """
    cold_seconds = []
    container = scheduling = None
    for _ in range(cold_samples):
        seconds, container, scheduling = _cold_pass(backend, depth)
        cold_seconds.append(seconds)
    for _ in range(WARMUP_PASSES):
        scheduling.run_pass(now=float(scheduling.passes + 1))
    start = time.perf_counter()
    for _ in range(TIMED_WARM_PASSES):
        scheduling.run_pass(now=float(scheduling.passes + 1))
    warm_seconds = (time.perf_counter() - start) / TIMED_WARM_PASSES
    return {
        "backend": backend,
        "depth": depth,
        "cold_pass_us": round(min(cold_seconds) * 1e6, 1),
        "warm_pass_us": round(warm_seconds * 1e6, 1),
        "plan_cache_hit_rate": round(
            container.db.counts.hit_rate(), 4
        ),
    }


def _measure_regimes(backend, depth=QUEUE_DEPTHS[-1]):
    """Steady-state µs per pass (the median), and statements per pass,
    in the two regimes a busy pool and an idle pool actually live in.

    *one_free_slot*: ``depth`` jobs queued behind a single VM; every
    timed pass places exactly one job (K = 1), which is then run to
    completion to free the slot again.  *many_users*: the same with
    ``MANY_USERS_QUEUED`` jobs queued and ``MANY_USERS`` registered
    users, all but 13 with no job — the regime the per-owner walk pays
    for, one probe per user (DESIGN.md §5.2).  *empty_queue*:
    ``VM_COUNT`` idle VMs and no job — the pass stops at its probe
    without ranking a VM.
    """
    rows = []
    for regime, queued, dormant in (
            ("one_free_slot", depth, 0),
            ("many_users", MANY_USERS_QUEUED, MANY_USERS - 13)):
        placing_pass = _one_free_slot(backend, queued, dormant)
        placing_pass()  # the cold one
        seconds, statements = zip(*(placing_pass()
                                    for _ in range(TIMED_REGIME_PASSES)))
        rows.append((regime, queued, seconds, set(statements)))

    container, scheduling, _ = _pool_with_queue(0, backend=backend)
    db = container.db
    scheduling.run_pass(now=1.0)  # compiles the probe
    seconds, statements = [], set()
    for n in range(TIMED_REGIME_PASSES):
        before = db.counts.statements
        start = time.perf_counter()
        created = scheduling.run_pass(now=float(n + 2))
        seconds.append(time.perf_counter() - start)
        assert created == 0
        statements.add(db.counts.statements - before)
    rows.append(("empty_queue", 0, seconds, statements))
    return [
        {
            "backend": backend,
            "regime": regime,
            "depth": queued,
            "pass_us": round(statistics.median(seconds) * 1e6, 1),
            "statements_per_pass": sorted(statements),
        }
        for regime, queued, seconds, statements in rows
    ]


def test_scheduling_cold_warm_split_and_json(benchmark):
    """Cold vs warm per-pass timing for both backends at every depth,
    plus the one-free-slot and empty-queue regimes, reported separately
    and written to ``BENCH_scheduling.json``."""
    results = []
    regimes = []

    def run_matrix():
        results.clear()
        regimes.clear()
        for backend in BACKENDS:
            for depth in QUEUE_DEPTHS:
                results.append(
                    _measure_backend(backend, depth, cold_samples=3))
            regimes.extend(_measure_regimes(backend))

    benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    print()
    for r in results:
        print(
            f"backend={r['backend']:>7} queue={r['depth']:>6}: "
            f"cold {r['cold_pass_us']:>10.1f} µs/pass, "
            f"warm {r['warm_pass_us']:>8.1f} µs/pass, "
            f"plan-cache hit rate {r['plan_cache_hit_rate']:.3f}"
        )
    for r in regimes:
        print(
            f"backend={r['backend']:>7} {r['regime']:>13} "
            f"(queue={r['depth']:>6}): {r['pass_us']:>8.1f} µs/pass, "
            f"{r['statements_per_pass']} statements"
        )
    payload = {
        "bench": "scheduling_pass",
        "vm_count": VM_COUNT,
        "queue_depths": list(QUEUE_DEPTHS),
        "warmup_passes": WARMUP_PASSES,
        "timed_warm_passes": TIMED_WARM_PASSES,
        "perf_ratio_budget": PERF_RATIO_BUDGET,
        "perf_ratio_depth": PERF_RATIO_DEPTH,
        "results": results,
        "regimes": regimes,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    # Hit rates are a property of the shared admission path, so the two
    # backends must agree exactly at every depth.
    by_depth = {}
    for r in results:
        by_depth.setdefault(r["depth"], set()).add(r["plan_cache_hit_rate"])
    assert all(len(rates) == 1 for rates in by_depth.values()), by_depth

    # Every regime costs the same statements as the shallow pins.
    for r in regimes:
        expected = [1] if r["regime"] == "empty_queue" else [3]
        assert r["statements_per_pass"] == expected, r


@pytest.fixture(scope="module")
def pass_us():
    """µs per pass by ``(backend, regime, depth)``: the cold pass (the
    minimum over three fresh pools) and the one-free-slot pass (the
    median of ``2 * TIMED_REGIME_PASSES``, after three untimed) at the
    shallowest and the deepest queue.  Every (backend, depth) pair takes
    its turn, pool by pool and pass by pass, so a drift in the host's
    speed lands on all four alike."""
    pairs = [(backend, depth) for backend in BACKENDS
             for depth in FLATNESS_DEPTHS]
    cold = {pair: [] for pair in pairs}
    for _ in range(3):
        for pair in pairs:
            cold[pair].append(_cold_pass(*pair)[0])
    steps = {pair: _one_free_slot(*pair) for pair in pairs}
    warm = {pair: [] for pair in pairs}
    for n in range(3 + 2 * TIMED_REGIME_PASSES):
        for pair, placing_pass in steps.items():
            seconds, _ = placing_pass()
            if n >= 3:
                warm[pair].append(seconds)
    measured = {}
    for backend, depth in pairs:
        measured[backend, "cold", depth] = min(cold[backend, depth]) * 1e6
        measured[backend, "one_free_slot", depth] = \
            statistics.median(warm[backend, depth]) * 1e6
    return measured


def _gate(lines):
    """Print ``(line, within budget)`` pairs; the lines over budget."""
    print()
    for line, _ in lines:
        print(line)
    return [line for line, within in lines if not within]


def test_pass_flat_1k_to_50k(pass_us):
    """CI perf smoke: the paper's Figure 13 claim in wall-clock form —
    the cold pass (K = 64) and the one-free-slot pass (K = 1) at 50k
    queued jobs each stay within ``FLATNESS_BUDGET``x the same pass at
    1k, on both engines."""
    shallow, deep = FLATNESS_DEPTHS
    lines = []
    for backend in BACKENDS:
        for regime in REGIMES:
            near = pass_us[backend, regime, shallow]
            far = pass_us[backend, regime, deep]
            lines.append((
                f"{backend} {regime} pass: {near:.0f} µs at {shallow} jobs, "
                f"{far:.0f} µs at {deep} ({far / near:.2f}x, budget "
                f"{FLATNESS_BUDGET}x)", far / near <= FLATNESS_BUDGET))
    over = _gate(lines)
    assert not over, f"the pass grows with queue depth: {over}"


def test_memory_engine_within_perf_budget(pass_us):
    """CI perf smoke: at 50k queued jobs the memory engine's cold
    scheduling pass (K = 64) and its one-free-slot pass (K = 1, the
    steady state of a busy pool) each stay within ``PERF_RATIO_BUDGET``x
    SQLite's.

    Run by the dedicated perf-smoke CI job; apply the `perf-override`
    PR label to skip the gate for a known, accepted regression.
    """
    lines = []
    for regime in REGIMES:
        sqlite = pass_us["sqlite", regime, PERF_RATIO_DEPTH]
        memory = pass_us["memory", regime, PERF_RATIO_DEPTH]
        lines.append((
            f"{regime} pass at {PERF_RATIO_DEPTH} jobs: sqlite {sqlite:.0f} "
            f"µs, memory {memory:.0f} µs ({memory / sqlite:.2f}x, budget "
            f"{PERF_RATIO_BUDGET}x)", memory / sqlite <= PERF_RATIO_BUDGET))
    over = _gate(lines)
    assert not over, f"memory engine regression: {over}"


def test_scheduling_pass_backend_comparison(benchmark):
    """sqlite vs memory on the same workload: identical statement counts
    and matches, with per-backend wall-clock reported side by side."""
    depth = 10_000
    observations = {}

    def run_backends():
        for backend in BACKENDS:
            container, scheduling, _ = _pool_with_queue(
                depth, backend=backend)
            start = time.perf_counter()
            created, statements, commits = _pass_statements(
                container, scheduling, now=1.0
            )
            elapsed = time.perf_counter() - start
            observations[backend] = (created, statements, commits, elapsed)

    benchmark.pedantic(run_backends, rounds=1, iterations=1)

    print()
    baseline = observations[BACKENDS[0]][3]
    for backend in BACKENDS:
        created, statements, commits, elapsed = observations[backend]
        ratio = elapsed / baseline if baseline else float("inf")
        print(
            f"backend={backend:>7}: {created} matches, "
            f"{statements} statements, {commits} commits, "
            f"{elapsed * 1e3:7.2f} ms/pass ({ratio:5.2f}x sqlite)"
        )
    shapes = {
        (created, statements, commits)
        for created, statements, commits, _ in observations.values()
    }
    assert shapes == {(VM_COUNT, 3, 1)}, (
        f"backends disagree on the pass contract: {observations}"
    )
