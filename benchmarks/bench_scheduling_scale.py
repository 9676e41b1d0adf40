"""Macro-bench: the scheduling pass is O(1) statements in queue length.

The paper's scalability claim, measured directly: one set-oriented
scheduling pass over a 1,000-job queue and over a 50,000-job queue must
execute the *same number of SQL statements* — the work is pushed into
the database's indexed access paths, not a Python loop.  The bench also
records wall-clock per pass so regressions in the set-oriented plan
(e.g. a lost index) show up as timing collapse at the deep end, and runs
a sqlite-vs-memory backend comparison so the second `StorageEngine`
implementation is held to the same statement-count contract (and its
interpreter overhead is visible as a wall-clock ratio, not a guess).
Wall clock is *reported*, not asserted flat: a placing pass still ranks
the idle queue on its job side, so it grows with depth (ROADMAP item 1).

Cold and warm passes are measured separately.  A *cold* pass is the
first scheduling pass on a fresh pool: it compiles every plan
cache-cold and does the real matchmaking work (all VMs are free).  A
*warm* pass runs after an explicit warmup phase: plans come from the
compiled-plan cache and the VMs are saturated, so it measures the pass
that stops at its probe.  Two more regimes sit beside them at the deep
end: *one free slot* (50k queued, one VM turning over — the steady state
of a busy pool) and *empty queue* (idle VMs, nothing to place).

Results are also written machine-readably to ``BENCH_scheduling.json``
at the repo root (per-engine µs/pass at every depth and regime plus
plan-cache hit rates); CI uploads it as an artifact and a separate smoke
job pins the memory/sqlite ratio at 50k jobs, cold pass and one free
slot alike, to ``PERF_RATIO_BUDGET``.
"""

import json
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

#: Steady-state passes averaged for the one-free-slot and empty-queue
#: regimes.
TIMED_REGIME_PASSES = 10

#: CI budget for the memory engine: at 50k queued jobs its cold
#: scheduling pass (64 free slots, plans compiled) and its one-free-slot
#: pass (K = 1 — what a busy pool's every placing pass looks like, and
#: what the cold K = 64 pass does not represent) must each stay within
#: this multiple of SQLite's.  The perf-smoke CI job fails beyond this;
#: apply the `perf-override` PR label to land a known, accepted
#: regression (see .github/workflows/ci.yml).  MET since the job side
#: stopped keeping what it visits: both engines still walk every idle
#: job (ROADMAP item 1(b)), SQLite through a C sorter bounded by LIMIT
#: (33-40 ms at 50k on the box that wrote this), the memory engine
#: through a Python loop that holds at most max(2 * LIMIT, 64)
#: candidates (61-66 ms cold, 69-72 ms with one free slot): 1.6x to
#: 1.9x cold, 1.8x to 2.2x one free slot, four runs.  Keeping every
#: candidate until the top K is taken reads 6.7x to 7.8x on both, same
#: test, same box: that is what a failure here most likely means.
PERF_RATIO_BUDGET = 2.5
PERF_RATIO_DEPTH = 50_000

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scheduling.json"


def _pool_with_queue(n_jobs, backend=None, vm_count=VM_COUNT):
    container = BeanContainer(Database(backend=backend))
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)
    for m in range(-(-vm_count // 8)):
        heartbeat.register_machine(
            {"name": f"m{m:03d}", "vm_count": min(8, vm_count - 8 * m)}, 0.0)
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
        container, scheduling, _ = _pool_with_queue(depth, backend=backend)
        start = time.perf_counter()
        created = scheduling.run_pass(now=1.0)
        cold_seconds.append(time.perf_counter() - start)
        assert created == VM_COUNT
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
    """Steady-state µs per pass, and statements per pass, in the two
    regimes a busy pool and an idle pool actually live in.

    *one_free_slot*: ``depth`` jobs queued behind a single VM; every
    timed pass places exactly one job (K = 1), which is then run to
    completion to free the slot again.  *empty_queue*: ``VM_COUNT`` idle
    VMs and no job — the pass stops at its probe without ranking a VM.
    """
    rows = []
    container, scheduling, lifecycle = _pool_with_queue(
        depth, backend=backend, vm_count=1)
    db = container.db
    seconds, statements = 0.0, set()
    for n in range(1 + TIMED_REGIME_PASSES):  # the first pass is the cold one
        before = db.counts.statements
        start = time.perf_counter()
        created = scheduling.run_pass(now=float(n + 1))
        elapsed = time.perf_counter() - start
        assert created == 1
        if n:
            seconds += elapsed
            statements.add(db.counts.statements - before)
        match = db.query_one("SELECT job_id, vm_id FROM matches")
        lifecycle.accept_match(match["job_id"], match["vm_id"], now=n + 1.2)
        lifecycle.complete_job(match["job_id"], match["vm_id"], now=n + 1.4)
    rows.append(("one_free_slot", depth, seconds, statements))

    container, scheduling, _ = _pool_with_queue(0, backend=backend)
    db = container.db
    scheduling.run_pass(now=1.0)  # compiles the probe
    seconds, statements = 0.0, set()
    for n in range(TIMED_REGIME_PASSES):
        before = db.counts.statements
        start = time.perf_counter()
        created = scheduling.run_pass(now=float(n + 2))
        seconds += time.perf_counter() - start
        assert created == 0
        statements.add(db.counts.statements - before)
    rows.append(("empty_queue", 0, seconds, statements))
    return [
        {
            "backend": backend,
            "regime": regime,
            "depth": queued,
            "pass_us": round(seconds / TIMED_REGIME_PASSES * 1e6, 1),
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

    # Both regimes cost the same statements at 50k as the shallow pins.
    for r in regimes:
        expected = [3] if r["regime"] == "one_free_slot" else [1]
        assert r["statements_per_pass"] == expected, r


def test_memory_engine_within_perf_budget():
    """CI perf-regression smoke: at 50k queued jobs the memory engine's
    cold scheduling pass (K = 64) and its one-free-slot pass (K = 1, the
    steady state of a busy pool) each stay within ``PERF_RATIO_BUDGET``x
    SQLite's.

    Run by the dedicated perf-smoke CI job; apply the `perf-override`
    PR label to skip the gate for a known, accepted regression.
    """
    pass_us = {}
    for backend in BACKENDS:
        cold = _measure_backend(backend, PERF_RATIO_DEPTH, cold_samples=3)
        pass_us[backend, "cold"] = cold["cold_pass_us"]
        pass_us[backend, "one_free_slot"] = next(
            row["pass_us"]
            for row in _measure_regimes(backend, PERF_RATIO_DEPTH)
            if row["regime"] == "one_free_slot")
    print()
    over = []
    for regime in ("cold", "one_free_slot"):
        sqlite, memory = pass_us["sqlite", regime], pass_us["memory", regime]
        line = (f"{regime} pass at {PERF_RATIO_DEPTH} jobs: "
                f"sqlite {sqlite:.0f} µs, memory {memory:.0f} µs "
                f"({memory / sqlite:.2f}x, budget {PERF_RATIO_BUDGET}x)")
        print(line)
        if memory / sqlite > PERF_RATIO_BUDGET:
            over.append(line)
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
