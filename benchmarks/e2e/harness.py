"""Episode runner: builds a pool, times one window of it, checks it.

One *episode* is one fresh pool taken through set-up (build, schema
bootstrap, CAS boot, machine registration, warm-up, queue preload) and
then one timed window of ``sim.run`` chunks with a calibration slice
between chunks.  A benchmark run repeats whole episodes of identical
inputs until the timed windows add up to ``--seconds``; rates are
reported as the median over the run's episodes, percentiles over their
pooled samples, and the episodes must agree exactly on what they did.

Closed loop, one process, one thread, no sockets: the clients are the
simulated startds and user coroutines, so every wall-clock number here
is service time of real Python/SQL work, never queueing.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from calib import Calibrator, reference_factor
from tracer import Tracer, install
from workloads import WARMUP_SIM_S, WORKLOADS, Workload

from repro.cluster.topology import ClusterSpec
from repro.condorj2.costs import CasCostModel
from repro.condorj2.storage import (
    MemoryStorageEngine,
    SqliteStorageEngine,
    WalStorageEngine,
)
from repro.condorj2.system import CondorJ2System

ENGINE_CLASSES = {
    "sqlite": SqliteStorageEngine,
    "memory": MemoryStorageEngine,
    "wal": WalStorageEngine,
}

#: Calibration slices on each side of a set-up (it cannot be chunked).
BRACKET_SLICES = 5

#: Sample floors per run (not applied to a shrunken self-check run): ten
#: samples beyond the envelope p99 and beyond the pass p95.
MIN_ENVELOPES = 1000
MIN_PASSES = 200

#: Operations whose gateway latency is reported one by one.
TRACED_OPERATIONS = (
    "heartbeat", "acceptMatch", "beginExecute", "submitJob", "submitJobs",
    "queueSummary", "poolStatus", "userSummary", "jobDetail",
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Episode:
    """Everything one episode measured (times still in wall seconds)."""

    traced: bool
    tracer: Tracer
    setup_s: float = 0.0            # already in reference seconds
    wall_s: float = 0.0
    cpu_s: float = 0.0
    calib_s: float = 0.0            # mean slice time over the window
    gc_collections: int = 0
    sim_span_s: float = 0.0
    sim_events: int = 0
    counts: Any = None              # StatementCounts delta of the window
    dispatches: int = 0
    passes: int = 0
    matches: int = 0
    matchinfo_skips: int = 0
    rows_written: int = 0
    wal: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    signature: tuple = ()
    seams_restored: int = 0

    @property
    def factor(self) -> float:
        """Measured seconds of this episode -> reference seconds."""
        return reference_factor(self.calib_s)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _rows(engine, table: str) -> List[tuple]:
    cursor = engine.execute(
        f"SELECT * FROM {table} ORDER BY job_id")  # table: a literal below
    return [tuple(row) for row in cursor.fetchall()]


def _check_recovery(live, directory: str, episode: Episode) -> None:
    """Reopen the log with a fresh engine; it must hold what the live
    engine held when the window closed."""
    expected = {table: _rows(live, table) for table in ("jobs", "job_history")}
    live.close()
    started = time.perf_counter()
    recovered = WalStorageEngine(directory)
    episode.wal["recovery_s"] = time.perf_counter() - started
    try:
        for table, rows in expected.items():
            if _rows(recovered, table) != rows:
                episode.failures.append(
                    f"recovered {table} differs from the live table")
    finally:
        recovered.close()


def _marks(system: CondorJ2System) -> tuple:
    """Counters the window's deltas are taken from."""
    cas, sim = system.cas, system.sim
    return (sim.now, sim.events_processed, cas.scheduling.passes,
            cas.scheduling.matches_created,
            cas.heartbeat.matchinfo_selects_skipped,
            sum(s.attempts for s in cas.gateway.stats.values()))


def _set_up_and_time(workload: Workload, inputs: Any, seed: int,
                     backend: str, episode: Episode,
                     calibrator: Calibrator) -> tuple:
    """Set-up, then the timed window, with the seams bound throughout.

    Returns the pool and its counters as the window opened."""
    tracer = episode.tracer
    seams = install(tracer, ENGINE_CLASSES[workload.backend],
                    full=episode.traced)
    try:
        for _ in range(BRACKET_SLICES):
            calibrator.slice()
        started = time.perf_counter()
        system = CondorJ2System(
            ClusterSpec(physical_nodes=workload.nodes,
                        vms_per_node=workload.vms_per_node),
            seed=seed, costs=CasCostModel(storage_backend=backend))
        system.start()
        workload.preload(system, inputs)
        system.sim.run(until=WARMUP_SIM_S)
        setup_wall = time.perf_counter() - started
        for _ in range(BRACKET_SLICES):
            calibrator.slice()
        episode.setup_s = setup_wall * reference_factor(calibrator.take())

        sim = system.sim
        before = system.cas.db.counts.snapshot()
        marks = _marks(system)
        tracer.reset()
        workload.drive(system, inputs)
        collections = _gc_collections()
        while not workload.finished(system, inputs):
            calibrator.slice()
            cpu_started = time.process_time()
            tracer.push("sim")
            sim.run(until=sim.now + workload.chunk_sim_s)
            episode.wall_s += tracer.pop()
            episode.cpu_s += time.process_time() - cpu_started
        calibrator.slice()
        episode.gc_collections = _gc_collections() - collections
    finally:
        episode.seams_restored = seams.restore()
    episode.calib_s = calibrator.take()
    return system, before, marks


def run_episode(workload: Workload, seed: int, scale: float, traced: bool,
                calibrator: Calibrator) -> Episode:
    """Build, warm, time and check one pool."""
    gc.collect()
    os.makedirs(OUT_DIR, exist_ok=True)
    episode = Episode(traced=traced, tracer=Tracer(keep_trees=traced))
    inputs = workload.inputs(random.Random(seed), scale)
    # The WAL engine logs into a directory of the benchmark's own.
    scratch = (tempfile.TemporaryDirectory(prefix="wal_", dir=OUT_DIR)
               if workload.backend == "wal" else contextlib.nullcontext())
    with scratch as wal_dir:
        backend = f"wal://{wal_dir}" if wal_dir else workload.backend
        system, before, marks = _set_up_and_time(
            workload, inputs, seed, backend, episode, calibrator)

        cas, engine = system.cas, system.cas.db.engine
        (episode.sim_span_s, episode.sim_events, episode.passes,
         episode.matches, episode.matchinfo_skips, episode.dispatches) = (
            now - then for now, then in zip(_marks(system), marks))
        episode.counts = counts = cas.db.counts.delta(before)
        episode.rows_written = sum(
            counts.table_writes(table) for table in counts.tables)
        if wal_dir:
            episode.wal.update(
                bytes_written=engine.wal_stats()["stream_bytes"],
                appends=counts.wal_appends, fsyncs=counts.fsyncs,
                checkpoints=counts.checkpoints)
        episode.signature = (
            len(episode.tracer.envelope_service_s), counts.statements,
            episode.passes, system.sim.now,
            episode.wal.get("bytes_written", 0))

        # Faults anywhere in the episode count, set-up included.
        stats = cas.gateway.stats.values()
        episode.attempted = sum(s.attempts for s in stats)
        episode.failed = (
            sum(s.faults for s in stats)
            + sum(startd.rpc_failures for startd in system.startds)
            + workload.client_failures(inputs))
        if episode.failed:
            episode.failures.append(
                f"{episode.failed} of {episode.attempted} operations failed")
        episode.failures.extend(workload.check(system, inputs))
        if wal_dir:
            _check_recovery(engine, wal_dir, episode)
        else:
            engine.close()
    return episode


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(episodes: List[Episode]) -> Dict[str, float]:
    """The user-visible numbers of a run, in reference seconds.

    Rates are medians over the episodes.  The envelope median is taken
    over the episodes' pooled samples, each first converted with its
    own episode's factor.
    """
    envelopes = [seconds * e.factor * 1e6 for e in episodes
                 for seconds in e.tracer.envelope_service_s]
    rates = []
    for e in episodes:
        loop_pass_s = sum(duration for duration, _, outside in e.tracer.passes
                          if outside)
        cas_busy_s = (sum(e.tracer.envelope_service_s) + loop_pass_s) * e.factor
        rates.append({
            "setup_s": e.setup_s,
            "wall_s_per_sim_hour":
                e.wall_s * e.factor / (e.sim_span_s / 3600.0),
            "cas_envelopes_per_s":
                _ratio(len(e.tracer.envelope_service_s), cas_busy_s),
        })
    metrics = _medians(rates)
    metrics["envelope_us_p50"] = percentile(envelopes, 0.50)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics


def per_layer_metrics(episode: Episode) -> Dict[str, float]:
    """Layer attribution of one traced episode.

    Shares are self time over the traced wall; times are in reference
    seconds like the end-to-end metrics; counts are as counted.
    """
    tracer, counts, wall = episode.tracer, episode.counts, episode.wall_s
    micro = episode.factor * 1e6

    def share(layer: str) -> float:
        return _ratio(tracer.layer_self_s(layer), wall)

    def p(span: str, q: float) -> float:
        return percentile(tracer.durations[span], q) * micro

    envelopes = len(tracer.envelope_service_s)
    passes = [duration for duration, _, _ in tracer.passes]
    decode_s = sum(tracer.durations["web.soap.server.decode"])
    raw_calls = (len(tracer.durations["storage.raw.execute"])
                 + len(tracer.durations["storage.raw.executemany"]))
    hidden = raw_calls - counts.statements
    match_insert = tracer.match_insert_s
    metrics = {
        "sim.self_share": share("sim"),
        "sim.events": episode.sim_events,
        "sim.us_per_event":
            _ratio(tracer.layer_self_s("sim"), episode.sim_events) * micro,
        "web.soap.server_share": share("web.soap.server"),
        "web.soap.client_share": share("web.soap.client"),
        "web.soap.decode_us_p50": p("web.soap.server.decode", 0.50),
        "web.soap.decode_us_p99": p("web.soap.server.decode", 0.99),
        "web.soap.encode_us_p50": p("web.soap.server.encode", 0.50),
        "web.soap.decode_us_per_kb":
            _ratio(decode_s, tracer.counters["bytes_in"] / 1024.0) * micro,
        "web.soap.bytes_in": tracer.counters["bytes_in"],
        "web.soap.bytes_out": tracer.counters["bytes_out"],
        "cas.self_share": share("cas"),
        "cas.envelopes": envelopes,
        "envelope_us_p99":
            percentile(tracer.envelope_service_s, 0.99) * micro,
        "sched_pass_us_p50": percentile(passes, 0.50) * micro,
        "sched_pass_us_p95": percentile(passes, 0.95) * micro,
        "cas.ops_per_envelope": _ratio(episode.dispatches, envelopes),
        "api.gateway.self_share": share("api.gateway"),
        "api.gateway.dispatches": episode.dispatches,
        "api.gateway.faults": episode.failed,
        "api.fields.self_share": share("api.fields"),
        "api.fields.validate_us_p50": p("api.fields", 0.50),
        "logic.self_share": share("logic"),
        "logic.sched.share":
            _ratio(sum(tracer.durations["logic.sched"]), wall),
        "logic.sched.passes": episode.passes,
        "logic.sched.matches_per_pass":
            _ratio(episode.matches, episode.passes),
        "logic.sched.empty_pass_share": _ratio(
            sum(1 for _, created, _ in tracer.passes if not created),
            len(tracer.passes)),
        "logic.heartbeat.matchinfo_skip_share": _ratio(
            episode.matchinfo_skips,
            episode.matchinfo_skips + len(tracer.durations["logic.matchinfo"])),
        "storage.engine.self_share": share("storage.engine"),
        "storage.engine.statements": counts.statements,
        "storage.engine.us_per_statement": _ratio(
            tracer.layer_self_s("storage.engine"), counts.statements) * micro,
        "storage.engine.hidden_statements": hidden,
        "storage.engine.hidden_per_counted":
            _ratio(hidden, counts.statements),
        "storage.engine.prepared_hit_rate": _ratio(
            counts.prepared_hits,
            counts.prepared_hits + counts.prepared_misses),
        "storage.engine.plan_hit_rate": _ratio(
            counts.plan_hits, counts.plan_hits + counts.plan_misses),
        "storage.engine.plan_evictions": counts.plan_evictions,
        "storage.counters.self_share": share("storage.counters"),
        "storage.counters.snapshots":
            len(tracer.durations["storage.counters.snapshot"]),
        "storage.counters.snapshot_us_p50":
            p("storage.counters.snapshot", 0.50),
        "storage.raw.self_share": share("storage.raw"),
        "storage.raw.execute_us_p50": p("storage.raw.execute", 0.50),
        "storage.raw.execute_us_p99": p("storage.raw.execute", 0.99),
        "storage.raw.commit_us_p50": p("storage.raw.commit", 0.50),
        "storage.raw.match_insert_us_p50":
            percentile(match_insert, 0.50) * micro,
        "storage.raw.match_insert_us_p95":
            percentile(match_insert, 0.95) * micro,
        "storage.raw.match_insert_share": _ratio(sum(match_insert), wall),
        "storage.raw.rows_written": episode.rows_written,
        "storage.planner.compiles":
            len(tracer.durations["storage.planner.compile"]),
        "storage.planner.compile_s":
            sum(tracer.durations["storage.planner.compile"]) * episode.factor,
        "storage.wal.bytes_written": episode.wal.get("bytes_written", 0),
        "storage.wal.bytes_per_commit": _ratio(
            episode.wal.get("bytes_written", 0), counts.commits),
        "storage.wal.appends": episode.wal.get("appends", 0),
        "storage.wal.fsyncs": episode.wal.get("fsyncs", 0),
        "storage.wal.checkpoints": episode.wal.get("checkpoints", 0),
        "storage.wal.checkpoint_s":
            sum(tracer.durations["storage.wal.checkpoint"]) * episode.factor,
        "storage.wal.commit_us_p99":
            p("storage.raw.commit", 0.99) if episode.wal else 0.0,
        "storage.wal.recovery_s":
            episode.wal.get("recovery_s", 0.0) * episode.factor,
    }
    for operation in TRACED_OPERATIONS:
        durations = tracer.op_durations[operation]
        prefix = f"api.gateway.{operation}"
        metrics[f"{prefix}.us_p50"] = percentile(durations, 0.50) * micro
        metrics[f"{prefix}.us_p99"] = percentile(durations, 0.99) * micro
        metrics[f"{prefix}.statements_per_call"] = _ratio(
            tracer.op_statements[operation], len(durations))
    return metrics


def write_trace(workload: Workload, episode: Episode) -> str:
    """Dump the traced episode's spans; returns the file's path."""
    tracer = episode.tracer
    names = sorted(tracer.durations)
    document = {
        "workload": workload.name,
        "traced_wall_s": episode.wall_s,
        "calib_s": episode.calib_s,
        "aggregates": {
            name: {
                "count": len(tracer.durations[name]),
                "total_s": sum(tracer.durations[name]),
                "self_s": tracer.self_s[name],
                "p50_us": percentile(tracer.durations[name], 0.50) * 1e6,
                "p99_us": percentile(tracer.durations[name], 0.99) * 1e6,
            }
            for name in names
        },
        "slowest_envelopes": [e.tree() for e in tracer.slowest()],
        "sampled_envelopes": [e.tree() for e in tracer.sampled],
    }
    path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
    with open(path, "w") as handle:
        json.dump(document, handle)
    return path


@dataclass
class RunResult:
    """One benchmark run: the medians the driver reads, and the checks."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]
    episodes: int
    samples: Dict[str, int]
    seams_restored: int
    trace_path: Optional[str] = None

    @property
    def correct(self) -> bool:
        return not self.failures


def _medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> RunResult:
    """Repeat episodes of one workload until ``seconds`` of timed window.

    Untraced runs report the end-to-end metrics.  Traced runs alternate
    untraced and traced episodes and report the per-layer metrics of the
    traced ones, with the wall-time ratio of the two kinds as the cost
    of watching.
    """
    workload = WORKLOADS[name]
    calibrator = Calibrator()
    episodes: List[Episode] = []
    try:
        while (sum(e.wall_s for e in episodes) < seconds
               or len(episodes) < 2):
            traced = trace and len(episodes) % 2 == 1
            episodes.append(
                run_episode(workload, seed, scale, traced, calibrator))
        twin = None
        if workload.statement_twin is not None:
            twin = run_episode(WORKLOADS[workload.statement_twin], seed,
                               scale, False, calibrator)
    finally:
        calibrator.close()

    failures = [message for e in episodes for message in e.failures]
    first = episodes[0]
    for index, episode in enumerate(episodes[1:], start=2):
        if episode.signature != first.signature:
            failures.append(
                f"episode {index} did {episode.signature}, episode 1 did "
                f"{first.signature} (envelopes, statements, passes, "
                f"sim end, wal bytes)")
    if twin is not None:
        failures.extend(twin.failures)
        if twin.counts.statements != first.counts.statements:
            failures.append(
                f"{first.counts.statements} statements here, "
                f"{twin.counts.statements} on {workload.statement_twin}")

    samples = {
        "envelopes": sum(len(e.tracer.envelope_service_s) for e in episodes),
        "passes": sum(len(e.tracer.passes) for e in episodes),
    }
    for kind, floor in (("envelopes", MIN_ENVELOPES), ("passes", MIN_PASSES)):
        if scale >= 1.0 and samples[kind] < floor:
            failures.append(f"only {samples[kind]} {kind} timed")

    trace_path = None
    if trace:
        plain = [e for e in episodes if not e.traced]
        watched = [e for e in episodes if e.traced]
        metrics = _medians([per_layer_metrics(e) for e in watched])
        raw_wall = statistics.median(e.wall_s for e in watched)
        # Wall per calibration second, so host drift between the two
        # kinds of episode does not read as tracing overhead.
        overhead = (
            statistics.median(e.wall_s / e.calib_s for e in watched)
            / statistics.median(e.wall_s / e.calib_s for e in plain)) - 1.0
        metrics.update({
            "host.calib_s": statistics.median(e.calib_s for e in watched),
            "host.raw_wall_s": raw_wall,
            "host.cpu_s": statistics.median(e.cpu_s for e in watched),
            "host.gc_collections":
                statistics.median(e.gc_collections for e in watched),
            "host.trace_overhead_share": overhead,
        })
        trace_path = write_trace(workload, watched[-1])
    else:
        metrics = end_to_end_metrics(episodes)
    return RunResult(
        metrics=metrics,
        attempted=sum(e.attempted for e in episodes),
        failed=sum(e.failed for e in episodes),
        failures=failures,
        episodes=len(episodes),
        samples=samples,
        seams_restored=sum(e.seams_restored for e in episodes),
        trace_path=trace_path,
    )
