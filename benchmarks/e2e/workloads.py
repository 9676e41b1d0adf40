"""The six workloads: inputs from the seed, how the pool is driven, and
what must be true of its tables afterwards.

A workload never reaches into the program while it runs: it hands the
pool ``JobSpec`` lists and request payloads and reads the tables once the
timed window is over.  All six use the default ``CasCostModel`` (apart
from ``storage_backend``), ``ExecutionModel`` and ``StartdConfig``.
"""

from __future__ import annotations

import random
from typing import Any, Generator, List, Optional

from repro.cluster.job import JobSpec
from repro.condorj2.api.faults import ServiceFault
from repro.condorj2.system import CondorJ2System, UserClient
from repro.sim.kernel import Delay

#: Simulated seconds of set-up after boot: every machine registers and
#: idle-polls long enough that the statement and plan caches are warm.
WARMUP_SIM_S = 20.0

OWNERS = [f"user{index:02d}" for index in range(13)]


def _job_specs(rng: random.Random, count: int, mean_seconds: float,
               first_id: int = 1) -> List[JobSpec]:
    """``count`` jobs of ``mean_seconds`` +/- 20 % over the 13 owners.

    Ids are assigned here, not by the process-wide counter, so every
    episode of a run puts byte-identical envelopes on the wire."""
    return [
        JobSpec(job_id=first_id + index, owner=rng.choice(OWNERS),
                run_seconds=mean_seconds * rng.uniform(0.8, 1.2))
        for index in range(count)
    ]


def _scalar(system: CondorJ2System, sql: str) -> int:
    return int(system.cas.db.scalar(sql) or 0)


class Workload:
    """One traffic shape.  Subclasses fill in the hooks."""

    name = ""
    why = ""
    backend = "sqlite"
    nodes = 0
    vms_per_node = 0
    #: Simulated seconds per timed chunk (a calibration slice runs
    #: between chunks); sized so a chunk is a few tens of wall ms.
    chunk_sim_s = 5.0
    #: Another workload whose counted statements must equal this one's.
    statement_twin: Optional[str] = None

    def inputs(self, rng: random.Random, scale: float) -> Any:
        """Everything the seed decides."""
        raise NotImplementedError

    def preload(self, system: CondorJ2System, inputs: Any) -> None:
        """Set-up work before the warm-up (queue preload)."""

    def drive(self, system: CondorJ2System, inputs: Any) -> None:
        """Arm the traffic at the start of the timed window."""

    def finished(self, system: CondorJ2System, inputs: Any) -> bool:
        raise NotImplementedError

    def check(self, system: CondorJ2System, inputs: Any) -> List[str]:
        """Output checks; returns one message per failure."""
        raise NotImplementedError

    def client_failures(self, inputs: Any) -> int:
        """RPC failures the workload's own user coroutines saw."""
        return 0


class Turnover(Workload):
    """Jobs through the whole lifecycle until the queue is empty."""

    nodes, vms_per_node = 30, 4
    jobs = 900
    bursts = 9

    def __init__(self, backend: str, why: str,
                 statement_twin: Optional[str] = None):
        self.name = f"turnover_{backend}"
        self.backend = backend
        self.why = why
        self.statement_twin = statement_twin

    def inputs(self, rng, scale):
        count = max(self.bursts, round(self.jobs * scale))
        specs = _job_specs(rng, count, 60.0)
        # Bursty arrivals against a pool that is busy from the first
        # burst on: the first lands as the window opens, the rest
        # inside the first half minute.
        times = [0.0] + sorted(rng.uniform(0.0, 30.0)
                               for _ in range(self.bursts - 1))
        size = -(-count // self.bursts)
        return {
            "specs": specs,
            "bursts": [(WARMUP_SIM_S + offset, specs[i * size:(i + 1) * size])
                       for i, offset in enumerate(times)],
        }

    def drive(self, system, inputs):
        for when, specs in inputs["bursts"]:
            if specs:
                system.submit_at(when, specs)

    def finished(self, system, inputs):
        return system.log.count("job_completed") >= len(inputs["specs"])

    def check(self, system, inputs):
        failures = []
        expected = len(inputs["specs"])
        history = _scalar(system, "SELECT COUNT(*) FROM job_history")
        if history != expected:
            failures.append(f"job_history has {history} rows, not {expected}")
        live = _scalar(system, "SELECT COUNT(*) FROM jobs")
        if live:
            failures.append(f"{live} jobs still in the queue")
        seen = [row[0] for table in ("runs", "job_history")
                for row in system.cas.db.query_all(
                    f"SELECT job_id FROM {table}")]  # table: the literals
        if len(seen) != len(set(seen)):
            failures.append(f"{len(seen) - len(set(seen))} job ids in two "
                            f"runs/history rows")
        return failures


class IdlePoll(Workload):
    name = "idle_poll_sqlite"
    why = ("2,000 idle VMs polling every 2 s against an empty queue: no "
           "lifecycle work, so the inline scheduling pass and the largest "
           "startd-side envelopes are all there is.")
    nodes, vms_per_node = 50, 40
    chunk_sim_s = 0.5
    horizon_sim_s = 60.0

    def inputs(self, rng, scale):
        return {"end": WARMUP_SIM_S + self.horizon_sim_s * scale}

    def finished(self, system, inputs):
        return system.sim.now >= inputs["end"]

    def check(self, system, inputs):
        failures = []
        if system.cas.scheduling.matches_created:
            failures.append(
                f"{system.cas.scheduling.matches_created} matches created "
                f"in a pool with no jobs")
        alive = _scalar(
            system, "SELECT COUNT(*) FROM machines WHERE state = 'alive'")
        if alive != self.nodes:
            failures.append(f"{alive} of {self.nodes} machines alive")
        return failures


class DeepQueue(Workload):
    name = "deep_queue_memory"
    why = ("10,000 queued jobs, 64 VMs: every pass ranks a deep queue for a "
           "handful of free slots, so the raw memory engine is nearly the "
           "whole run and the wire is almost idle.")
    backend = "memory"
    nodes, vms_per_node = 16, 4
    chunk_sim_s = 1.0
    jobs = 10_000
    horizon_sim_s = 100.0

    def inputs(self, rng, scale):
        return {
            "specs": _job_specs(rng, round(self.jobs * scale), 30.0),
            "end": WARMUP_SIM_S + self.horizon_sim_s * scale,
        }

    def preload(self, system, inputs):
        system.cas.submission.submit_jobs(inputs["specs"], system.sim.now)

    def finished(self, system, inputs):
        return system.sim.now >= inputs["end"]

    def check(self, system, inputs):
        accounted = (
            _scalar(system, "SELECT COUNT(*) FROM jobs WHERE state IN "
                            "('idle', 'matched', 'running')")
            + _scalar(system, "SELECT COUNT(*) FROM job_history"))
        submitted = len(inputs["specs"])
        if accounted != submitted:
            return [f"idle + matched + running + history = {accounted}, "
                    f"submitted {submitted}"]
        return []


class SubmitMonitor(Workload):
    name = "submit_monitor_sqlite"
    why = ("A saturated pool while one user submits in bulk and another "
           "polls the read operations: writes beside reads on growing "
           "tables, and the workload where the envelope codec dominates.")
    nodes, vms_per_node = 10, 4
    chunk_sim_s = 1.0
    horizon_sim_s = 120.0
    bulk_jobs = 100
    batch_ops = 8
    submit_think_s = 0.2
    monitor_think_s = 0.05
    requirements = 'Memory >= 256 && Arch == "INTEL" && OpSys == "LINUX"'

    def inputs(self, rng, scale):
        end = WARMUP_SIM_S + self.horizon_sim_s * scale
        return {
            "rng": rng,
            "blockers": [JobSpec(job_id=index + 1, owner=rng.choice(OWNERS),
                                 run_seconds=1e6)
                         for index in range(self.nodes * self.vms_per_node)],
            "end": end,
            # The last submit is acknowledged before the window closes,
            # so the tables and the acknowledgements can be compared.
            "stop_submitting": end - 2.0,
            "acknowledged": [],
            "reads": 0,
            "failures": 0,
        }

    def preload(self, system, inputs):
        system.cas.submission.submit_jobs(inputs["blockers"], system.sim.now)

    def drive(self, system, inputs):
        monitor = UserClient(system.sim, system.network, name="monitor")
        system.sim.spawn(self._submitter(system, inputs), name="user.submit")
        system.sim.spawn(self._monitor(system, monitor, inputs),
                         name="user.monitor")

    def _job_payload(self, inputs, job_id: int, requirements=None) -> dict:
        rng = inputs["rng"]
        return {"job_id": job_id, "owner": rng.choice(OWNERS),
                "run_seconds": 60.0 * rng.uniform(0.8, 1.2),
                "requirements": requirements}

    def _submitter(self, system, inputs) -> Generator:
        next_id = len(inputs["blockers"]) + 1
        acknowledged = inputs["acknowledged"]
        while system.sim.now < inputs["stop_submitting"]:
            jobs = [self._job_payload(inputs, next_id + index)
                    for index in range(self.bulk_jobs)]
            next_id += self.bulk_jobs
            try:
                reply = yield from system.user.call("submitJobs",
                                                    {"jobs": jobs})
                acknowledged.extend(reply["job_ids"])
            except ServiceFault:
                inputs["failures"] += 1
            yield Delay(self.submit_think_s)
            calls = [("submitJob", self._job_payload(
                inputs, next_id + index, self.requirements))
                for index in range(self.batch_ops)]
            next_id += self.batch_ops
            try:
                replies = yield from system.user.call_batch(calls)
            except ServiceFault:
                inputs["failures"] += 1
                replies = []
            for reply in replies:
                if isinstance(reply, ServiceFault):
                    inputs["failures"] += 1
                else:
                    acknowledged.append(reply["job_id"])
            yield Delay(self.submit_think_s)

    def _monitor(self, system, client, inputs) -> Generator:
        rng = inputs["rng"]
        acknowledged = inputs["acknowledged"]
        while True:
            known = acknowledged or [1]
            for operation, payload in (
                ("queueSummary", {}),
                ("poolStatus", {}),
                ("userSummary", {"owner": rng.choice(OWNERS)}),
                ("jobDetail", {"job_id": rng.choice(known)}),
            ):
                try:
                    yield from client.call(operation, payload)
                    inputs["reads"] += 1
                except ServiceFault:
                    inputs["failures"] += 1
                yield Delay(self.monitor_think_s)

    def finished(self, system, inputs):
        return system.sim.now >= inputs["end"]

    def check(self, system, inputs):
        failures = []
        stored = (_scalar(system, "SELECT COUNT(*) FROM jobs")
                  + _scalar(system, "SELECT COUNT(*) FROM job_history"))
        expected = len(inputs["blockers"]) + len(inputs["acknowledged"])
        if stored != expected:
            failures.append(f"jobs + history = {stored}, acknowledged "
                            f"(with the preload) {expected}")
        if not inputs["reads"]:
            failures.append("the monitor completed no read")
        return failures

    def client_failures(self, inputs):
        return inputs["failures"]


WORKLOADS = {workload.name: workload for workload in (
    Turnover("sqlite", "The reference mix: every startd operation and the "
             "full job lifecycle on SQLite, where codec, accounting, "
             "gateway and sim kernel are largest relative to the engine."),
    Turnover("memory", "The same traffic on the pure-Python engine: raw "
             "engine work dominates, so a planner or executor gain shows "
             "here and must not show on turnover_sqlite.",
             statement_twin="turnover_sqlite"),
    Turnover("wal", "The same traffic on the WAL engine: adds the "
             "durability layer at thousands of small commits, and the log "
             "is replayed afterwards to check recovery."),
    IdlePoll(),
    DeepQueue(),
    SubmitMonitor(),
)}
