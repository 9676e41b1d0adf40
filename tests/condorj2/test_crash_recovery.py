"""Crash-recovery fuzzing of the WAL engine: SQLite in WAL mode.

The differential harness (``test_differential.py``) pins *state
equivalence*: replaying one workload on two engines yields identical
tables.  This harness pins *crash equivalence* for
:class:`WalStorageEngine`:

    kill the process that owns the engine at any step of SQLite's
    virtual machine, and a fresh engine on the directory holds exactly
    the acknowledged ops, or the acknowledged ops plus the one in
    flight; cut the ``-wal`` file at any byte, and it holds the longest
    prefix of ops whose post-commit WAL size fits in the cut.

Mechanics: each seeded trace drives the full service stack (the
differential fuzzer's op vocabulary) with every op in its own
transaction.  A forked child runs the trace with a progress handler
(``Connection.set_progress_handler``, called at every VM step) that
calls ``os._exit`` at a seeded step count, and reports each op over a
pipe once its ``transaction()`` scope has exited — the acknowledgement.
An in-process calibration run of the same trace learns its step count,
the steps around every ``COMMIT`` and every checkpoint, and the
``-wal`` size after every op.  Kill points are drawn uniformly over the
steps, at the first and the last step of every ``COMMIT`` (before and
after it writes, so the op in flight is sometimes durable and
unacknowledged), and, under a tiny checkpoint
threshold, around every checkpoint.  Torn-tail trials cut a clean run's
``-wal`` at a seeded byte, delete ``-shm`` and reopen.  The reference
tables come from the same trace replayed on an in-memory SQLite engine.

Failing trials dump the directory plus a seed/kill manifest to
``CRASH_FUZZ_ARTIFACT_DIR`` (CI uploads it), so any counterexample
replays locally from the artifact alone.
"""

import json
import os
import random
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import JobSpec
from repro.condorj2.database import Database
from repro.condorj2.schema import TABLES
from repro.condorj2.storage import StatementCounts, WalStorageEngine

from tests.condorj2.test_differential import Pool, TraceRunner, dump_tables

# ---------------------------------------------------------------------------
# knobs (env-tunable so CI can scale the fuzzer without code changes)
# ---------------------------------------------------------------------------

#: Seeded traces (acceptance floor: 25).
TRACE_COUNT = int(os.environ.get("CRASH_FUZZ_TRACES", "25"))
#: Uniformly drawn kill points per trace (floor: TRACE_COUNT * KILLS >= 200).
KILLS_PER_TRACE = int(os.environ.get("CRASH_FUZZ_KILLS", "8"))
#: Ops per trace (every op is one transaction).
TRACE_LENGTH = int(os.environ.get("CRASH_FUZZ_TRACE_LENGTH", "16"))
#: Where failing trials dump their directory + manifest.
ARTIFACT_DIR = os.environ.get("CRASH_FUZZ_ARTIFACT_DIR", "")

#: Traces that also run, and die, under a tiny checkpoint threshold.
CHECKPOINT_TRACE_COUNT = 10
#: That threshold: a few commits' worth of frames, so a short trace
#: checkpoints several times.
SMALL_CHECKPOINT_BYTES = 64 * 1024
#: Seeded cuts of the ``-wal`` file per trace.
CUTS_PER_TRACE = 8

#: Exit status of a child its progress handler killed.
KILLED = 77


class WalPool(Pool):
    """The differential harness's service stack over a WAL engine."""

    def __init__(self, directory, checkpoint_bytes=None):
        engine = WalStorageEngine(directory)
        if checkpoint_bytes is not None:
            engine.checkpoint_bytes = checkpoint_bytes
        super().__init__("wal", database=Database(engine=engine))


class CrashTraceRunner(TraceRunner):
    """Single-pool trace with one transaction per op.

    ``on_committed`` runs after each op's ``transaction()`` scope exited
    cleanly: the op's acknowledgement.

    Job ids are drawn from a *per-runner* counter instead of the
    process-wide :func:`repro.cluster.job.next_job_id` allocator, so the
    calibration run, the reference run and every crash trial of one seed
    submit byte-identical jobs.
    """

    def __init__(self, seed, pool, on_committed=None):
        super().__init__(seed, [pool])
        self.on_committed = on_committed
        self._job_ids = iter(range(1, 10 ** 6))

    def op_submit_batch(self):
        # Mirrors the base op rng-draw for rng-draw; only the job-id
        # source differs (deterministic per runner).
        specs = []
        for _ in range(self.rng.randint(1, 6)):
            spec = JobSpec(
                job_id=next(self._job_ids),
                owner=f"user{self.rng.randint(0, 3)}",
                run_seconds=round(self.rng.uniform(5.0, 120.0), 3),
            )
            if self.submitted_ids and self.rng.random() < 0.4:
                parents = self.rng.sample(
                    self.submitted_ids,
                    k=min(len(self.submitted_ids), self.rng.randint(1, 3)),
                )
                spec.depends_on = tuple(parents)
            specs.append(spec)
            self.submitted_ids.append(spec.job_id)
        for pool in self.pools:
            pool.submission.submit_jobs(specs, self.now)

    def run(self, steps):
        db = self.pools[0].db
        names = [name for name, weight, _ in self.OPS for _ in range(weight)]
        # Dispatch through *bound* methods so the op_submit_batch
        # override above is honored (OPS holds the base functions).
        by_name = {name: getattr(self, op.__name__)
                   for name, _, op in self.OPS}
        ops = [self.op_register_machine, self.op_submit_batch]
        for index in range(len(ops) + steps):
            self._tick()
            op = ops[index] if index < len(ops) else by_name[
                self.rng.choice(names)]
            with db.transaction():
                op()
            if self.on_committed is not None:
                self.on_committed()


# ---------------------------------------------------------------------------
# calibration and reference (computed once per seed, shared by the trials)
# ---------------------------------------------------------------------------

@dataclass
class Calibration:
    """One clean in-process run of a trace."""

    steps: int = 0
    #: VM steps counted as each COMMIT began and as it returned.
    commits: List[Tuple[int, int]] = field(default_factory=list)
    #: The same around each checkpoint that completed.
    checkpoints: List[Tuple[int, int]] = field(default_factory=list)
    #: ``-wal`` bytes after set-up (index 0) and after each op.
    wal_sizes: List[int] = field(default_factory=list)


def _calibrate(seed, directory, checkpoint_bytes=None, keep=None):
    """Run ``seed``'s trace cleanly in ``directory``; with ``keep``, copy
    ``pool.db`` and ``pool.db-wal`` there before the engine closes (a
    close checkpoints and deletes the log)."""
    pool = WalPool(directory, checkpoint_bytes)
    engine = pool.db.engine
    found = Calibration(wal_sizes=[engine._wal_size()])
    steps = [0]
    commit, checkpoint = engine._commit_raw, engine.checkpoint

    def counted_commit():
        began = steps[0]
        commit()
        found.commits.append((began, steps[0]))

    def counted_checkpoint():
        began, done = steps[0], engine.counts.checkpoints
        checkpoint()
        if engine.counts.checkpoints > done:
            found.checkpoints.append((began, steps[0]))

    def progress():
        steps[0] += 1
        return 0

    engine._commit_raw, engine.checkpoint = counted_commit, counted_checkpoint
    engine._conn.set_progress_handler(progress, 1)
    try:
        CrashTraceRunner(seed, pool, on_committed=lambda: (
            found.wal_sizes.append(engine._wal_size()))).run(TRACE_LENGTH)
        found.steps = steps[0]
        if keep is not None:
            os.makedirs(keep)
            for name in ("pool.db", "pool.db-wal"):
                shutil.copy(os.path.join(directory, name), keep)
    finally:
        pool.close()
    return found


_DUMPS = {}


def _reference_dumps(seed):
    """``dumps[k]``: the tables after the first ``k`` ops, replayed on an
    in-memory SQLite engine (``dumps[0]`` is the empty schema)."""
    if seed not in _DUMPS:
        reference = Pool("sqlite")
        dumps = [dump_tables(reference.db)]
        try:
            CrashTraceRunner(seed, reference, on_committed=lambda: (
                dumps.append(dump_tables(reference.db)))).run(TRACE_LENGTH)
        finally:
            reference.close()
        _DUMPS[seed] = dumps
    return _DUMPS[seed]


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

def _child(seed, directory, kill, checkpoint_bytes, acks):
    """The forked child: run the trace, acknowledge each op on ``acks``,
    and die at VM step ``kill`` — or, if the trace ends first, die
    there, without closing the engine."""
    pool = WalPool(directory, checkpoint_bytes)
    steps = [0]

    def progress():
        steps[0] += 1
        if steps[0] >= kill:
            os._exit(KILLED)
        return 0
    pool.db.engine._conn.set_progress_handler(progress, 1)
    CrashTraceRunner(seed, pool, on_committed=lambda: os.write(acks, b".")
                     ).run(TRACE_LENGTH)
    os._exit(0)


def _killed_run(seed, directory, kill, checkpoint_bytes):
    """Fork a child that dies at VM step ``kill``; returns how many ops it
    acknowledged."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            _child(seed, directory, kill, checkpoint_bytes, write_end)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(1)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        acked = len(pipe.read())
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    assert code in (KILLED, 0), f"seed {seed} kill {kill}: child exited {code}"
    return acked


def _dump_artifact(seed, label, directory, manifest):
    if not directory:
        return
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    name = f"seed{seed}-{label}"
    target = os.path.join(ARTIFACT_DIR, name)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(directory, target)
    manifest = dict(manifest, seed=seed, trace_length=TRACE_LENGTH)
    with open(os.path.join(ARTIFACT_DIR, name + ".json"), "w") as handle:
        json.dump(manifest, handle, indent=2)


def _recovered(seed, directory, label, allowed, manifest):
    """Open a fresh engine on ``directory``; its tables must equal one of
    the reference prefixes ``allowed``.  Returns the prefix matched."""
    dumps = _reference_dumps(seed)
    # Opening the directory recovers it; an artifact wants it as found.
    survivor = (shutil.copytree(directory, directory + "-as-found")
                if ARTIFACT_DIR else None)
    recovered = WalPool(directory)
    try:
        state = dump_tables(recovered.db)
        for prefix in allowed:
            if repr(state) == repr(dumps[prefix]):
                break
        else:
            diverged = [table for table in TABLES
                        if repr(state[table]) != repr(dumps[allowed[0]][table])]
            raise AssertionError(
                f"seed {seed} {label}: recovered tables match none of the "
                f"prefixes {allowed}; {diverged} differ from prefix "
                f"{allowed[0]}")
        # the recovered engine must serve writes again
        recovered.db.execute(
            "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
            (f"post-recovery-{label}", 0.0))
    except AssertionError as exc:
        _dump_artifact(seed, label, survivor,
                       dict(manifest, allowed=list(allowed), error=str(exc)))
        raise
    finally:
        recovered.close()
        if survivor:
            shutil.rmtree(survivor, ignore_errors=True)
    return prefix


def _kill_trial(seed, tmp_path, label, kill, checkpoint_bytes=None):
    directory = str(tmp_path / label)
    acked = _killed_run(seed, directory, kill, checkpoint_bytes)
    total = TRACE_LENGTH + 2
    allowed = [acked] + ([acked + 1] if acked < total else [])
    return acked, _recovered(
        seed, directory, label, allowed,
        {"kind": "kill", "kill_step": kill, "acked": acked,
         "checkpoint_bytes": checkpoint_bytes})


# ---------------------------------------------------------------------------
# the fuzzer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(TRACE_COUNT))
def test_crash_recovery_randomized_kill_points(seed, tmp_path):
    """Kill one seeded trace at KILLS_PER_TRACE VM steps drawn uniformly
    over its calibration run; every recovery holds the acknowledged
    ops, or those and the op in flight."""
    found = _calibrate(seed, str(tmp_path / "calibration"))
    assert found.commits, "trace committed nothing — not a useful trace"
    rng = random.Random(0xC0FFEE ^ seed)
    # The trial's index is in its label: a short trace can draw one
    # step twice, and each trial needs a directory of its own.
    for trial in range(KILLS_PER_TRACE):
        kill = rng.randint(1, found.steps)
        _kill_trial(seed, tmp_path, f"kill{kill}-{trial}", kill)


@pytest.mark.parametrize("seed", range(TRACE_COUNT))
def test_crash_recovery_around_every_commit(seed, tmp_path):
    """Kill one seeded trace at the first VM step of each COMMIT, before
    SQLite writes its frames, and at the last, after.  Dying at the last
    recovers the op in flight, which no ack covered; dying at the first
    must not, which an ack sent before the scope exits would break."""
    found = _calibrate(seed, str(tmp_path / "calibration"))
    dumps = _reference_dumps(seed)
    in_flight = 0
    for index, (began, returned) in enumerate(found.commits):
        for kill in sorted({began + 1, returned}):
            acked, prefix = _kill_trial(
                seed, tmp_path, f"commit{index}-kill{kill}", kill)
            if prefix > acked and dumps[prefix] != dumps[acked]:
                in_flight += 1
    assert in_flight, f"seed {seed}: no kill recovered an op in flight"


@pytest.mark.parametrize("seed", range(CHECKPOINT_TRACE_COUNT))
def test_crash_recovery_across_checkpoints(seed, tmp_path):
    """Under a tiny checkpoint threshold, kill the trace just before and
    just after each checkpoint, and at KILLS_PER_TRACE uniform steps."""
    found = _calibrate(seed, str(tmp_path / "calibration"),
                       SMALL_CHECKPOINT_BYTES)
    assert found.checkpoints, f"seed {seed}: the trace never checkpointed"
    rng = random.Random(0xC4EC ^ seed)
    kills = {max(1, step) for pair in found.checkpoints for step in pair}
    kills.update(rng.randint(1, found.steps) for _ in range(KILLS_PER_TRACE))
    for kill in sorted(kills):
        _kill_trial(seed, tmp_path, f"ckpt-kill{kill}", kill,
                    SMALL_CHECKPOINT_BYTES)


@pytest.mark.parametrize("seed", range(TRACE_COUNT))
def test_torn_wal_tail_recovers_the_commits_that_fit(seed, tmp_path):
    """Cut a clean run's ``-wal`` at a seeded byte — anywhere, just at a
    commit's end, one byte short of it — and drop ``-shm``: a fresh
    engine holds the longest prefix of ops whose post-commit WAL size
    fits in the cut (SQLite's frames, under the torn-write model)."""
    clean = str(tmp_path / "clean")
    found = _calibrate(seed, str(tmp_path / "calibration"), keep=clean)
    sizes = found.wal_sizes
    rng = random.Random(0x7EA2 ^ seed)
    end = rng.choice(sizes[1:])
    cuts = {end, end - 1}
    while len(cuts) < CUTS_PER_TRACE:
        cuts.add(rng.randint(0, sizes[-1]))
    for cut in sorted(cuts):
        # The clean copy holds no ``-shm``: SQLite rebuilds the log's
        # index from the cut file alone.
        directory = str(tmp_path / f"cut{cut}")
        shutil.copytree(clean, directory)
        with open(os.path.join(directory, "pool.db-wal"), "r+b") as log:
            log.truncate(cut)
        fits = max([0] + [ops for ops, size in enumerate(sizes)
                          if size <= cut])
        _recovered(seed, directory, f"cut{cut}", [fits],
                   {"kind": "torn-tail", "cut": cut, "wal_sizes": sizes})


def test_fuzzer_meets_acceptance_floor():
    """>=200 uniform kill trials across >=25 traces, plus the kills around
    every commit, the checkpoint traces and the torn tails."""
    assert TRACE_COUNT >= 25
    assert TRACE_COUNT * KILLS_PER_TRACE >= 200
    assert CHECKPOINT_TRACE_COUNT * KILLS_PER_TRACE >= 40
    assert TRACE_COUNT * CUTS_PER_TRACE >= 200


# ---------------------------------------------------------------------------
# reopening is a fixpoint
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_reopening_twice_gives_equal_tables(seed, force_checkpoint):
    """Reopen a directory, then reopen it again (with or without an
    intervening checkpoint): the tables are equal."""
    rng = random.Random(seed)
    directory = tempfile.mkdtemp(prefix="condorj2-walprop-")
    try:
        engine = WalStorageEngine(directory)
        Database(engine=engine)
        for index in range(rng.randint(1, 12)):
            engine.execute(
                "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
                (f"u{index}", float(index)),
            )
            if rng.random() < 0.3:
                engine.execute(
                    "UPDATE users SET priority = ? WHERE user_name = ?",
                    (round(rng.random(), 3), f"u{rng.randint(0, index)}"),
                )
        if force_checkpoint:
            engine.checkpoint()
        engine.close()

        states = []
        for _ in range(2):
            reopened = Database(engine=WalStorageEngine(directory))
            states.append(dump_tables(reopened))
            reopened.close()
        assert repr(states[0]) == repr(states[1])
        assert len(states[0]["users"]) >= 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# the durability counters
# ---------------------------------------------------------------------------

def test_plan_cache_eviction_under_wal(tmp_path):
    """Statement-cache eviction churn on the WAL engine must not disturb
    the log: evicting and recompiling plans writes no frames."""
    db = Database(engine=WalStorageEngine(str(tmp_path / "evict")))
    engine = db.engine
    engine.execute(
        "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
        ("u", 1.0),
    )
    appends = engine.counts.wal_appends
    # churn the cache with more distinct SELECT texts than it holds
    capacity = engine.statement_cache.capacity
    for index in range(capacity + 8):
        engine.execute(
            f"SELECT priority FROM users WHERE created_at < {index + 2}.0"
        )
    assert engine.counts.plan_evictions > 0
    assert len(engine.statement_cache) == capacity
    assert engine.counts.wal_appends == appends, (
        "read-only cache churn wrote WAL frames"
    )
    engine.close()


def test_durability_counters_merge_and_delta():
    """The fsync/append/checkpoint counters obey the same merge/delta
    algebra as every other StatementCounts field."""
    left = StatementCounts(wal_appends=3, fsyncs=2, checkpoints=1, commits=5)
    right = StatementCounts(wal_appends=4, fsyncs=7, checkpoints=0, commits=1)
    merged = left.merge(right)
    assert merged.wal_appends == 7
    assert merged.fsyncs == 9
    assert merged.checkpoints == 1
    assert merged.commits == 6
    # delta inverts merge
    back = merged.delta(right)
    assert back == left
    # snapshot round-trips the durability ledger
    assert left.snapshot() == left


def test_wal_counters_observed_end_to_end(tmp_path):
    """``fsyncs`` counts the commits that grew the log, ``wal_appends``
    the frames they wrote, ``checkpoints`` the truncations; the schema
    script is uncounted."""
    db = Database(engine=WalStorageEngine(str(tmp_path / "counts")))
    engine = db.engine
    counts = engine.counts
    assert (counts.fsyncs, counts.wal_appends) == (0, 0)
    schema_bytes = engine.wal_stats()["wal_bytes"]
    for index in range(3):
        db.execute("INSERT INTO users (user_name, created_at) VALUES (?, ?)",
                   (f"u{index}", float(index)))
    with db.transaction():
        db.execute("INSERT INTO users (user_name, created_at) VALUES ('t', 0)")
        db.execute("UPDATE users SET priority = 0.9 WHERE user_name = 't'")
    with db.transaction():
        db.query_all("SELECT * FROM users")  # read-only: no commit point
    db.query_all("SELECT * FROM users")
    assert counts.fsyncs == 4
    stats = engine.wal_stats()
    frame = engine._frame_bytes
    assert counts.wal_appends == (stats["wal_bytes"] - schema_bytes) // frame
    assert counts.wal_appends >= 4
    assert stats["stream_bytes"] == stats["wal_bytes"]

    engine.checkpoint_bytes = 1
    db.execute("INSERT INTO users (user_name, created_at) VALUES ('c', 0)")
    assert counts.checkpoints == 1
    # the checkpoint truncated the log; the insert began a new one
    assert engine.wal_stats()["wal_bytes"] < stats["wal_bytes"]
    assert engine.wal_stats()["stream_bytes"] > stats["stream_bytes"]
    db.close()


def test_a_checkpoint_waits_for_an_open_read(tmp_path):
    """A cursor with rows left holds a read open, and SQLite refuses to
    truncate the log under it: the due checkpoint is skipped, and the
    next committed boundary after the read closed takes it."""
    db = Database(engine=WalStorageEngine(str(tmp_path / "read")))
    engine = db.engine
    db.executemany("INSERT INTO users (user_name, created_at) VALUES (?, 0)",
                   [("a",), ("b",)])
    reading = db.execute("SELECT user_name FROM users")
    assert reading.fetchone() is not None
    engine.checkpoint_bytes = 1
    with db.transaction():
        db.execute("UPDATE users SET priority = 0.9")
    assert engine.counts.checkpoints == 0
    reading.close()
    with db.transaction():
        pass
    assert engine.counts.checkpoints == 1
    assert engine.wal_stats()["wal_bytes"] == 0
    db.close()
