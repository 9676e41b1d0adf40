"""Crash-recovery fuzzing of the WAL-backed storage engine.

The differential harness (``test_differential.py``) pins *state
equivalence*: replaying one workload on two engines yields identical
tables.  This harness extends the discipline to *crash equivalence*, the
contract that makes :class:`WalStorageEngine` durable rather than merely
file-backed:

    kill the engine at **any** byte of its write-ahead-log stream — or
    at any step of a checkpoint — and a fresh engine recovering the
    directory must reach a state **byte-identical** to a reference
    memory engine that executed exactly the committed prefix of the
    workload.

Mechanics: each seeded trace drives the full service stack (the
differential fuzzer's op vocabulary) with every op in its own
transaction, so "committed prefix" is transaction-granular — an op
counts as committed exactly when its commit record became fully durable,
which is exactly when the ``transaction()`` scope exited cleanly.  A
calibration run learns the trace's total log length and every commit
record's end offset; kill points are then drawn both uniformly at random
and *targeted* (one byte short of a commit record — a torn commit — and
exactly at one), plus dedicated trials that die inside each checkpoint
step.  After each kill the engine object is dead (every call raises
:class:`SimulatedCrash`); recovery constructs a fresh engine on the
directory and the recovered tables are compared against the reference
snapshot taken after the same number of committed ops.

Failing trials dump the WAL directory plus a seed/kill-point manifest to
``CRASH_FUZZ_ARTIFACT_DIR`` (CI uploads it), so any counterexample
replays locally from the artifact alone.

Alongside the fuzzer: hypothesis properties for the CRC32 log framing
(round-trip, torn-tail and corruption behaviour) and for
checkpoint/replay idempotence (recovering a directory is a fixpoint),
and the satellite pins — poisoned plan-cache artifacts never reach the
log, and the durability counters obey the merge/delta algebra.
"""

import json
import os
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import JobSpec
from repro.condorj2.database import Database
from repro.condorj2.schema import TABLES
from repro.condorj2.storage import StatementCounts, WalStorageEngine
from repro.condorj2.storage.memory import _FailedPlan
from repro.condorj2.storage.wal import (
    CrashInjector,
    FsyncPolicy,
    SimulatedCrash,
    encode_record,
    frame_record,
    iter_frames,
    scan_records,
)

from tests.condorj2.test_differential import Pool, TraceRunner, dump_tables

# ---------------------------------------------------------------------------
# knobs (env-tunable so CI can scale the fuzzer without code changes)
# ---------------------------------------------------------------------------

#: Seeded traces (acceptance floor: 25).
TRACE_COUNT = int(os.environ.get("CRASH_FUZZ_TRACES", "25"))
#: Randomized kill points per trace (floor: TRACE_COUNT * KILLS >= 200).
KILLS_PER_TRACE = int(os.environ.get("CRASH_FUZZ_KILLS", "8"))
#: Ops per trace (every op is one transaction).
TRACE_LENGTH = int(os.environ.get("CRASH_FUZZ_TRACE_LENGTH", "16"))
#: Where failing trials dump their WAL directory + manifest.
ARTIFACT_DIR = os.environ.get("CRASH_FUZZ_ARTIFACT_DIR", "")

#: Traces that additionally die inside each checkpoint step.
CHECKPOINT_TRACE_COUNT = 10
#: Tiny rotation threshold so short traces checkpoint several times.
CHECKPOINT_INTERVAL = 900


class WalPool(Pool):
    """The differential harness's service stack over a WAL engine."""

    def __init__(self, directory, injector=None, track=False):
        engine = WalStorageEngine(
            directory,
            injector=injector,
            track_commit_positions=track,
        )
        super().__init__("wal", database=Database(engine=engine))


class CrashTraceRunner(TraceRunner):
    """Single-pool trace with one transaction per op.

    ``completed`` counts ops whose transaction scope exited cleanly —
    under fsync-on-commit, exactly the ops whose commit record is fully
    durable in the log, i.e. the committed prefix the recovery contract
    is stated over.

    Job ids are drawn from a *per-runner* counter instead of the
    process-wide :func:`repro.cluster.job.next_job_id` allocator, so the
    calibration run, the reference run and every crash trial of one seed
    submit byte-identical jobs.
    """

    def __init__(self, seed, pool, on_committed=None):
        super().__init__(seed, [pool])
        self.completed = 0
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
        for op in (self.op_register_machine, self.op_submit_batch):
            self._tick()
            with db.transaction():
                op()
            self._op_done()
        for _ in range(steps):
            self._tick()
            name = self.rng.choice(names)
            with db.transaction():
                by_name[name]()
            self._op_done()

    def _op_done(self):
        self.completed += 1
        if self.on_committed is not None:
            self.on_committed(self)


# ---------------------------------------------------------------------------
# per-seed calibration + reference (computed once, shared by the trials)
# ---------------------------------------------------------------------------

_SEED_DATA = {}


def _seed_data(seed):
    """(total stream bytes, commit offsets, reference dumps per prefix).

    One clean WAL run learns the trace's log geometry; one memory-engine
    run records the reference table state after every committed op —
    ``dumps[k]`` is the expected state after a committed prefix of ``k``
    ops (``dumps[0]`` is the empty schema).
    """
    if seed in _SEED_DATA:
        return _SEED_DATA[seed]
    pool = WalPool(":memory:", track=True)
    try:
        runner = CrashTraceRunner(seed, pool)
        runner.run(TRACE_LENGTH)
        total = pool.db.engine.stream_pos
        commits = list(pool.db.engine.commit_positions)
    finally:
        pool.close()

    reference = Pool("memory")
    dumps = [dump_tables(reference.db)]
    try:
        runner = CrashTraceRunner(
            seed, reference,
            on_committed=lambda r: dumps.append(dump_tables(reference.db)),
        )
        runner.run(TRACE_LENGTH)
    finally:
        reference.close()
    _SEED_DATA[seed] = (total, commits, dumps)
    return _SEED_DATA[seed]


def _kill_points(seed, total, commits):
    """The trace's kill offsets: random bytes plus targeted torn/exact
    commit boundaries (every trace exercises a torn write)."""
    rng = random.Random(0xC0FFEE ^ seed)
    points = []
    if commits:
        last = rng.choice(commits)
        points.append(last - 1)  # torn commit record
        points.append(last)      # crash exactly at a commit boundary
        points.append(max(0, commits[0] - 2))  # early, mid-first-op
    while len(points) < KILLS_PER_TRACE:
        points.append(rng.randrange(0, max(total, 1)))
    return points[:KILLS_PER_TRACE]


def _dump_artifact(seed, kill, directory, completed, error):
    if not ARTIFACT_DIR:
        return
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    name = f"seed{seed}-kill{kill}"
    target = os.path.join(ARTIFACT_DIR, name)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(directory, target)
    manifest = {
        "seed": seed,
        "kill": kill,
        "trace_length": TRACE_LENGTH,
        "completed_ops": completed,
        "error": str(error),
    }
    with open(os.path.join(ARTIFACT_DIR, name + ".json"), "w") as handle:
        json.dump(manifest, handle, indent=2)


def _run_trial(seed, dumps, tmp_path, label, **engine_kwargs):
    """Kill one trace with ``engine_kwargs``'s injector, recover, and
    assert crash equivalence against the reference prefix dumps."""
    directory = str(tmp_path / label)
    pool = WalPool(directory, **engine_kwargs)
    completed = TRACE_LENGTH + 2
    try:
        runner = CrashTraceRunner(seed, pool)
        try:
            runner.run(TRACE_LENGTH)
        except SimulatedCrash:
            completed = runner.completed
            # the dead engine must refuse further work
            with pytest.raises(SimulatedCrash):
                pool.db.execute("SELECT user_name FROM users")
    finally:
        engine_file = pool.db.engine._file
        if engine_file is not None and not engine_file.closed:
            engine_file.close()

    recovered = WalPool(directory)
    try:
        state = dump_tables(recovered.db)
        expected = dumps[completed]
        for table in TABLES:
            assert repr(state[table]) == repr(expected[table]), (
                f"seed {seed} {label}: {table} diverges after recovery "
                f"(committed prefix = {completed} ops)"
            )
        # the recovered engine must serve writes again
        recovered.db.execute(
            "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
            (f"post-recovery-{label}", 0.0),
        )
    except AssertionError as exc:
        _dump_artifact(seed, label, directory, completed, exc)
        raise
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# the fuzzer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(TRACE_COUNT))
def test_crash_recovery_randomized_kill_points(seed, tmp_path):
    """Kill one seeded trace at KILLS_PER_TRACE log offsets — torn
    commits, exact boundaries and uniform random bytes — and require
    committed-prefix equivalence after every recovery."""
    total, commits, dumps = _seed_data(seed)
    assert commits, "trace produced no commit records — not a useful trace"
    # The trial's index is in its label: a short log can draw one
    # offset twice, and each trial needs a directory of its own.
    for trial, kill in enumerate(_kill_points(seed, total, commits)):
        _run_trial(
            seed, dumps, tmp_path, f"kill{kill}-{trial}",
            injector=CrashInjector(crash_after_bytes=kill),
        )


@pytest.mark.parametrize("seed", range(CHECKPOINT_TRACE_COUNT))
@pytest.mark.parametrize("step", CrashInjector.CHECKPOINT_STEPS)
def test_crash_recovery_mid_checkpoint(seed, step, tmp_path):
    """Die inside every checkpoint step (half-written snapshot, around
    the atomic rename, around segment rotation) and recover."""
    _, _, dumps = _seed_data(seed)
    directory = str(tmp_path / step)
    pool = WalPool(directory, injector=CrashInjector(checkpoint_step=(1, step)))
    pool.db.engine.checkpoint_interval_bytes = CHECKPOINT_INTERVAL
    completed = TRACE_LENGTH + 2
    crashed = False
    try:
        runner = CrashTraceRunner(seed, pool)
        try:
            runner.run(TRACE_LENGTH)
        except SimulatedCrash:
            crashed = True
            completed = runner.completed
    finally:
        engine_file = pool.db.engine._file
        if engine_file is not None and not engine_file.closed:
            engine_file.close()
    if not crashed:
        # Short trace never reached its second checkpoint — still a
        # valid (uncrashed) run; equivalence must hold regardless.
        assert pool.db.engine.counts.checkpoints <= 1
    recovered = WalPool(directory)
    try:
        state = dump_tables(recovered.db)
        expected = dumps[completed]
        for table in TABLES:
            assert repr(state[table]) == repr(expected[table]), (
                f"seed {seed} checkpoint step {step!r}: {table} diverges "
                f"(committed prefix = {completed} ops)"
            )
    except AssertionError as exc:
        _dump_artifact(seed, f"ckpt-{step}", directory, completed, exc)
        raise
    finally:
        recovered.close()


def test_fuzzer_meets_acceptance_floor():
    """ISSUE 7 floor: >=200 randomized kill trials across >=25 traces,
    with torn-write and mid-checkpoint kills included."""
    assert TRACE_COUNT >= 25
    assert TRACE_COUNT * KILLS_PER_TRACE >= 200
    assert CHECKPOINT_TRACE_COUNT * len(CrashInjector.CHECKPOINT_STEPS) >= 40


# ---------------------------------------------------------------------------
# hypothesis properties: log framing
# ---------------------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_records = st.lists(
    st.dictionaries(st.text(max_size=8), _json_scalars, max_size=4),
    max_size=8,
)


@settings(deadline=None, max_examples=60)
@given(_records)
def test_framing_round_trips(records):
    """encode -> concatenate -> scan recovers every record, cleanly."""
    data = b"".join(encode_record(record) for record in records)
    decoded, clean = scan_records(data)
    assert clean
    assert [obj for obj, _ in decoded] == records
    # frame end offsets are strictly increasing and end at len(data)
    ends = [end for _, end in decoded]
    assert ends == sorted(set(ends))
    if records:
        assert ends[-1] == len(data)


@settings(deadline=None, max_examples=60)
@given(_records, st.data())
def test_framing_torn_tail_is_a_clean_prefix(records, data):
    """Truncating the stream anywhere yields a prefix of the records and
    never a phantom record."""
    stream = b"".join(encode_record(record) for record in records)
    if not stream:
        return
    cut = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
    decoded, clean = scan_records(stream[:cut])
    whole, _ = scan_records(stream)
    assert [obj for obj, _ in decoded] == [obj for obj, _ in whole][
        : len(decoded)
    ]
    # the cut byte is strictly inside some record, so the scan is dirty
    # unless the cut landed exactly on a frame boundary
    boundaries = {0} | {end for _, end in whole}
    assert clean == (cut in boundaries)


@settings(deadline=None, max_examples=60)
@given(_records, st.data())
def test_framing_detects_corruption(records, data):
    """Flipping any byte invalidates that record's frame: the scan stops
    at (or before) the corrupted record instead of yielding garbage."""
    stream = b"".join(encode_record(record) for record in records)
    if not stream:
        return
    index = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
    corrupt = bytearray(stream)
    corrupt[index] ^= 0xFF
    decoded, _ = scan_records(bytes(corrupt))
    whole, _ = scan_records(stream)
    victims = [end for _, end in whole if end > index]
    intact = len(whole) - len(victims)
    # everything before the corrupted record survives; the corrupted
    # record itself never decodes to a *different* valid object at its
    # original position
    for position in range(min(intact, len(decoded))):
        assert decoded[position][0] == whole[position][0]
    assert len(decoded) <= len(whole)


def test_frame_record_rejects_nothing_but_crc_mismatch():
    """A record whose CRC header lies is dropped, not raised."""
    good = encode_record({"t": "commit"})
    bad = bytearray(good)
    bad[-1] ^= 0x01  # corrupt payload, keep header
    records, clean = scan_records(bytes(bad))
    assert records == [] and not clean
    assert list(iter_frames(frame_record(b"x")))  # sanity: helper works


# ---------------------------------------------------------------------------
# hypothesis property: checkpoint/replay idempotence
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.booleans())
def test_checkpoint_and_replay_are_idempotent(seed, force_checkpoint):
    """Recovering a directory is a fixpoint: recover once, recover
    again (with or without an intervening checkpoint) — same tables,
    and a clean log tail every time."""
    rng = random.Random(seed)
    import tempfile
    directory = tempfile.mkdtemp(prefix="condorj2-walprop-")
    try:
        engine = WalStorageEngine(directory)
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

        first = WalStorageEngine(directory)
        state_one = {
            table: first.execute(
                f"SELECT * FROM {table}"  # sql-ident: table
            ).fetchall()
            for table in ("users",)
        }
        first.close()

        second = WalStorageEngine(directory)
        state_two = {
            table: second.execute(
                f"SELECT * FROM {table}"  # sql-ident: table
            ).fetchall()
            for table in ("users",)
        }
        # a second recovery replays nothing new and drops nothing
        assert second.last_recovery is None or (
            second.last_recovery.tail_bytes_dropped == 0
        )
        second.close()
        assert repr(state_one) == repr(state_two)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# satellites: plan-cache poisoning, durability counters
# ---------------------------------------------------------------------------

def test_failed_plans_never_reach_the_log(tmp_path):
    """A poisoned ``_FailedPlan`` cache artifact (cached compile error)
    raises on every use but must leave zero trace in the WAL: replaying
    the log after a crash cannot re-poison or replay it."""
    directory = str(tmp_path / "poison")
    engine = WalStorageEngine(directory)
    bad_sql = "INSERT INTO users (no_such_column) VALUES (?)"
    for _ in range(3):
        with pytest.raises(Exception):
            engine.execute(bad_sql, ("x",))
    # the poisoned artifact is cached (one miss, then hits) ...
    poisoned = engine.statement_cache.peek(bad_sql)
    assert isinstance(poisoned.plan, _FailedPlan) and poisoned.uses == 3
    assert (engine.counts.plan_misses, engine.counts.plan_hits) == (1, 2)
    # ... but nothing was appended for it
    assert engine.counts.wal_appends == 0
    engine.execute(
        "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
        ("ok", 1.0),
    )
    assert engine.counts.wal_appends == 1
    engine.close()

    recovered = WalStorageEngine(directory)
    assert recovered.counts.wal_replays == 1
    assert recovered.last_recovery.records_scanned == 1
    # recovery rebuilt state without ever compiling the poisoned SQL
    assert recovered.statement_cache.peek(bad_sql) is None
    rows = recovered.execute("SELECT user_name FROM users").fetchall()
    assert [row[0] for row in rows] == ["ok"]
    recovered.close()


def test_plan_cache_eviction_under_wal(tmp_path):
    """Statement-cache eviction churn on the WAL engine must not disturb
    the log: evicting and recompiling plans adds no records."""
    engine = WalStorageEngine(str(tmp_path / "evict"))
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
        "read-only cache churn appended WAL records"
    )
    engine.close()


def test_durability_counters_merge_and_delta():
    """The new fsync/replay/append/checkpoint counters obey the same
    merge/delta algebra as every other StatementCounts field."""
    left = StatementCounts(wal_appends=3, wal_replays=1, fsyncs=2,
                           checkpoints=1, commits=5)
    right = StatementCounts(wal_appends=4, wal_replays=2, fsyncs=7,
                            checkpoints=0, commits=1)
    merged = left.merge(right)
    assert merged.wal_appends == 7
    assert merged.wal_replays == 3
    assert merged.fsyncs == 9
    assert merged.checkpoints == 1
    assert merged.commits == 6
    # delta inverts merge
    back = merged.delta(right)
    assert back == left
    # snapshot round-trips the durability ledger
    assert left.snapshot() == left


def test_wal_counters_observed_end_to_end(tmp_path):
    """fsync policy drives the fsyncs counter; recovery drives replays."""
    directory = str(tmp_path / "counts")
    engine = WalStorageEngine(
        directory, fsync_policy=FsyncPolicy(mode="interval", interval=3)
    )
    for index in range(7):
        engine.execute(
            "INSERT INTO users (user_name, created_at) VALUES (?, ?)",
            (f"u{index}", float(index)),
        )
    assert engine.counts.wal_appends == 7
    assert engine.counts.fsyncs == 2  # commits 3 and 6 under interval=3
    engine.close()
    recovered = WalStorageEngine(directory)
    assert recovered.counts.wal_replays == 7
    never = WalStorageEngine(
        str(tmp_path / "never"), fsync_policy=FsyncPolicy(mode="never")
    )
    never.execute(
        "INSERT INTO users (user_name, created_at) VALUES (?, ?)", ("x", 1.0)
    )
    assert never.counts.fsyncs == 0
    never.close()
    recovered.close()
