"""Tier-1 tests for the lifecycle/transaction analysis tier.

Three properties are enforced here:

* **static soundness** — an unmutated copy of the service layer yields
  zero lifecycle/transaction errors, and the interprocedural protection
  fixpoint reaches the verdicts the code is written against
  (``record_boot``/``change_value`` are protected by their callers);
* **sensitivity** — seeded mutations (an illegal transition target, a
  stripped state guard, a parameter-bound state write put back on the
  bean path or in a service, a transition split across two transaction
  scopes) are each caught by exactly the intended rule with exact
  file:line provenance;
* **runtime cross-check** — a full service workload's observed
  transition ledger is a subset of the declared lifecycle graphs on all
  three storage backends, the ledgers agree across backends, and the
  workload walks a meaningful share of the declared edges.
"""

import shutil
from pathlib import Path

import pytest

from repro.cluster import JobSpec
from repro.condorj2.analysis import (
    analyze, build_function_index, extract_corpus,
)
from repro.condorj2.analysis.txn import exposure, protection, writes_of
from repro.condorj2.beans import BeanContainer
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.schema import LIFECYCLES
from repro.condorj2.storage.transitions import transition_spec

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro" / "condorj2"


# ----------------------------------------------------------------------
# static tier: seeded mutations into a copy of the service layer
# ----------------------------------------------------------------------

def _copy_logic(tmp_path):
    """An analyzable tree holding a private copy of ``logic/`` and of
    the ``beans/`` it calls."""
    root = tmp_path / "tree"
    shutil.copytree(PACKAGE_ROOT / "logic", root / "logic")
    shutil.copytree(PACKAGE_ROOT / "beans", root / "beans")
    return root


def _mutate(root, old, new, filename="logic/lifecycle.py"):
    target = root / filename
    text = target.read_text()
    assert old in text, f"mutation anchor not found: {old!r}"
    target.write_text(text.replace(old, new))


def _line_of(root, needle, filename="logic/lifecycle.py"):
    """1-based line of ``needle`` — keeps assertions drift-proof."""
    lines = (root / filename).read_text().splitlines()
    hits = [index for index, line in enumerate(lines, 1) if needle in line]
    assert len(hits) == 1, f"{needle!r} matched lines {hits}"
    return hits[0]


def _error_sites(root):
    _corpus, findings = analyze(root)
    return {(f.rule, f.file, f.line) for f in findings
            if f.severity == "error"}


def test_unmutated_service_copy_is_clean(tmp_path):
    assert _error_sites(_copy_logic(tmp_path)) == set()


def test_seeded_illegal_transition_is_caught(tmp_path):
    """acceptMatch retargeted to 'completed' under the 'matched' guard."""
    root = _copy_logic(tmp_path)
    _mutate(root, "SET state = 'running', attempts",
            "SET state = 'completed', attempts")
    line = _line_of(root, "updated = self.container.db.execute(")
    assert ("illegal-transition", "logic/lifecycle.py", line) \
        in _error_sites(root)


def test_seeded_unguarded_state_write_is_caught(tmp_path):
    """The VM claim stripped of its state guard writes blind."""
    root = _copy_logic(tmp_path)
    _mutate(root, "WHERE vm_id = ? AND state = 'idle'", "WHERE vm_id = ?")
    line = _line_of(root, "claimed = self.container.db.execute(")
    assert ("unguarded-state-write", "logic/lifecycle.py", line) \
        in _error_sites(root)


_BEAN_STATE_WRITE = '''

    def set_state(self, bean_class, pk, state):
        """Seeded defect: the row-at-a-time state write, back on the
        bean path and as generic as it ever was."""
        self.db.execute(  # seeded-bean-state-write
            f"UPDATE {bean_class.TABLE} SET state = ? "
            f"WHERE {bean_class.PK} = ?",
            (state, pk),
        )

    def remove(self, bean_class, pk):
        self.db.execute(  # seeded-bean-delete
            f"DELETE FROM {bean_class.TABLE} WHERE {bean_class.PK} = ?",
            (pk,),
        )
'''


def test_seeded_parameter_bound_state_write_is_caught_on_the_bean_path(
        tmp_path):
    """The lifecycle pass reads every render of a template, so a generic
    ``UPDATE {table} SET state = ?`` on the container is an unguarded
    write of each lifecycle table a bean serves, and a generic DELETE an
    illegal transition of the one whose rows are never deleted."""
    root = _copy_logic(tmp_path)
    target = root / "beans" / "base.py"
    target.write_text(target.read_text() + _BEAN_STATE_WRITE)
    _corpus, findings = analyze(root)
    write = _line_of(root, "# seeded-bean-state-write", "beans/base.py")
    blind = {(f.file, f.line, f.message.split()[1]) for f in findings
             if f.rule == "unguarded-state-write"}
    assert blind == {("beans/base.py", write, table)
                     for table in ("jobs", "machines")}
    delete = _line_of(root, "# seeded-bean-delete", "beans/base.py")
    illegal = [f.message for f in findings if f.line == delete
               and f.rule == "illegal-transition"]
    assert len(illegal) == 1 and all(  # machines
        "declares no deletable states" in message for message in illegal)


def test_seeded_parameter_bound_state_write_is_caught_in_logic(tmp_path):
    """removeJob's old walk, spelled the way the bean path dispatched
    it: the target bound as a parameter, the key the only predicate."""
    root = _copy_logic(tmp_path)
    _mutate(root,
            '"DELETE FROM jobs WHERE job_id = ? "\n'
            "                \"AND state IN ('idle', 'matched')\",\n"
            "                (job_id,),",
            '"UPDATE jobs SET state = ? WHERE job_id = ?",\n'
            '                ("removed", job_id),',
            filename="logic/submission.py")
    line = _line_of(root, "removed = db.execute(", "logic/submission.py")
    assert ("unguarded-state-write", "logic/submission.py", line) \
        in _error_sites(root)


def test_every_lifecycle_update_and_delete_in_the_tree_is_constant_text():
    """What makes the declaration enforceable: outside INSERT, no
    template renders a statement that touches a lifecycle column, and
    every constant one that does carries a literal guard."""
    corpus, _findings = analyze(PACKAGE_ROOT)
    writers = []
    for statement in corpus.statements:
        for sql in statement.renders:
            spec = transition_spec(sql)
            if spec is None or spec.verb == "INSERT":
                continue
            assert statement.constant, (statement.file, statement.line, sql)
            assert spec.guard_states, (statement.file, statement.line, sql)
            writers.append((spec.table, statement.file.split("/")[0]))
    assert {layer for table, layer in writers if table == "jobs"} == {"logic"}
    # No code moves a machine's state: a beat refreshes last_heartbeat
    # under its 'alive' guard, and only an operator takes one offline.
    assert {table for table, _ in writers} == {"jobs", "vms"}


_SPLIT_FUNCTION = '''

def requeue_job_split(container, job_id, now):
    """Seeded defect: the transition and its cleanup commit separately."""
    with container.db.transaction():
        container.db.execute(  # seeded-split-write
            "UPDATE jobs SET state = 'idle' "
            "WHERE job_id = ? AND state IN ('matched', 'running')",
            (job_id,),
        )
    with container.db.transaction():
        container.db.execute(
            "DELETE FROM matches WHERE job_id = ?", (job_id,)
        )
'''


def test_seeded_cross_commit_transition_split_is_caught(tmp_path):
    root = _copy_logic(tmp_path)
    target = root / "logic" / "lifecycle.py"
    target.write_text(target.read_text() + _SPLIT_FUNCTION)
    line = _line_of(root, "# seeded-split-write")
    assert ("txn-split-transition", "logic/lifecycle.py", line) \
        in _error_sites(root)


_UNPROTECTED_FIXTURE = '''\
class BrokenService:
    """Seeded defect: two-table requeue with no transaction scope."""

    def __init__(self, container):
        self.container = container

    def requeue(self, job_id, now):
        self.container.db.execute(  # seeded-unprotected-write
            "DELETE FROM runs WHERE job_id = ?", (job_id,))
        self.container.db.execute(
            "UPDATE jobs SET state = 'idle' "
            "WHERE job_id = ? AND state IN ('matched', 'running')",
            (job_id,),
        )
'''


def test_seeded_unprotected_multi_table_write_is_caught(tmp_path):
    root = _copy_logic(tmp_path)
    (root / "logic" / "broken.py").write_text(_UNPROTECTED_FIXTURE)
    line = _line_of(root, "# seeded-unprotected-write",
                    filename="logic/broken.py")
    assert ("txn-unprotected-write", "logic/broken.py", line) \
        in _error_sites(root)


# ----------------------------------------------------------------------
# static tier: interprocedural protection on the real tree
# ----------------------------------------------------------------------

def test_txn_model_protection_fixpoint_on_real_tree():
    index = build_function_index(PACKAGE_ROOT)
    protected = protection(index)
    exposed = exposure(index, writes_of(extract_corpus(PACKAGE_ROOT), index))
    for qualname in ("beans/entities.py:MachineBean.record_boot",
                     "beans/entities.py:PolicyBean.change_value"):
        assert protected[qualname], qualname
    # beginExecute reaches apply_events through ``self.heartbeat`` with
    # no scope open, so apply_events must carry its own scope, and does.
    apply = "logic/heartbeat.py:HeartbeatService.apply_events"
    assert protected[apply] is False
    assert exposed[apply] == set()
    # Service entry points have no resolvable callers: they must carry
    # their own scopes, and the fixpoint must not assume otherwise.
    accept = "logic/lifecycle.py:LifecycleService.accept_match"
    assert protected[accept] is False
    assert exposed[accept] == set()


_UNSCOPED_PASS = (
    "        with db.transaction():\n"
    "            cursor = db.execute(\n"
    "                MATCH_INSERT_SQL, {\"now\": now, \"limit\": free_slots}\n"
    "            )\n"
    "            created = cursor.rowcount\n"
    "            if created:\n"
    "                db.execute(MATCH_UPDATE_SQL)\n",
    "        cursor = db.execute(\n"
    "            MATCH_INSERT_SQL, {\"now\": now, \"limit\": free_slots}\n"
    "        )\n"
    "        created = cursor.rowcount\n"
    "        if created:\n"
    "            db.execute(MATCH_UPDATE_SQL)\n",
)


def test_seeded_unscoped_scheduling_pass_is_caught(tmp_path):
    """The pass's INSERT is a module constant built by concatenation:
    the tier reads it from the corpus, so the pass writes two tables."""
    root = _copy_logic(tmp_path)
    old, new = _UNSCOPED_PASS
    _mutate(root, old, new, filename="logic/scheduling.py")
    line = _line_of(root, "cursor = db.execute(", "logic/scheduling.py")
    _corpus, findings = analyze(root)
    assert [(f.line, f.message) for f in findings
            if f.rule == "txn-unprotected-write"
            and f.file == "logic/scheduling.py"] == [
        (line, "SchedulingService.run_pass: writes to jobs, matches can "
               "execute outside any transaction scope")]


#: A two-table write protected only by its one real caller's scope, and
#: a bare ``set(...)`` / ``rows.get(...)`` that must not alias it.
_RESOLUTION_FIXTURE = '''\
class ConfigService:
    def __init__(self, db):
        self.db = db

    def get(self, name):
        return self.db.scalar(
            "SELECT policy_value FROM config_policies "
            "WHERE policy_name = ?", (name,))

    def set(self, name, value, now):
        self.db.execute(
            "UPDATE config_policies SET policy_value = ? "
            "WHERE policy_name = ?", (value, name))
        self.db.execute(
            "INSERT INTO config_history (policy_name, new_value, "
            "changed_at) VALUES (?, ?, ?)", (name, value, now))

    def change(self, name, value, now):
        with self.db.transaction():
            self.set(name, value, now)


def tally(rows):
    return set(rows), rows.get("x")
'''


def test_call_resolution_skips_builtins_and_guarded_methods(tmp_path):
    (tmp_path / "services.py").write_text(_RESOLUTION_FIXTURE)
    index = build_function_index(tmp_path)
    assert index.functions["services.py:tally"].calls == []
    assert protection(index)["services.py:ConfigService.set"] is True
    _corpus, findings = analyze(tmp_path)
    assert [f.render() for f in findings if f.rule.startswith("txn-")] == []


#: A two-table write whose one caller reaches it through a collaborator,
#: by a method named like a builtin: ``self.config.set(...)`` is no
#: call to ``set``.
_BUILTIN_NAMED_METHOD_FIXTURE = '''\
class ConfigService:
    def __init__(self, db):
        self.db = db

    def set(self, name, value, now):
        self.db.execute(
            "UPDATE config_policies SET policy_value = ? "
            "WHERE policy_name = ?", (value, name))
        self.db.execute(
            "INSERT INTO config_history (policy_name, new_value, "
            "changed_at) VALUES (?, ?, ?)", (name, value, now))


class Registry:
    def __init__(self, db, config):
        self.db = db
        self.config = config

    def set_policy(self, name, value, now):
        with self.db.transaction():
            self.config.set(name, value, now)
'''


def test_builtin_named_method_on_a_collaborator_resolves(tmp_path):
    (tmp_path / "services.py").write_text(_BUILTIN_NAMED_METHOD_FIXTURE)
    index = build_function_index(tmp_path)
    assert [call.name for call in
            index.functions["services.py:Registry.set_policy"].calls] \
        == ["transaction", "set"]
    assert protection(index)["services.py:ConfigService.set"] is True
    _corpus, findings = analyze(tmp_path)
    assert [f.render() for f in findings if f.rule.startswith("txn-")] == []


#: A method named like a service's, called on each match a regex hands
#: out, beside a loop over collaborators the object holds.
_LOOP_ITEM_FIXTURE = '''\
import re

_WORD = re.compile(r"[a-z]+")


class Server:
    def __init__(self, db):
        self.db = db

    def start(self, now):
        self.db.execute(
            "UPDATE config_policies SET updated_at = ?", (now,))


class Pool:
    def __init__(self, servers):
        self.servers = servers

    def boot(self, now):
        for server in self.servers:
            server.start(now)


def offsets(text):
    return [token.start() for token in _WORD.finditer(text)]
'''


def test_items_of_a_call_result_resolve_no_method(tmp_path):
    """``token.start()`` on an ``re.Match`` is not ``Server.start``; the
    servers a pool holds are collaborators, so ``Pool.boot`` still
    dispatches once per server."""
    (tmp_path / "services.py").write_text(_LOOP_ITEM_FIXTURE)
    index = build_function_index(tmp_path)
    assert [call.name for call in
            index.functions["services.py:offsets"].calls] == ["finditer"]
    assert [call.name for call in
            index.functions["services.py:Pool.boot"].calls] == ["start"]
    _corpus, findings = analyze(tmp_path)
    assert [(f.rule, f.line) for f in findings
            if f.rule == "per-row-dispatch"] == [("per-row-dispatch", 21)]


_SELF_ATTRIBUTE_FIXTURE = '''\
class Requeue:
    def __init__(self, db):
        self.db = db

    def requeue(self, job_id):
        self.db.execute("DELETE FROM runs WHERE job_id = ?", (job_id,))
        self.db.execute(
            "UPDATE jobs SET state = 'idle' "
            "WHERE job_id = ? AND state IN ('matched', 'running')",
            (job_id,))


class Driver:
    def __init__(self, db, requeue):
        self.db = db
        self.requeue = requeue

    def scoped(self, job_id):
        requeue = self.requeue
        with self.db.transaction():
            requeue.requeue(job_id)

    def unscoped(self, job_id):
        self.requeue.requeue(job_id)
'''


def test_self_attribute_call_outside_a_scope_strips_protection(tmp_path):
    (tmp_path / "services.py").write_text(_SELF_ATTRIBUTE_FIXTURE)
    index = build_function_index(tmp_path)
    assert protection(index)["services.py:Requeue.requeue"] is False
    assert ("txn-unprotected-write", "services.py", 6) in {
        (f.rule, f.file, f.line) for f in analyze(tmp_path)[1]}


# ----------------------------------------------------------------------
# runtime cross-check: observed transitions ⊆ declared graphs
# ----------------------------------------------------------------------

def _drive_workload(db):
    """Every lifecycle table through its paces, services only."""
    container = BeanContainer(db)
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)

    now = 1000.0
    heartbeat.register_machine({"name": "m00", "vm_count": 2}, now)
    heartbeat.register_machine({"name": "m01", "vm_count": 1}, now)
    submission.submit_jobs(
        [JobSpec(owner="alice", run_seconds=5.0) for _ in range(3)], now)
    scheduling.run_pass(now)
    pending = scheduling.pending_matches_for_machine("m00")
    pending += scheduling.pending_matches_for_machine("m01")
    assert pending, "workload produced no matches"
    for row in pending:
        lifecycle.accept_match(row["job_id"], row["vm_id"], now + 1)

    done = pending[0]
    machine = done["vm_id"].split("@", 1)[1]
    heartbeat.process(
        {"machine": machine, "vms": [],
         "events": [{"kind": "started", "job_id": done["job_id"],
                     "vm_id": done["vm_id"]}]}, now + 5)
    heartbeat.process(
        {"machine": machine, "vms": [],
         "events": [{"kind": "completed", "job_id": done["job_id"],
                     "vm_id": done["vm_id"]}]}, now + 10)
    if len(pending) > 1:
        lifecycle.report_drop(pending[1]["job_id"], pending[1]["vm_id"],
                              now + 11, reason="test-drop")
    heartbeat.process({"machine": "m01", "vms": [], "events": []}, now + 600)
    return {table: dict(edges)
            for table, edges in db.counts.transitions.items()}


def _backend_db(backend, tmp_path):
    if backend == "wal":
        return Database(f"wal://{tmp_path / 'pool-wal'}")
    if backend == "sqlite":
        return Database()
    return Database(backend="memory")


@pytest.mark.parametrize("backend", ["sqlite", "memory", "wal"])
def test_observed_transitions_subset_of_declared(backend, tmp_path):
    db = _backend_db(backend, tmp_path)
    try:
        observed = _drive_workload(db)
    finally:
        db.close()
    assert observed, "workload recorded no transitions"
    walked = {}
    for table, edges in observed.items():
        lifecycle = LIFECYCLES[table]
        for edge, rows in edges.items():
            source, target = edge.split("->", 1)
            assert rows > 0, (table, edge)
            assert lifecycle.allows(source, target), (
                f"{table}: observed {edge} not in the declared lifecycle")
            if source != target:
                walked.setdefault(table, set()).add((source, target))
    # The workload is rich enough to be a meaningful cross-check.
    assert len(walked["jobs"]) >= 4
    assert len(walked["vms"]) >= 3
    # Machines are born alive, a beat only refreshes last_heartbeat, and
    # only an operator moves one.
    assert set(observed["machines"]) == {"(new)->alive"}


@pytest.mark.parametrize("backend", ["sqlite", "memory", "wal"])
def test_rejected_write_records_no_edge_and_runs_nothing_else(
        backend, tmp_path, monkeypatch):
    """A lifecycle write the engine rejects is the only thing the engine
    runs for it (there is no from-state read to fail beside it) and
    leaves the ledger alone — identically everywhere."""
    db = _backend_db(backend, tmp_path)
    engine_class = type(db.engine)
    raw_calls = []
    original = engine_class._execute_raw

    def counted(engine, sql, params, plan=None):
        raw_calls.append(sql)
        return original(engine, sql, params, plan)
    monkeypatch.setattr(engine_class, "_execute_raw", counted)
    rejected = "UPDATE jobs SET state = ? WHERE no_such_column = ?"
    try:
        with pytest.raises(db.engine.ENGINE_ERRORS):
            db.execute(rejected, ("held", 1))
        assert raw_calls == [rejected]
        assert db.counts.statements == 1
        assert db.counts.transitions == {}
        db.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1))
        assert len(raw_calls) == db.counts.statements == 2
        assert db.counts.transitions == {}  # no row matched: still no edge
    finally:
        db.close()


def test_unparseable_text_has_no_transition_spec():
    """Outside the dialect is "not a lifecycle write", not an error."""
    assert transition_spec("UPDATE jobs SET state = 'held' WHERE ???") is None
    assert transition_spec("UPDATE jobs SET state = 'held'").to_state == "held"


def test_transition_ledger_is_backend_invariant(tmp_path):
    """The differential contract extends to the transitions ledger."""
    ledgers = {}
    for backend in ("sqlite", "memory", "wal"):
        db = _backend_db(backend, tmp_path)
        try:
            ledgers[backend] = _drive_workload(db)
        finally:
            db.close()
    assert ledgers["sqlite"] == ledgers["memory"] == ledgers["wal"]
