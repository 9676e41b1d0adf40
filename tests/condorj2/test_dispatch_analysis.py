"""Tier-1 tests for the dispatch-complexity analysis tier.

Three properties are enforced here:

* **static soundness** — the real tree yields zero ``per-row-dispatch``
  and ``unbounded-loop-dispatch`` findings (the codebase actually is
  set-oriented);
* **sensitivity** — seeded mutations (a per-row execute loop, the same
  defect hidden behind a call edge, an unbounded while in a real
  handler, a handler that recurses into itself) are each reported as an
  error by exactly the intended rule with exact file:line provenance;
* **runtime cross-check** — the batched code paths the analyzer
  certified really do dispatch a flat number of statements as the data
  grows (drop batches, config changes, heartbeat events).
"""

import shutil
from pathlib import Path

from repro.condorj2.analysis.dispatch import check_dispatch
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    SchedulingService,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro" / "condorj2"


# ----------------------------------------------------------------------
# static tier: the real tree is provably set-oriented
# ----------------------------------------------------------------------

def test_real_tree_has_no_dispatch_errors_or_warnings():
    findings = check_dispatch(PACKAGE_ROOT)
    noisy = [f.render() for f in findings
             if f.severity in ("error", "warning")]
    assert noisy == []


# ----------------------------------------------------------------------
# sensitivity: seeded mutations into a private copy of the tree
# ----------------------------------------------------------------------

def _copy_tree(tmp_path, parts=("logic",)):
    root = tmp_path / "tree"
    for part in parts:
        shutil.copytree(PACKAGE_ROOT / part, root / part)
    return root


def _mutate(root, old, new, filename):
    target = root / filename
    text = target.read_text()
    assert old in text, f"mutation anchor not found: {old!r}"
    target.write_text(text.replace(old, new))


def _line_of(root, needle, filename):
    lines = (root / filename).read_text().splitlines()
    hits = [index for index, line in enumerate(lines, 1) if needle in line]
    assert len(hits) == 1, f"{needle!r} matched lines {hits}"
    return hits[0]


def _sites(root, severities=("error", "warning")):
    return {(f.rule, f.file, f.line) for f in check_dispatch(root)
            if f.severity in severities}


def _errors(root):
    return _sites(root, severities=("error",))


_PER_ROW_MODULE = '''\
"""Seeded defect: one statement dispatched per queued job."""


class PerRowService:
    def __init__(self, db):
        self.db = db

    def requeue_all(self, job_ids, now):
        for job_id in job_ids:
            self.db.execute(  # seeded-per-row
                "UPDATE jobs SET state = 'idle' WHERE job_id = ?",
                (job_id,),
            )
'''


def test_seeded_per_row_dispatch_is_caught(tmp_path):
    root = _copy_tree(tmp_path)
    (root / "logic" / "broken.py").write_text(_PER_ROW_MODULE)
    line = _line_of(root, "# seeded-per-row", "logic/broken.py")
    assert ("per-row-dispatch", "logic/broken.py", line) in _sites(root)


_CALL_EDGE_MODULE = '''\
"""Seeded defect: the per-row dispatch hides behind a call edge."""


class EdgeService:
    def __init__(self, db):
        self.db = db

    def _touch_one(self, job_id):
        self.db.execute(
            "UPDATE jobs SET state = 'idle' WHERE job_id = ?", (job_id,))

    def touch_all(self, job_ids):
        for job_id in job_ids:
            self._touch_one(job_id)  # seeded-edge-call
'''


def test_seeded_per_row_dispatch_through_call_edge_is_caught(tmp_path):
    root = _copy_tree(tmp_path)
    (root / "logic" / "broken.py").write_text(_CALL_EDGE_MODULE)
    line = _line_of(root, "# seeded-edge-call", "logic/broken.py")
    assert ("per-row-dispatch", "logic/broken.py", line) in _sites(root)


_WHILE_MODULE = '''\
"""Seeded defect: dispatch inside a while with no static bound."""


class DrainService:
    def __init__(self, db):
        self.db = db

    def drain(self, limit):
        count = 0
        while count < limit:
            self.db.execute(  # seeded-while-dispatch
                "DELETE FROM jobs WHERE job_id = "
                "(SELECT MIN(job_id) FROM jobs)")
            count += 1
'''


def test_seeded_unbounded_while_dispatch_is_an_error(tmp_path):
    root = _copy_tree(tmp_path)
    (root / "logic" / "broken.py").write_text(_WHILE_MODULE)
    line = _line_of(root, "# seeded-while-dispatch", "logic/broken.py")
    assert ("unbounded-loop-dispatch", "logic/broken.py", line) \
        in _errors(root)


_HANDLER_WHILE = (
    "            return []\n        db = self.db\n",
    "            return []\n        db = self.db\n"
    "        pending = list(specs)\n"
    "        while pending:\n"
    "            db.execute(  # seeded-handler-while\n"
    "                \"DELETE FROM jobs WHERE job_id = ?\",\n"
    "                (pending.pop().job_id,))\n",
)


def test_seeded_handler_while_dispatch_is_an_error(tmp_path):
    root = _copy_tree(tmp_path)
    old, new = _HANDLER_WHILE
    _mutate(root, old, new, "logic/submission.py")
    line = _line_of(root, "# seeded-handler-while", "logic/submission.py")
    assert _errors(root) == {
        ("unbounded-loop-dispatch", "logic/submission.py", line)}


_RECURSION = (
    "            return []\n        db = self.db\n",
    "            return []\n"
    "        if len(specs) > 1000:\n"
    "            self.submit_jobs(specs[1000:], now)  # seeded-recursion\n"
    "            specs = specs[:1000]\n"
    "        db = self.db\n",
)


def test_seeded_recursive_dispatch_is_an_error_at_the_call(tmp_path):
    root = _copy_tree(tmp_path)
    old, new = _RECURSION
    _mutate(root, old, new, "logic/submission.py")
    line = _line_of(root, "# seeded-recursion", "logic/submission.py")
    assert _errors(root) == {
        ("unbounded-loop-dispatch", "logic/submission.py", line)}


def test_unmutated_copy_of_the_service_layer_is_clean(tmp_path):
    root = _copy_tree(tmp_path, parts=("logic", "api", "web"))
    assert _sites(root) == set()


# ----------------------------------------------------------------------
# runtime cross-check: certified paths really dispatch flat counts
# ----------------------------------------------------------------------

def test_report_drops_is_four_statements_flat_in_batch_size():
    db = Database()
    lifecycle = LifecycleService(db)
    drops = [(index, f"m1.vm{index}", "flaky") for index in range(1, 26)]
    before = db.counts.snapshot()
    lifecycle.report_drops(drops, now=1.0)
    delta = db.counts.delta(before)
    assert delta.statements == 4
    assert delta.commits == 1


def test_config_change_statements_are_flat_in_history_length():
    """A change finds the policy, updates it and appends its audit row:
    three statements however long the policy's history already is."""
    def change(earlier):
        db = Database()
        config = ConfigService(db)
        config.install_defaults(0.0, {"x": "0"})
        for index in range(1, earlier + 1):
            config.set("x", str(index), now=float(10 * index))
        before = db.counts.snapshot()
        config.set("x", "last", now=1000.0)
        return db.counts.delta(before).statements

    assert change(1) == change(30) == 3


def test_heartbeat_drop_events_dispatch_flat_statement_counts():
    def beat(drop_count):
        db = Database()
        scheduling = SchedulingService(db)
        lifecycle = LifecycleService(db)
        heartbeat = HeartbeatService(db, scheduling, lifecycle)
        heartbeat.register_machine({"name": "m1", "vm_count": 2}, 0.0)
        events = [
            {"kind": "dropped", "job_id": index, "vm_id": "m1.vm1",
             "reason": "flaky"}
            for index in range(1, drop_count + 1)
        ]
        before = db.counts.snapshot()
        heartbeat.process({"machine": "m1", "vms": [], "events": events},
                          now=1.0)
        return db.counts.delta(before).statements

    assert beat(2) == beat(20)
