"""Tier-1 tests for the schema-aware SQL static analyzer.

Six properties are enforced here:

* **the gate** — the committed tree has zero findings the committed
  baseline does not absorb (and zero errors outright), which is the
  same judgement the CI ``analysis`` job makes;
* **sensitivity** — seeded mutations that every engine runs silently (a
  misspelt state literal, a TEXT column compared with a number) are
  caught as errors with exact file:line provenance;
* **coverage, both ways** — a full service workload on SQLite and on
  the memory engine runs exactly the extracted corpus: every statement
  it runs was extracted, and every extracted statement (one render of
  each template) runs, so the engines reject whatever does not parse,
  names what does not exist, or binds the wrong parameters; and the
  schema declares nothing the corpus leaves untouched (every index is
  searched, or scanned for its order, in some statement's SQLite plan;
  every table is some statement's own);
* **plans** — SQLite's plans of the corpus scan only the pinned few
  tables without searching an index, and each of the two plan gates
  fails its seeded mutant;
* **rules** — each checker rule fires on targeted statements and stays
  silent on correct ones;
* **no SQL built from values** — the ``fstring-value-interpolation``
  rule over the whole source tree, wider than the analyzer's default
  package root.  The pre-refactor scheduler gated dependencies with
  ``f"SELECT COUNT(*) ... IN ({depends_on})"``; the normalized
  ``job_dependencies`` table removed it and this keeps it from coming
  back.  The allow-list (``SLOT_CATEGORIES`` — the bean container's
  schema-constant identifiers and placeholder lists — plus per-file
  exemptions for the parser's diagnostics) is pinned here.
"""

import ast
import dataclasses
import json
import re
import textwrap
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from repro.cluster import JobSpec
from repro.condorj2.analysis import RULES, Baseline, analyze
from repro.condorj2.analysis.check import check_extracted
from repro.condorj2.analysis.cli import main
from repro.condorj2.analysis.extract import (
    ALLOWED_BY_FILE_SUFFIX,
    SLOT_CATEGORIES,
    SQL_MARKERS,
    ExtractedStatement,
    SqlTemplate,
    extract_corpus,
)
from repro.condorj2.beans import BeanContainer, BeanNotFound, BeanStateError
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.logic.queries import ReportService
from repro.condorj2.schema import TABLE_BY_NAME, TABLE_DEFS, IndexDef, render_ddl
from repro.condorj2.storage import SqliteStorageEngine, sqlparser as sp
from repro.condorj2.storage.counters import statement_table

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
PACKAGE_ROOT = SRC_ROOT / "condorj2"
BASELINE_PATH = REPO_ROOT / "ANALYSIS_BASELINE.json"


def _rules(findings):
    return sorted(f.rule for f in findings)


def _check_sql(sql, named=None):
    statement = ExtractedStatement(
        file="t.py", line=1, method="execute",
        template=SqlTemplate(parts=(sql,)), renders=[sql], named=named,
    )
    return check_extracted(statement)


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------

def test_tree_has_no_errors_at_all():
    _corpus, findings = analyze(PACKAGE_ROOT)
    errors = [f for f in findings if f.severity == "error"]
    assert errors == [], [f.render() for f in errors]


def test_tree_is_clean_against_committed_baseline():
    """The exact CI judgement: zero non-baselined findings of any
    severity.  Fixing a finding must also shrink the baseline."""
    _corpus, findings = analyze(PACKAGE_ROOT)
    baseline = Baseline.load(BASELINE_PATH)
    fresh = baseline.filter(findings)
    assert fresh == [], [f.render() for f in fresh]


def test_committed_baseline_is_fresh():
    """The other direction (the ``API.md`` idiom): the committed file is
    exactly what ``--write-baseline`` would write today, so an entry a
    fix made obsolete cannot sit there and absorb its reintroduction."""
    _corpus, findings = analyze(PACKAGE_ROOT)
    assert Baseline.from_findings(findings).counts \
        == Baseline.load(BASELINE_PATH).counts, (
        "ANALYSIS_BASELINE.json is stale: regenerate with `PYTHONPATH=src "
        "python -m repro.condorj2.analysis --baseline "
        "ANALYSIS_BASELINE.json --write-baseline`")


def test_baseline_only_contains_advice():
    """Accepted debt is advisory-severity only — identifier templates
    and lifecycle-coverage advisories, never errors or warnings."""
    data = json.loads(BASELINE_PATH.read_text())
    assert data["findings"], "baseline unexpectedly empty"
    for entry in data["findings"]:
        rule = entry["fingerprint"].split("|", 1)[0]
        assert RULES[rule][0] == "advice", entry["fingerprint"]


# ----------------------------------------------------------------------
# sensitivity: seeded mutations are caught with exact provenance
# ----------------------------------------------------------------------

#: Two statements both engines run without complaint and that can never
#: match a row: a misspelt state, and a TEXT column against a number.
_MUTANT = '''\
class Repo:
    def fetch(self, db):
        return db.query_all(
            "SELECT job_id FROM jobs WHERE state = 'idel'",
        )

    def touch(self, db, job_id):
        db.execute(
            "UPDATE jobs SET cmd = 'x' WHERE job_id = ? AND owner = 42",
            (job_id,),
        )
'''


def test_seeded_mutations_are_caught_with_provenance(tmp_path):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    _corpus, findings = analyze(tmp_path)
    errors = {(f.rule, f.file, f.line) for f in findings
              if f.severity == "error"}
    assert errors == {("check-domain", "fixture.py", 3),
                      ("affinity-mismatch", "fixture.py", 8)}
    domain = [f for f in findings if f.rule == "check-domain"]
    assert "'idel'" in domain[0].message
    affinity = [f for f in findings if f.rule == "affinity-mismatch"]
    assert "'owner'" in affinity[0].message and "42" in affinity[0].message


def test_mutations_fail_the_cli_gate(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    assert main(["--root", str(tmp_path)]) == 1
    assert main(["--root", str(tmp_path), "--fail-on", "none"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# coverage: the corpus accounts for the SQL the system really runs
# ----------------------------------------------------------------------

def _run_service_workload(backend):
    """A deterministic pass through every service and every refusal path.

    Deliberately issues *no* raw SQL of its own: every statement that
    reaches the engine comes from the ``src`` tree, so the counts-texts
    ledger is exactly the runtime corpus the extractor must cover.
    """
    db = Database(backend=backend)
    container = BeanContainer(db)
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)
    config = ConfigService(container)
    reports = ReportService(db)

    now = 1000.0
    for name, vm_count in (("m00", 2), ("m01", 1)):
        heartbeat.register_machine(
            {"name": name, "vm_count": vm_count, "cores": 2,
             "memory_mb": 512}, now)

    first = JobSpec(owner="alice", run_seconds=10.0)
    second = JobSpec(owner="bob", run_seconds=10.0)
    third = JobSpec(owner="alice", run_seconds=10.0,
                    depends_on=(first.job_id,))
    submission.submit_jobs([first, second, third], now)

    scheduling.run_pass(now)
    pending = scheduling.pending_matches_for_machine("m00")
    pending += scheduling.pending_matches_for_machine("m01")
    for row in pending:
        lifecycle.accept_match(row["job_id"], row["vm_id"], now + 1)
    assert len(pending) == 2
    done, dropped = pending
    with pytest.raises(BeanStateError):  # a running job is not removable
        submission.remove_job(done["job_id"])

    # Start and complete one run, drop another, through the heartbeat
    # protocol; a beat reports slot states, a stranger's beat is refused.
    heartbeat.process(
        {"machine": done["vm_id"].split("@", 1)[1], "vms": [],
         "events": [{"kind": kind, "job_id": done["job_id"],
                     "vm_id": done["vm_id"]}
                    for kind in ("started", "completed")]},
        now + 12,
    )
    lifecycle.report_drop(dropped["job_id"], dropped["vm_id"],
                          now + 13, reason="test-drop")

    heartbeat.process({"machine": "m01", "events": [], "vms": [
        {"vm_id": "vm0@m01", "state": "idle"}]}, now + 14)
    with pytest.raises(BeanNotFound):
        heartbeat.process({"machine": "m99", "vms": [], "events": []},
                          now + 15)
    submission.remove_job(third.job_id)

    config.install_defaults(now, {"scheduling_interval_seconds": "1.0"})
    config.set("scheduling_interval_seconds", "4.0", now + 20,
               changed_by="test")
    config.set("fresh_knob", "1", now + 20, changed_by="test")
    config.get("scheduling_interval_seconds")

    reports.queue_summary()
    reports.pool_status()
    reports.user_summary("alice")
    reports.job_detail(second.job_id)
    reports.job_detail(done["job_id"])  # from history
    reports.accounting_by_user()

    texts = dict(db.counts.texts)
    db.close()
    return texts


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
def test_corpus_covers_runtime_statements(backend):
    """Both directions.  Every statement the workload runs is one the
    corpus extracted, and every extracted statement — one render of each
    template — runs, so the engines themselves reject any text that does
    not parse, names what does not exist, is ambiguous, or binds the
    wrong parameters (the analyzer leaves those errors to them)."""
    texts = _run_service_workload(backend)
    corpus = extract_corpus(PACKAGE_ROOT)
    uncovered = [sql for sql in texts if corpus.covers(sql) is None]
    assert uncovered == [], f"runtime statements not extracted: {uncovered}"
    unexecuted = [f"{statement.file}:{statement.line}"
                  for statement in corpus.statements
                  if not any(sql in texts for sql in statement.renders)]
    assert unexecuted == [], (
        f"extracted statements the workload never runs on {backend}: "
        f"{unexecuted}")


class _Step(NamedTuple):
    """One step of SQLite's plan of a render that reads a base table."""

    site: str  # file:line of the statement the render belongs to
    verb: str  # 'SCAN' or 'SEARCH'
    table: str
    index: Optional[str]
    covering: bool


#: ``SCAN``/``SEARCH``, the source, and the index with its ``COVERING``
#: mark.  SQLite before 3.36 spells the source ``TABLE jobs AS j``, later
#: ones ``j``: both are read, because CI's matrix runs more than one.
_PLAN_STEP = re.compile(r"(SCAN|SEARCH) (?:TABLE )?(\w+)(?: AS (\w+))?"
                        r"(?: USING (COVERING )?INDEX (\w+))?")


def _read_step(detail, aliases):
    """``(verb, table, index, covering)`` for a plan line that reads a
    base table, resolving an alias through ``aliases``; None otherwise
    (a constant row, a subquery, ``json_each``)."""
    match = _PLAN_STEP.match(detail)
    if match is None:
        return None
    verb, name, alias, covering, index = match.groups()
    table = name if alias else aliases.get(name, name)
    if table not in TABLE_BY_NAME:
        return None
    return verb, table, index, covering is not None


def _counts_every_table(statement):
    """``Database.table_count``'s per-table template: it names and scans
    every table by design, so it proves nothing about any of them."""
    return statement.file == "database.py" and not statement.constant


def _plan_steps(statements, table_defs=TABLE_DEFS):
    """Every base-table step of SQLite's plan of every render, on a
    database built from ``table_defs``, ``table_count``'s aside."""
    engine = SqliteStorageEngine()
    engine.run_script([ddl for tdef in table_defs for ddl in render_ddl(tdef)])
    steps = []
    try:
        for statement in statements:
            if _counts_every_table(statement):
                continue
            site = f"{statement.file}:{statement.line}"
            for sql in statement.renders:
                aliases = {
                    source.alias: source.name
                    for node in sp.walk(sp.parse_info(sql).ast)
                    if isinstance(node, sp.Select)
                    for source in node.sources if source.kind == "table"}
                nodes = list(engine.explain(sql).root.children)
                while nodes:
                    node = nodes.pop()
                    nodes.extend(node.children)
                    step = _read_step(node.detail, aliases)
                    if step is not None:
                        steps.append(_Step(site, *step))
    finally:
        engine.close()
    return steps


def _unread_indexes(table_defs, steps):
    """Declared indexes no plan searches or scans for its order.  A
    covering full scan earns nothing: SQLite counts a whole table through
    its narrowest index, so any index on a counted table would pass."""
    credited = {step.index for step in steps
                if step.index and (step.verb == "SEARCH" or not step.covering)}
    return [index.name for tdef in table_defs for index in tdef.indexes
            if index.name not in credited]


def _full_scans(steps):
    """Each base table some render scans, with the renders' sites."""
    scans = {}
    for step in steps:
        if step.verb == "SCAN":
            scans.setdefault(step.table, set()).add(step.site)
    return scans


#: Renders that read a whole table instead of searching it, per table:
#: ``queueSummary``'s total (jobs), ``poolStatus`` (machines, vms, and
#: its counts of matches and runs, both tables bounded by the slot
#: count), the accounting report's ordered scan, and the scheduling
#: pass, which probes once per registered user (ROADMAP item 12(a)).
FULL_SCANS = {"accounting": 1, "jobs": 1, "machines": 1, "matches": 1,
              "runs": 1, "users": 1, "vms": 1}


def test_schema_declares_only_what_statements_touch():
    """The other side of coverage: what ``TABLE_DEFS`` declares, some
    statement uses.  An index is paid on every write of its table, so
    each one must be searched, or scanned for its order, in SQLite's
    ``EXPLAIN QUERY PLAN`` of at least one extracted render.  Each table
    must be the principal table of a render — ``Database.table_count``'s
    per-table template names every table and so proves nothing."""
    statements = extract_corpus(PACKAGE_ROOT).statements
    principal = {statement_table(sql) for statement in statements
                 if not _counts_every_table(statement)
                 for sql in statement.renders}
    unread = _unread_indexes(TABLE_DEFS, _plan_steps(statements))
    untouched = [tdef.name for tdef in TABLE_DEFS
                 if tdef.name not in principal]
    assert {"unread indexes": unread, "untouched tables": untouched} == {
        "unread indexes": [], "untouched tables": []}


def test_full_scans_are_the_pinned_few():
    """A render that scans a base table reads all of it on every call,
    so each one is pinned here, and a new one fails naming its table."""
    scans = _full_scans(_plan_steps(extract_corpus(PACKAGE_ROOT).statements))
    assert {table: len(sites) for table, sites in scans.items()} \
        == FULL_SCANS, scans


#: An equality on a column no index leads with.
_SCAN_MUTANT = '''\
class Repo:
    def by_command(self, db, cmd):
        return db.query_all("SELECT job_id FROM jobs WHERE cmd = ?", (cmd,))
'''


def test_a_seeded_full_scan_fails_the_scan_gate(tmp_path):
    (tmp_path / "fixture.py").write_text(_SCAN_MUTANT)
    statements = (extract_corpus(PACKAGE_ROOT).statements
                  + extract_corpus(tmp_path).statements)
    scans = _full_scans(_plan_steps(statements))
    assert {table: len(sites) for table, sites in scans.items()} \
        == dict(FULL_SCANS, jobs=2)
    assert "fixture.py:3" in scans["jobs"]


def test_an_index_only_a_covering_scan_reaches_fails_the_credit_rule():
    """Given ``machines(state, last_heartbeat)``, SQLite answers
    ``poolStatus``'s count of machines by state with a covering full
    scan of it, so the index is in a plan, but no statement searches it
    or needs its order."""
    extra = IndexDef("idx_machines_state", ("state", "last_heartbeat"))
    mutant = tuple(
        dataclasses.replace(tdef, indexes=tdef.indexes + (extra,))
        if tdef.name == "machines" else tdef
        for tdef in TABLE_DEFS)
    steps = _plan_steps(extract_corpus(PACKAGE_ROOT).statements, mutant)
    assert [(step.verb, step.covering) for step in steps
            if step.index == extra.name] == [("SCAN", True)]
    assert _unread_indexes(mutant, steps) == [extra.name]


@pytest.mark.parametrize("newer, older, step", [
    ("SCAN u", "SCAN TABLE users AS u", ("SCAN", "users", None, False)),
    ("SCAN accounting USING INDEX idx_accounting_owner",
     "SCAN TABLE accounting USING INDEX idx_accounting_owner",
     ("SCAN", "accounting", "idx_accounting_owner", False)),
    ("SEARCH j USING COVERING INDEX idx_jobs_state_owner (state=?)",
     "SEARCH TABLE jobs AS j USING COVERING INDEX idx_jobs_state_owner "
     "(state=?)",
     ("SEARCH", "jobs", "idx_jobs_state_owner", True)),
    ("SEARCH jobs USING INTEGER PRIMARY KEY (rowid=?)",
     "SEARCH TABLE jobs USING INTEGER PRIMARY KEY (rowid=?)",
     ("SEARCH", "jobs", None, False)),
    ("SCAN CONSTANT ROW", "SCAN CONSTANT ROW", None),
    ("SCAN (subquery-9)", "SCAN SUBQUERY 9", None),
    ("SCAN json_each VIRTUAL TABLE INDEX 1:",
     "SCAN TABLE json_each VIRTUAL TABLE INDEX 1:", None),
])
def test_plan_steps_read_both_sqlite_spellings(newer, older, step):
    aliases = {"u": "users", "j": "jobs"}
    assert _read_step(newer, aliases) == _read_step(older, aliases) == step


# ----------------------------------------------------------------------
# checker rules
# ----------------------------------------------------------------------

def test_clean_statement_has_no_findings():
    findings = _check_sql(
        "SELECT job_id, owner FROM jobs WHERE state = 'idle'")
    assert findings == []


def test_alias_resolves_in_group_by_and_having():
    findings = _check_sql(
        "SELECT CAST(completed_at / 60 AS INTEGER) AS minute, COUNT(*) "
        "FROM job_history GROUP BY minute ORDER BY minute")
    assert findings == []


def test_correlated_subquery_sees_outer_scope():
    findings = _check_sql(
        "SELECT job_id FROM jobs j WHERE NOT EXISTS "
        "(SELECT 1 FROM matches mt WHERE mt.job_id = j.job_id)")
    assert findings == []
    # ``matches`` has no ``state``: the bare name binds to the outer jobs
    findings = _check_sql(
        "SELECT job_id FROM jobs j WHERE NOT EXISTS "
        "(SELECT 1 FROM matches mt WHERE mt.job_id = j.job_id "
        "AND state = 'idel')")
    assert _rules(findings) == ["check-domain"]


def test_json_each_provides_value_column():
    findings = _check_sql(
        "SELECT job_id FROM jobs "
        "WHERE job_id IN (SELECT value FROM json_each(?))")
    assert findings == []


def test_insert_not_null_coverage():
    findings = _check_sql(
        "INSERT INTO vms (vm_id, machine_name) VALUES (?, ?)")
    matching = [f for f in findings if f.rule == "not-null-write"]
    # last_update is NOT NULL with a default; state has a default too.
    assert matching == []
    findings = _check_sql(
        "INSERT INTO accounting (owner, job_id) VALUES (?, ?)")
    omitted = [f for f in findings if f.rule == "not-null-write"]
    assert any("wall_seconds" in f.message for f in omitted)
    assert any("recorded_at" in f.message for f in omitted)
    # Silent on every engine while the SELECT finds no row.
    findings = _check_sql(
        "INSERT INTO config_history (policy_name, new_value, changed_at) "
        "SELECT policy_name, policy_value, 0 FROM config_policies "
        "WHERE scope = 'none'")
    assert [f.message for f in findings if f.rule == "not-null-write"] == [
        "insert into 'config_history' omits NOT NULL column 'changed_by' "
        "(no default)"]


def test_explicit_null_into_not_null_column():
    findings = _check_sql(
        "UPDATE jobs SET owner = NULL WHERE job_id = ?")
    assert "not-null-write" in _rules(findings)


def test_check_domain_in_comparison_and_write():
    findings = _check_sql("SELECT * FROM jobs WHERE state = 'idel'")
    assert "check-domain" in _rules(findings)
    findings = _check_sql(
        "UPDATE jobs SET state = 'sleeping' WHERE job_id = ?")
    assert "check-domain" in _rules(findings)
    findings = _check_sql(
        "SELECT * FROM jobs WHERE state IN ('idle', 'matched')")
    assert "check-domain" not in _rules(findings)


def test_affinity_mismatch_is_an_error():
    findings = _check_sql("SELECT * FROM jobs WHERE owner = 42")
    matching = [f for f in findings if f.rule == "affinity-mismatch"]
    assert matching and matching[0].severity == "error"
    # Numeric strings reconcile with numeric affinity; no finding.
    assert _check_sql("SELECT * FROM jobs WHERE job_id = '5'") == []


def test_unused_named_parameter_is_a_warning():
    """SQLite ignores a mapping key no placeholder names, and so does
    the memory engine: only the analyzer sees it."""
    sql = ("SELECT * FROM jobs WHERE owner = :owner "
           "AND state = :state")
    findings = _check_sql(sql, named=("owner", "state", "bogus"))
    assert [(f.rule, f.severity) for f in findings] == [
        ("param-extra", "warning")]
    assert "'bogus'" in findings[0].message
    assert _check_sql(sql, named=("owner", "state")) == []


# ----------------------------------------------------------------------
# baseline semantics and CLI surface
# ----------------------------------------------------------------------

def test_baseline_absorbs_counted_occurrences(tmp_path):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    _corpus, findings = analyze(tmp_path)
    errors = [f for f in findings if f.severity == "error"]
    assert errors
    baseline = Baseline.from_findings(findings)
    assert baseline.filter(findings) == []
    # A second occurrence of an accepted fingerprint still surfaces.
    assert baseline.filter(findings + findings[:1]) == [findings[0]]


def test_baseline_fingerprints_ignore_line_drift(tmp_path):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    _corpus, findings = analyze(tmp_path)
    baseline = Baseline.from_findings(findings)
    (tmp_path / "fixture.py").write_text("# shifted\n\n\n" + _MUTANT)
    _corpus, shifted = analyze(tmp_path)
    assert {f.line for f in shifted} != {f.line for f in findings}
    assert baseline.filter(shifted) == []


def test_cli_json_report_shape(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    out = tmp_path / "report.json"
    code = main(["--root", str(tmp_path), "--format", "json",
                 "--output", str(out), "--fail-on", "none"])
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["statements"] == 2
    assert report["summary"]["error"] >= 2
    finding = report["findings"][0]
    assert set(finding) == {"rule", "severity", "file", "line",
                            "message", "statement"}


def test_cli_write_and_use_baseline(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    baseline = tmp_path / "baseline.json"
    assert main(["--root", str(tmp_path), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert main(["--root", str(tmp_path), "--baseline", str(baseline),
                 "--fail-on", "any"]) == 0
    # New debt on top of the baseline still fails.
    (tmp_path / "more.py").write_text(_MUTANT)
    assert main(["--root", str(tmp_path), "--baseline",
                 str(baseline)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# no SQL built by interpolating values into f-strings
# ----------------------------------------------------------------------

def _violations(root):
    corpus = extract_corpus(root)
    return [f for f in corpus.findings
            if f.rule == "fstring-value-interpolation"]


def test_no_value_interpolation_into_sql():
    violations = _violations(SRC_ROOT)
    assert violations == [], (
        "SQL must be parameterized (or the identifier expression "
        "reviewed and allow-listed in SLOT_CATEGORIES):\n"
        + "\n".join(v.render() for v in violations)
    )


def test_lint_catches_the_original_offender(tmp_path):
    """The exact pattern removed from scheduling.py:71 must be flagged."""
    (tmp_path / "offender.py").write_text(textwrap.dedent('''
        def gate(db, depends_on):
            return db.scalar(
                f"SELECT COUNT(*) FROM jobs WHERE job_id IN ({depends_on})"
            )
        '''))
    violations = _violations(tmp_path)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.severity == "error"
    assert violation.file == "offender.py"
    assert "'depends_on'" in violation.message
    assert "depends_on" not in SLOT_CATEGORIES


def test_allow_lists_match_the_bean_container_idiom():
    """The allow-list is exactly the reviewed identifier expressions."""
    assert set(SLOT_CATEGORIES) == {
        "bean_class.TABLE", "bean_class.PK",
        "columns", "column_list", "placeholders", "table",
    }
    assert ALLOWED_BY_FILE_SUFFIX == {
        "storage/sqlparser.py": {
            "self.sql", "self.peek().value", "token.value",
        },
        # the ledger's trigger DDL interpolates LifecycleDef identifiers
        # (a schema-bounded set)
        "schema.py": {"column"},
        # finding messages quote lifecycle table/column names
        "analysis/lifecycle.py": {"lifecycle.table", "lifecycle.column"},
    }


def test_scheduling_module_has_no_fstring_sql():
    """The scheduling pass is pure parameterized SQL, no f-strings at all."""
    path = SRC_ROOT / "condorj2" / "logic" / "scheduling.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.JoinedStr):
            continue
        literal = "".join(
            part.value for part in node.values
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        assert not any(marker in literal for marker in SQL_MARKERS), (
            f"scheduling.py:{node.lineno} builds SQL with an f-string"
        )
