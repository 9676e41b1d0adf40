"""Tier-1 tests for the schema-aware SQL static analyzer.

Five properties are enforced here:

* **the gate** — the committed tree has zero findings the committed
  baseline does not absorb (and zero errors outright), which is the
  same judgement the CI ``analysis`` job makes;
* **sensitivity** — seeded mutations (a bogus column, a dropped
  placeholder) are caught as errors with exact file:line provenance;
* **coverage** — replaying a full service workload on the memory
  engine and comparing its :class:`StatementCounts` text ledger with
  the extracted corpus shows the analyzer accounts for (and parses) at
  least 95% of the SQL the system actually executes;
* **rules** — each checker rule and the planner-backed index advisor
  fire on targeted statements and stay silent on correct ones;
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
import json
import textwrap
from pathlib import Path

from repro.cluster import JobSpec
from repro.condorj2.analysis import RULES, Baseline, Catalog, analyze
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
from repro.condorj2.beans import BeanContainer
from repro.condorj2.database import Database
from repro.condorj2.datamgmt import DatasetService
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.logic.queries import ReportService
from repro.condorj2.provenance import ProvenanceService
from repro.condorj2.storage import planner
from repro.condorj2.storage import sqlparser

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
PACKAGE_ROOT = SRC_ROOT / "condorj2"
BASELINE_PATH = REPO_ROOT / "ANALYSIS_BASELINE.json"


def _rules(findings):
    return sorted(f.rule for f in findings)


def _check_sql(sql, arity=None, named=None, no_params=False,
               catalog=None):
    statement = ExtractedStatement(
        file="t.py", line=1, method="execute",
        template=SqlTemplate(parts=(sql,)), renders=[sql],
        arity=arity, named=named, no_params=no_params,
    )
    return check_extracted(statement, catalog or Catalog())


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

_MUTANT = '''\
class Repo:
    def fetch(self, db, state):
        return db.query_all(
            "SELECT job_id, bogus_column FROM jobs WHERE state = ?",
            (state,),
        )

    def touch(self, db, a, b):
        db.execute(
            "UPDATE jobs SET state = ? WHERE job_id = ? AND owner = ?",
            (a, b),
        )
'''


def test_seeded_mutations_are_caught_with_provenance(tmp_path):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    _corpus, findings = analyze(tmp_path)
    errors = {(f.rule, f.file, f.line) for f in findings
              if f.severity == "error"}
    assert ("unknown-column", "fixture.py", 3) in errors
    assert ("placeholder-arity", "fixture.py", 9) in errors
    column = [f for f in findings if f.rule == "unknown-column"]
    assert "bogus_column" in column[0].message
    arity = [f for f in findings if f.rule == "placeholder-arity"]
    assert "3 placeholders" in arity[0].message
    assert "2 parameters" in arity[0].message


def test_mutations_fail_the_cli_gate(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(_MUTANT)
    assert main(["--root", str(tmp_path)]) == 1
    assert main(["--root", str(tmp_path), "--fail-on", "none"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# coverage: the corpus accounts for the SQL the system really runs
# ----------------------------------------------------------------------

def _run_service_workload():
    """A deterministic pass through every service, memory backend.

    Deliberately issues *no* raw SQL of its own: every statement that
    reaches the engine comes from the ``src`` tree, so the counts-texts
    ledger is exactly the runtime corpus the extractor must cover.
    """
    db = Database(backend="memory")
    container = BeanContainer(db)
    submission = SubmissionService(container)
    scheduling = SchedulingService(container)
    lifecycle = LifecycleService(container)
    heartbeat = HeartbeatService(container, scheduling, lifecycle)
    config = ConfigService(container)
    reports = ReportService(db)
    datasets = DatasetService(container)
    provenance = ProvenanceService(container)

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

    # Complete one run, drop another, through the heartbeat protocol.
    if pending:
        done = pending[0]
        heartbeat.process(
            {"machine": done["vm_id"].split("@", 1)[1], "vms": [],
             "events": [{"kind": "completed", "job_id": done["job_id"],
                         "vm_id": done["vm_id"]}]},
            now + 12,
        )
    if len(pending) > 1:
        dropped = pending[1]
        lifecycle.report_drop(dropped["job_id"], dropped["vm_id"],
                              now + 13, reason="test-drop")

    heartbeat.process({"machine": "m01", "vms": [], "events": []}, now + 14)
    heartbeat.mark_missing_machines(now + 500, timeout_seconds=60.0)
    submission.remove_job(third.job_id)

    config.install_defaults(now, {"scheduling_interval_seconds": "1.0"})
    config.set("scheduling_interval_seconds", "4.0", now + 20,
               changed_by="test")
    config.get("scheduling_interval_seconds")
    config.history("scheduling_interval_seconds")
    config.value_at("scheduling_interval_seconds", now + 21)

    dataset = datasets.register_dataset("genome", "alice", 100.0, now + 30)
    datasets.dataset_id("genome")
    datasets.add_replica(dataset, "m00", now + 31)
    datasets.replica_machines(dataset)
    datasets.invalidate_replica(dataset, "m00")
    datasets.under_replicated()
    datasets.repair_plan(["m00", "m01"])
    datasets.machines_with_inputs(["genome"])

    provenance.record("out.dat", first.job_id, "/bin/science", now + 40,
                      inputs=("genome",))
    provenance.derivation_of("out.dat")
    provenance.lineage("out.dat")
    provenance.outputs_derived_from("genome")
    provenance.executables_used([first.job_id, second.job_id])

    reports.queue_summary()
    reports.pool_status()
    reports.user_summary("alice")
    reports.job_detail(second.job_id)
    reports.throughput_by_minute()
    reports.machine_boot_records("m00")
    reports.accounting_by_user()

    texts = dict(db.counts.texts)
    db.close()
    return texts


def test_corpus_covers_runtime_statements():
    texts = _run_service_workload()
    assert len(texts) >= 30, "workload too thin to be meaningful"
    corpus = extract_corpus(PACKAGE_ROOT)

    covered = []
    uncovered = []
    for sql in texts:
        statement = corpus.covers(sql)
        if statement is None:
            uncovered.append(sql)
            continue
        sqlparser.parse(sql)  # must also be parseable, not just matched
        covered.append(sql)
    ratio = len(covered) / len(texts)
    assert ratio >= 0.95, (
        f"only {ratio:.0%} of {len(texts)} runtime statements covered; "
        f"missing: {uncovered[:5]}"
    )


# ----------------------------------------------------------------------
# checker rules
# ----------------------------------------------------------------------

def test_clean_statement_has_no_findings():
    findings = _check_sql(
        "SELECT job_id, owner FROM jobs WHERE state = 'idle'", arity=0,
        no_params=True)
    assert findings == []


def test_unknown_table_and_column():
    assert "unknown-table" in _rules(_check_sql(
        "SELECT x FROM no_such_table"))
    assert "unknown-column" in _rules(_check_sql(
        "SELECT no_such_column FROM jobs"))
    assert "unknown-column" in _rules(_check_sql(
        "SELECT j.no_such_column FROM jobs j"))


def test_parse_error_is_reported_not_raised():
    findings = _check_sql("SELECT FROM WHERE")
    assert _rules(findings) == ["sql-parse-error"]


def test_ambiguous_column_is_a_warning():
    findings = _check_sql(
        "SELECT state FROM jobs j JOIN vms v ON v.vm_id = j.job_id")
    matching = [f for f in findings if f.rule == "ambiguous-column"]
    assert matching and matching[0].severity == "warning"


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


def test_json_each_provides_value_column():
    findings = _check_sql(
        "SELECT job_id FROM jobs "
        "WHERE job_id IN (SELECT value FROM json_each(?))", arity=1)
    assert findings == []


def test_insert_not_null_coverage():
    findings = _check_sql(
        "INSERT INTO vms (vm_id, machine_name) VALUES (?, ?)", arity=2)
    matching = [f for f in findings if f.rule == "not-null-write"]
    # last_update is NOT NULL with a default; state has a default too.
    assert matching == []
    findings = _check_sql(
        "INSERT INTO provenance (output_name, job_id) VALUES (?, ?)",
        arity=2)
    omitted = [f for f in findings if f.rule == "not-null-write"]
    assert any("executable" in f.message for f in omitted)
    assert any("recorded_at" in f.message for f in omitted)


def test_explicit_null_into_not_null_column():
    findings = _check_sql(
        "UPDATE jobs SET owner = NULL WHERE job_id = ?", arity=1)
    assert "not-null-write" in _rules(findings)


def test_insert_arity_mismatch():
    findings = _check_sql(
        "INSERT INTO matches (job_id, vm_id, created_at) VALUES (?, ?)",
        arity=2)
    assert "insert-arity" in _rules(findings)


def test_check_domain_in_comparison_and_write():
    findings = _check_sql("SELECT * FROM jobs WHERE state = 'idel'")
    assert "check-domain" in _rules(findings)
    findings = _check_sql(
        "UPDATE jobs SET state = 'sleeping' WHERE job_id = ?", arity=1)
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


def test_placeholder_arity_against_call_site():
    findings = _check_sql(
        "SELECT * FROM jobs WHERE job_id = ? AND owner = ?", arity=1)
    assert "placeholder-arity" in _rules(findings)
    assert _check_sql(
        "SELECT * FROM jobs WHERE job_id = ? AND owner = ?", arity=2) == []


def test_named_parameter_surface():
    sql = ("SELECT * FROM jobs WHERE owner = :owner "
           "AND state = :state")
    assert "param-names" in _rules(_check_sql(sql, named=("owner",)))
    assert "param-extra" in _rules(
        _check_sql(sql, named=("owner", "state", "bogus")))
    assert _check_sql(sql, named=("owner", "state")) == []
    assert "param-style" in _rules(_check_sql(sql, arity=2))
    assert "param-style" in _rules(_check_sql(
        "SELECT * FROM jobs WHERE job_id = ?", named=("job_id",)))


# ----------------------------------------------------------------------
# index advisor
# ----------------------------------------------------------------------

def test_advisor_stays_quiet_on_indexed_access():
    assert _check_sql("SELECT * FROM jobs WHERE owner = ?", arity=1) == []
    assert _check_sql("SELECT * FROM jobs WHERE job_id = ?", arity=1) == []
    assert _check_sql(
        "SELECT * FROM runs WHERE job_id = ?", arity=1) == []  # unique


def test_advisor_flags_unindexed_equality():
    findings = _check_sql("SELECT * FROM jobs WHERE cmd = ?", arity=1)
    matching = [f for f in findings if f.rule == "full-scan"]
    assert matching and matching[0].severity == "advice"
    assert "jobs(cmd)" in matching[0].message


def test_advisor_collects_on_clause_conjuncts():
    findings = _check_sql(
        "SELECT j.job_id FROM jobs j "
        "JOIN accounting a ON a.job_id = j.job_id "
        "WHERE j.state = 'idle'", arity=0, no_params=True)
    # accounting is probed by job_id (from the ON clause) but only has
    # an owner index; jobs itself is supported and not reported.
    matching = [f for f in findings if f.rule == "full-scan"]
    assert len(matching) == 1
    assert "accounting(job_id)" in matching[0].message


def test_advisor_unconstrained_scan_is_not_flagged():
    assert _check_sql(
        "SELECT state, COUNT(*) FROM jobs GROUP BY state ORDER BY state",
        arity=0, no_params=True) == []


def test_planner_advises_equality_access_paths():
    advice = planner.advise_equality_access(
        "t", ["b", "a"], primary_key=("a",))
    assert advice.supported == "primary key" and not advice.full_scan
    advice = planner.advise_equality_access(
        "t", ["b"], primary_key=("a",), unique=(("b", "c"),))
    assert advice.supported == "unique(b, c)"
    advice = planner.advise_equality_access(
        "t", ["c"], primary_key=("a",), indexes={"idx_c": ("c",)})
    assert advice.supported == "idx_c"
    advice = planner.advise_equality_access(
        "t", ["d", "d", "e"], primary_key=("a",))
    assert advice.full_scan
    assert advice.suggested_columns == ("d", "e")  # deduped, in order
    advice = planner.advise_equality_access("t", [])
    assert not advice.full_scan and advice.supported is None


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
