"""Adversarial shapes for the SQL corpus extractor.

The extractor must recover statements from every construction idiom the
codebase uses — triple-quoted constants, implicit and explicit
concatenation, allow-listed f-string slots, module-level constants —
while *not* inventing SQL out of log messages, diagnostics wrappers, or
arguments it cannot resolve (a text grown by ``sql += ...`` is one).
"""

import textwrap

from repro.condorj2.analysis.extract import extract_corpus
from repro.condorj2.schema import TABLES
from repro.condorj2.storage import sqlparser


def _extract(tmp_path, source, name="mod.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    return extract_corpus(tmp_path)


def test_triple_quoted_statement(tmp_path):
    corpus = _extract(tmp_path, '''
        def q(db, owner):
            return db.query_all(
                """
                SELECT job_id, state
                FROM jobs
                WHERE owner = ?
                ORDER BY job_id
                """,
                (owner,),
            )
        ''')
    assert len(corpus.statements) == 1
    statement = corpus.statements[0]
    assert statement.constant
    sqlparser.parse(statement.renders[0])


def test_verb_followed_by_newline_is_still_sql(tmp_path):
    corpus = _extract(tmp_path, '''
        def q(db):
            return db.query_one(
                """
                SELECT
                  COUNT(*) AS n
                FROM jobs
                """
            )
        ''')
    assert len(corpus.statements) == 1


def test_implicit_and_explicit_concatenation_fold(tmp_path):
    corpus = _extract(tmp_path, '''
        PREFIX = "SELECT job_id FROM jobs "

        def q(db, owner):
            implicit = db.query_all(
                "SELECT job_id FROM jobs "
                "WHERE owner = ? ORDER BY job_id",
                (owner,),
            )
            explicit = db.query_all(PREFIX + "WHERE state = ?", (owner,))
            return implicit, explicit
        ''')
    texts = sorted(s.renders[0] for s in corpus.statements)
    assert texts == [
        "SELECT job_id FROM jobs WHERE owner = ? ORDER BY job_id",
        "SELECT job_id FROM jobs WHERE state = ?",
    ]
    assert all(s.constant for s in corpus.statements)


def test_module_level_constant_is_resolved(tmp_path):
    corpus = _extract(tmp_path, '''
        _INSERT = (
            "INSERT INTO job_dependencies (job_id, depends_on_job_id) "
            "VALUES (?, ?)"
        )

        def load(db, edges):
            rows = [(parent, child) for parent, child in edges]
            db.executemany(_INSERT, rows)
        ''')
    assert len(corpus.statements) == 1
    statement = corpus.statements[0]
    assert statement.method == "executemany"


def test_only_the_table_slot_renders(tmp_path):
    """``table`` is the one allow-listed slot, rendered once per schema
    table; an entity's TABLE/PK constants are value slots like any
    other, so the text is neither rendered nor checked."""
    corpus = _extract(tmp_path, '''
        class Store:
            def table_count(self, table):
                return self.scalar(f"SELECT COUNT(*) FROM {table}")

            def find(self, entity, pk):
                return self.query_one(
                    f"SELECT * FROM {entity.TABLE} WHERE {entity.PK} = ?",
                    (pk,),
                )
        ''')
    count, find = corpus.statements
    assert not count.constant
    assert count.renders == [f"SELECT COUNT(*) FROM {table}"
                             for table in TABLES]
    assert find.renders == []
    assert sorted(f.rule for f in corpus.findings) == [
        "dynamic-sql", "fstring-value-interpolation",
        "fstring-value-interpolation", "templated-sql"]


def test_text_grown_by_augmented_assignment_is_not_resolved(tmp_path):
    """A name grown by ``sql += ...`` has no single text to extract: the
    call is skipped, like any other name assigned more than once, and
    the runtime coverage test is what would see its statements."""
    corpus = _extract(tmp_path, '''
        def find_where(db, params, newest_first=False):
            sql = "SELECT * FROM jobs WHERE state = ?"
            if newest_first:
                sql += " ORDER BY job_id DESC"
            return db.query_all(sql, params)
        ''')
    assert corpus.statements == []
    assert corpus.findings == []


def test_value_interpolation_is_flagged_not_rendered(tmp_path):
    corpus = _extract(tmp_path, '''
        def bad(db, depends_on):
            return db.scalar(
                f"SELECT COUNT(*) FROM jobs WHERE job_id IN ({depends_on})"
            )
        ''')
    assert len(corpus.statements) == 1
    assert corpus.statements[0].renders == []
    rules = sorted(f.rule for f in corpus.findings)
    assert rules == ["dynamic-sql", "fstring-value-interpolation"]
    injection = [f for f in corpus.findings
                 if f.rule == "fstring-value-interpolation"]
    assert "'depends_on'" in injection[0].message


def test_log_messages_and_diagnostics_are_not_sql(tmp_path):
    corpus = _extract(tmp_path, '''
        def work(log, db, sql, job_id):
            log.info(f"scheduling pass for job {job_id} finished")
            log.info("BEGIN IMMEDIATE")
            db.execute("PRAGMA journal_mode=WAL")
            explained = db.query_all(f"EXPLAIN QUERY PLAN {sql}")
            return explained
        ''')
    # No statements: the PRAGMA is not dialect SQL, the EXPLAIN wrapper
    # has no SQL-verb constant prefix, log calls are not execute calls.
    assert corpus.statements == []
    assert corpus.findings == []


def test_unresolvable_first_argument_is_skipped(tmp_path):
    corpus = _extract(tmp_path, '''
        class Database:
            def query_all(self, sql, params=()):
                return self._conn.execute(sql, params).fetchall()
        ''')
    # The facade forwards a variable; the text is extracted at the real
    # call sites, not here, so this must not be reported or extracted.
    assert corpus.statements == []
    assert corpus.findings == []


def test_named_dict_parameters_are_captured(tmp_path):
    corpus = _extract(tmp_path, '''
        SQL = "UPDATE jobs SET state = :state WHERE job_id = :job_id"

        def mark(db, job_id):
            db.execute(SQL, {"state": "held", "job_id": job_id})
        ''')
    statement = corpus.statements[0]
    assert sorted(statement.named) == ["job_id", "state"]
