"""Property-based tests for the statement accounting algebra.

``StatementCounts`` is the contract both storage engines record through
and the quantity the differential fuzzer compares, so its algebra has to
be exact: ``merge`` is associative and commutative with the empty counts
as identity, ``snapshot``/``delta`` round-trip, and the verb/table
classifiers are stable under whitespace/case noise — including the
CTE-prefixed and INSERT..SELECT forms that defeat naive first-word
classification.
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.condorj2.storage import (
    StatementCounts,
    statement_table,
    statement_verb,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_VERBS = ("select", "insert", "update", "delete")
_TABLES = ("jobs", "vms", "matches", "users")

#: Every integer counter of StatementCounts, discovered from the
#: dataclass itself — a counter added to the class (the durability
#: ledger was the latest) is property-covered automatically, so the
#: merge/delta algebra cannot silently exclude new fields.
INT_FIELDS = tuple(
    f.name for f in dataclasses.fields(StatementCounts) if f.type == "int"
)

#: The dict-valued ledgers, discovered the same way, so a ledger added
#: to the class cannot be left out of the algebra either.
LEDGER_FIELDS = tuple(
    f.name for f in dataclasses.fields(StatementCounts)
    if f.name not in INT_FIELDS
)

_EDGES = ("(new)->idle", "idle->matched", "matched->running",
          "running->(gone)", "alive->missing")
_TEXTS = ("SELECT 1", "UPDATE jobs SET state = ?", "DELETE FROM matches")

_LEDGER_STRATEGIES = {
    "tables": st.dictionaries(
        st.sampled_from(_TABLES),
        st.dictionaries(st.sampled_from(_VERBS), st.integers(1, 100),
                        min_size=1),
        max_size=4,
    ),
    "texts": st.dictionaries(
        st.sampled_from(_TEXTS), st.integers(1, 100), max_size=3),
    "transitions": st.dictionaries(
        st.sampled_from(_TABLES),
        st.dictionaries(st.sampled_from(_EDGES), st.integers(1, 100),
                        min_size=1),
        max_size=3,
    ),
}

counts_strategy = st.builds(
    StatementCounts,
    **{name: _LEDGER_STRATEGIES[name] for name in LEDGER_FIELDS},
    **{name: st.integers(0, 1000) for name in INT_FIELDS},
)


def _pruned(ledger):
    """A (nested) ledger with zero and empty entries dropped."""
    if not isinstance(ledger, dict):
        return ledger
    pruned = {key: _pruned(value) for key, value in ledger.items()}
    return {key: value for key, value in pruned.items() if value}


def _canonical(counts):
    """Counts as a comparable value with empty ledger entries dropped."""
    return (
        tuple(getattr(counts, name) for name in INT_FIELDS),
        tuple(_pruned(getattr(counts, name)) for name in LEDGER_FIELDS),
    )


def test_int_field_discovery_sees_the_durability_ledger():
    """The dynamic field list includes the WAL counters (and will pick
    up any future ones), so every algebra property below covers them."""
    assert {"wal_appends", "fsyncs", "checkpoints",
            "commits", "plan_evictions"} <= set(INT_FIELDS)
    assert "tables" not in INT_FIELDS
    assert set(LEDGER_FIELDS) == {"tables", "texts", "transitions"}
    # every ledger has a generator, so none rides the properties empty
    assert set(LEDGER_FIELDS) == set(_LEDGER_STRATEGIES)


# ----------------------------------------------------------------------
# merge algebra
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(counts_strategy, counts_strategy, counts_strategy)
def test_merge_is_associative(a, b, c):
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert _canonical(left) == _canonical(right)


@settings(max_examples=200, deadline=None)
@given(counts_strategy, counts_strategy)
def test_merge_is_commutative(a, b):
    assert _canonical(a.merge(b)) == _canonical(b.merge(a))


@settings(max_examples=100, deadline=None)
@given(counts_strategy)
def test_empty_counts_is_merge_identity(a):
    assert _canonical(a.merge(StatementCounts())) == _canonical(a)
    assert _canonical(StatementCounts().merge(a)) == _canonical(a)


@settings(max_examples=100, deadline=None)
@given(counts_strategy, counts_strategy)
def test_delta_inverts_merge(a, b):
    """(a ⊕ b) - a == b: what accumulated since a snapshot is the delta."""
    merged = a.merge(b)
    assert _canonical(merged.delta(a)) == _canonical(b)


@settings(max_examples=100, deadline=None)
@given(counts_strategy)
def test_snapshot_is_independent(a):
    snap = a.snapshot()
    assert _canonical(snap) == _canonical(a)
    a.record("INSERT", 3)
    a.record_table("jobs", "INSERT", 3)
    a.record_text("SELECT 1")
    a.record_transition("jobs", "(new)", "idle", 3)
    assert _canonical(snap) != _canonical(a)
    later = _canonical(a.delta(snap))
    assert later == _canonical(StatementCounts(
        insert=3, tables={"jobs": {"insert": 3}}, texts={"SELECT 1": 1},
        transitions={"jobs": {"(new)->idle": 3}}))


@settings(max_examples=100, deadline=None)
@given(counts_strategy, counts_strategy)
def test_since_mark_is_the_scalar_part_of_delta(a, b):
    """``since(mark())`` — the request path's pair — equals
    ``delta(snapshot())`` on every scalar, and carries no ledger."""
    live = a.snapshot()
    mark, before = live.mark(), live.snapshot()
    live = live.merge(b)
    scalar, full = live.since(mark), live.delta(before)
    for name in INT_FIELDS:
        assert getattr(scalar, name) == getattr(full, name) == getattr(b, name)
    for name in LEDGER_FIELDS:
        assert getattr(scalar, name) == {}
    assert scalar.total() == full.total()


def test_record_transition_accumulates_and_ignores_nonpositive():
    counts = StatementCounts()
    counts.record_transition("jobs", "idle", "matched", 2)
    counts.record_transition("jobs", "idle", "matched")
    counts.record_transition("jobs", "matched", "running", 0)
    counts.record_transition("vms", "idle", "claiming", -1)
    assert counts.transitions == {"jobs": {"idle->matched": 3}}


@settings(max_examples=100, deadline=None)
@given(counts_strategy)
def test_table_writes_counts_only_dml(a):
    for table in _TABLES:
        verbs = a.tables.get(table, {})
        expected = (verbs.get("insert", 0) + verbs.get("update", 0)
                    + verbs.get("delete", 0))
        assert a.table_writes(table) == expected


# ----------------------------------------------------------------------
# verb / table classification
# ----------------------------------------------------------------------

_whitespace = st.text(alphabet=" \t\n", min_size=0, max_size=3)


def _casing(text):
    return st.sampled_from([text.lower(), text.upper(), text.title()])


@settings(max_examples=100, deadline=None)
@given(_whitespace, _casing("select"), _whitespace)
def test_statement_verb_ignores_whitespace_and_case(lead, verb, gap):
    sql = f"{lead}{verb}{gap} * FROM jobs"
    assert statement_verb(sql) == "SELECT"


@settings(max_examples=100, deadline=None)
@given(_whitespace, st.sampled_from(["jobs", "vms", "matches"]))
def test_insert_select_classifies_as_insert(lead, table):
    sql = (f"{lead}INSERT INTO {table} (a, b)"
           f" SELECT x, y FROM other WHERE x > 0")
    assert statement_verb(sql) == "INSERT"
    assert statement_table(sql) == table


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["SELECT", "INSERT", "UPDATE", "DELETE"]),
       st.integers(1, 3))
def test_cte_classifies_as_main_verb(verb, depth):
    """WITH-prefixed statements report the statement's real verb."""
    body = "SELECT 1"
    for _ in range(depth):
        body = f"SELECT * FROM ({body})"
    tails = {
        "SELECT": "SELECT * FROM cte",
        "INSERT": "INSERT INTO jobs (a) SELECT x FROM cte",
        "UPDATE": "UPDATE jobs SET a = 1 WHERE b IN (SELECT x FROM cte)",
        "DELETE": "DELETE FROM jobs WHERE b IN (SELECT x FROM cte)",
    }
    sql = f"WITH cte AS ({body}) {tails[verb]}"
    assert statement_verb(sql) == verb


def test_statement_table_classification_on_layer_dialect():
    cases = [
        ("INSERT INTO matches (job_id) SELECT job_id FROM jobs", "matches"),
        ("UPDATE jobs SET state = 'matched' WHERE 1", "jobs"),
        ("DELETE FROM runs WHERE job_id = ?", "runs"),
        ("SELECT COUNT(*) FROM vms WHERE state = 'idle'", "vms"),
        ("SELECT a FROM (SELECT a FROM users) sub", "users"),
        # the outermost FROM wins over a scalar subquery's FROM
        ("SELECT (SELECT COUNT(*) FROM runs), j.owner FROM jobs j", "jobs"),
        # string literals cannot confuse the scan
        ("SELECT CASE WHEN note = 'copied FROM jobs' THEN 1 ELSE 0 END"
         " FROM vms", "vms"),
        ("SELECT 1", ""),
        ("", ""),
    ]
    for sql, expected in cases:
        assert statement_table(sql) == expected, sql


def test_statement_verb_blank_and_plain():
    assert statement_verb("") == ""
    assert statement_verb("   ") == ""
    assert statement_verb("PRAGMA foreign_keys = ON") == "PRAGMA"
