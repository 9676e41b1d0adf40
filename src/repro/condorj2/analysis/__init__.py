"""Schema-aware static analysis of the SQL corpus.

The paper's thesis is that cluster state lives in a database and every
daemon interaction is a SQL statement; this package turns that design
into a checkable property.  It reads and parses the sources once
(:mod:`source`), extracts the complete statement corpus from them
(:mod:`extract`), checks each statement against the declared schema
for what an engine runs silently — literals outside a column's domain
or affinity, omitted NOT NULL columns (:mod:`check`), reasons across
statements about declared lifecycles (:mod:`lifecycle`) and transaction
boundaries (:mod:`txn`), flags every statement dispatched per row or
inside an unbounded loop or recursion (:mod:`dispatch`), and gates CI
on the result (:mod:`cli`, ``python -m repro.condorj2.analysis``).
"""

from repro.condorj2.analysis.check import check_extracted
from repro.condorj2.analysis.cli import analyze, main
from repro.condorj2.analysis.dispatch import check_dispatch
from repro.condorj2.analysis.extract import (
    Corpus, ExtractedStatement, SqlTemplate, extract_corpus,
)
from repro.condorj2.analysis.findings import (
    RULES, SEVERITIES, Baseline, Finding, sort_findings,
)
from repro.condorj2.analysis.lifecycle import check_lifecycles
from repro.condorj2.analysis.source import (
    FunctionIndex, build_function_index,
)
from repro.condorj2.analysis.txn import check_transactions

__all__ = [
    "Baseline",
    "Corpus",
    "ExtractedStatement",
    "Finding",
    "FunctionIndex",
    "RULES",
    "SEVERITIES",
    "SqlTemplate",
    "analyze",
    "build_function_index",
    "check_dispatch",
    "check_extracted",
    "check_lifecycles",
    "check_transactions",
    "extract_corpus",
    "main",
    "sort_findings",
]
