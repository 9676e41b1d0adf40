"""Finding model, rule catalog and baseline for the SQL static analyzer.

A :class:`Finding` is one diagnosed fact about one statement (or one
interpolation site): a rule id, a severity, file:line provenance and a
human message.  Severities mean exactly three things:

* ``error`` — the statement is wrong in a way no run reports: it
  compares or writes a literal its column can never hold, omits a NOT
  NULL column, interpolates values into SQL text, walks a lifecycle
  edge the declaration forbids, splits a transaction or dispatches per
  row.  (What an engine rejects when the statement runs — a parse
  error, an unknown name, a wrong bind — is the engines' to report;
  tier-1 runs every extracted statement.)  Errors gate CI.
* ``warning`` — the statement executes but something about it is
  suspicious (affinity-coercing writes, unused named parameters,
  value-bearing dynamic text).  Reported, never gating.
* ``advice`` — the statement is correct but could be better (a bounded
  identifier template, a declared lifecycle edge no statement walks).
  Reported, never gating.  Which access path a statement takes is
  SQLite's to say: tier-1 reads its plan of every render.

The :class:`Baseline` is the adoption mechanism: a committed JSON file
of finding fingerprints that are *known and accepted*.  The CI gate is
"zero non-baselined errors", so pre-existing debt never blocks a PR but
new debt always does — and deleting entries as findings are fixed pins
each fix in review.  Fingerprints deliberately exclude the line number:
unrelated edits move statements around, and a baseline that churned on
line drift would train people to regenerate it blindly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SEVERITIES = ("error", "warning", "advice")

#: The rule catalog: id -> (severity, one-line description).  DESIGN.md
#: renders this table; adding a rule means adding an entry here and
#: emitting findings under its id (see DESIGN.md's "adding a rule").
RULES: Dict[str, Tuple[str, str]] = {
    "not-null-write": (
        "error", "write violates a NOT NULL column without a default"),
    "check-domain": (
        "error", "literal outside the column's CHECK (col IN ...) domain"),
    "affinity-mismatch": (
        "error", "comparison between a column and a literal of an "
                 "incompatible type affinity can never be true"),
    "affinity-write": (
        "warning", "write stores a literal the column affinity will coerce"),
    "param-extra": (
        "warning", "call site supplies named parameters the statement "
                   "never binds"),
    "fstring-value-interpolation": (
        "error", "f-string interpolates a non-allow-listed expression "
                 "into SQL text (injection risk)"),
    "dynamic-sql": (
        "warning", "statement text is not constant and not a bounded "
                   "identifier template (plan-cache busting)"),
    "templated-sql": (
        "advice", "statement text varies over a bounded identifier "
                  "template (one cache entry per table)"),
    # -- lifecycle tier (cross-statement; DESIGN.md section 9) ---------
    "illegal-transition": (
        "error", "statement implies a state transition the declared "
                 "lifecycle forbids"),
    "unguarded-state-write": (
        "error", "UPDATE writes a lifecycle state column with no "
                 "state=/state IN predicate in WHERE"),
    "unimplemented-transition": (
        "advice", "declared lifecycle transition no statement "
                  "implements"),
    "dead-state": (
        "advice", "declared lifecycle state no statement can write"),
    # -- dispatch-complexity tier (DESIGN.md section 9.2) --------------
    "per-row-dispatch": (
        "error", "statement dispatched per iteration of a data-dependent "
                 "loop where one set statement or executemany would do"),
    "unbounded-loop-dispatch": (
        "error", "statement dispatched inside a while loop or a recursion "
                 "with no static bound"),
    # -- transaction-boundary tier -------------------------------------
    "txn-unprotected-write": (
        "error", "multi-table write sequence can run outside any "
                 "transaction scope"),
    "txn-split-transition": (
        "error", "lifecycle state transition and its companion writes "
                 "span separate transaction scopes"),
    "txn-nested": (
        "warning", "redundant lexically nested transaction scope, or "
                   "direct engine transaction control outside the "
                   "access layer"),
}


def severity_of(rule: str) -> str:
    return RULES[rule][0]


@dataclass(frozen=True)
class Finding:
    """One diagnosed fact, with provenance."""

    rule: str
    severity: str
    file: str
    line: int
    message: str
    #: The offending statement text (or template), possibly elided.
    statement: str = ""

    @property
    def fingerprint(self) -> str:
        """Baseline identity: everything except the line number."""
        return f"{self.rule}|{self.file}|{self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "statement": self.statement,
        }

    def render(self) -> str:
        return (f"{self.file}:{self.line}: {self.severity} "
                f"[{self.rule}] {self.message}")


def make_finding(rule: str, file: str, line: int, message: str,
                 statement: str = "") -> Finding:
    """A :class:`Finding` with the severity the rule catalog declares."""
    return Finding(rule=rule, severity=severity_of(rule), file=file,
                   line=line, message=message, statement=statement)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    rank = {sev: index for index, sev in enumerate(SEVERITIES)}
    return sorted(
        findings,
        key=lambda f: (rank.get(f.severity, 99), f.file, f.line, f.rule,
                       f.message),
    )


class Baseline:
    """The committed set of accepted findings, as fingerprint counts.

    ``filter`` returns the findings *not* covered by the baseline; a
    fingerprint occurring N times in the baseline absorbs at most N
    occurrences, so duplicating an accepted pattern at a new call site
    still surfaces.
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self.counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: Optional[Path]) -> "Baseline":
        """Load a baseline file; a missing path is the empty baseline."""
        if path is None or not Path(path).exists():
            return cls()
        data = json.loads(Path(path).read_text())
        counts: Dict[str, int] = {}
        for entry in data.get("findings", []):
            counts[entry["fingerprint"]] = (
                counts.get(entry["fingerprint"], 0) + entry.get("count", 1)
            )
        return cls(counts)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        counts: Dict[str, int] = {}
        for finding in findings:
            counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
        return cls(counts)

    def save(self, path: Path) -> None:
        entries = [
            {"fingerprint": fingerprint, "count": count}
            for fingerprint, count in sorted(self.counts.items())
        ]
        payload = {"version": 1, "findings": entries}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def filter(self, findings: Sequence[Finding]) -> List[Finding]:
        """The findings the baseline does not absorb."""
        remaining = dict(self.counts)
        fresh: List[Finding] = []
        for finding in sort_findings(findings):
            left = remaining.get(finding.fingerprint, 0)
            if left > 0:
                remaining[finding.fingerprint] = left - 1
            else:
                fresh.append(finding)
        return fresh
