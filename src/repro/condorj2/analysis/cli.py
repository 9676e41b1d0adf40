"""Command-line gate for the SQL static analyzer.

``python -m repro.condorj2.analysis`` extracts the corpus, checks every
statement, and reports findings in text or machine-readable JSON.  With
``--baseline`` the committed baseline absorbs accepted findings and the
exit code reflects only *new* ones at or above ``--fail-on`` severity
(errors by default) — the contract the CI job and the tier-1 test both
enforce.  ``--write-baseline`` regenerates the baseline from the
current tree; the diff of that file is how accepted debt is reviewed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.condorj2 as condorj2
from repro.condorj2.analysis.check import check_extracted
from repro.condorj2.analysis.dispatch import check_dispatch
from repro.condorj2.analysis.extract import Corpus, extract_corpus
from repro.condorj2.analysis.findings import (
    SEVERITIES, Baseline, Finding, sort_findings,
)
from repro.condorj2.analysis.lifecycle import check_lifecycles
from repro.condorj2.analysis.source import SourceTree, build_function_index
from repro.condorj2.analysis.txn import check_transactions


def analyze(root: Path) -> Tuple[Corpus, List[Finding]]:
    """Extract and check everything under ``root``.

    Runs all four tiers: the per-statement schema checks, the
    cross-statement lifecycle pass, the transaction-boundary pass and
    the dispatch-complexity pass; the last two read one call graph.
    """
    source = SourceTree.of(root)  # parsed once, shared by every tier
    corpus = extract_corpus(source)
    index = build_function_index(source)
    findings: List[Finding] = list(corpus.findings)
    for statement in corpus.statements:
        findings.extend(check_extracted(statement))
    findings.extend(check_lifecycles(corpus))
    findings.extend(check_transactions(corpus, index))
    findings.extend(check_dispatch(index))
    return corpus, sort_findings(findings)


def _summary(findings: Sequence[Finding]) -> Dict[str, int]:
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return counts


def report_dict(corpus: Corpus, findings: Sequence[Finding],
                new_findings: Sequence[Finding]) -> Dict[str, object]:
    return {
        "root": str(corpus.root),
        "files_scanned": corpus.files_scanned,
        "statements": len(corpus.statements),
        "renders": sum(len(s.renders) for s in corpus.statements),
        "summary": _summary(findings),
        "new_summary": _summary(new_findings),
        "findings": [finding.to_dict() for finding in findings],
        "new_findings": [finding.to_dict() for finding in new_findings],
    }


def _gating(new_findings: Sequence[Finding], fail_on: str) -> List[Finding]:
    if fail_on == "none":
        return []
    threshold = {"error": ("error",),
                 "warning": ("error", "warning"),
                 "any": SEVERITIES}[fail_on]
    return [f for f in new_findings if f.severity in threshold]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.condorj2.analysis",
        description="Schema-aware static analysis of the SQL corpus.",
    )
    default_root = Path(condorj2.__file__).parent
    parser.add_argument(
        "--root", type=Path, default=default_root,
        help=f"tree to scan (default: {default_root})")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="accepted-findings file; only non-baselined findings gate")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite --baseline from the current findings and exit 0")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the JSON report to this path")
    parser.add_argument(
        "--fail-on", choices=("error", "warning", "any", "none"),
        default="error",
        help="minimum new-finding severity that fails the run")
    args = parser.parse_args(argv)

    corpus, findings = analyze(args.root)

    if args.write_baseline:
        if args.baseline is None:
            parser.error("--write-baseline requires --baseline")
        Baseline.from_findings(findings).save(args.baseline)
        print(f"wrote {len(findings)} findings to {args.baseline}")
        return 0

    baseline = Baseline.load(args.baseline)
    new_findings = baseline.filter(findings)
    report = report_dict(corpus, findings, new_findings)

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for finding in new_findings:
            print(finding.render())
        summary = report["summary"]
        new_summary = report["new_summary"]
        print(
            f"{corpus.files_scanned} files, "
            f"{len(corpus.statements)} statements, "
            f"{report['renders']} renders checked; "
            + ", ".join(f"{summary[s]} {s}" for s in SEVERITIES)
            + (f" ({sum(new_summary.values())} not baselined)"
               if args.baseline is not None else "")
        )

    gating = _gating(new_findings, args.fail_on)
    if gating:
        print(f"FAIL: {len(gating)} new finding(s) at or above "
              f"--fail-on={args.fail_on}", file=sys.stderr)
        return 1
    return 0
