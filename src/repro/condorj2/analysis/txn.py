"""Transaction-boundary tier: interprocedural dataflow over the services.

The paper's footnote 7 — "ensuring that the job queue manager does not
drop jobs is one reason why job management requires transactions" — is a
property of *call structure*, not of any single statement.  This pass
reads the call graph of the application layers (``logic/``, the SOAP
facade, ``startd.py``) that :func:`source.build_function_index`
scans, in which every execute-family dispatch carries its enclosing
``with …transaction()`` scope.  Which dispatches *write*, and to which
table, is read from the extracted corpus by ``(file, line)``: the SQL
text a call site runs is resolved once, by :mod:`extract`.  Protection
then propagates through the name-resolved call graph:

* a call site *lexically* inside a ``with …transaction()`` block is
  protected;
* a function is *externally* protected when it has callers and every
  call site is protected (lexically, or because the calling function is
  itself externally protected) — the conservative fixpoint of the
  container's ``REQUIRED`` transaction semantics, where a nested
  :meth:`Database.transaction` joins the outer scope.

Three rules fall out:

* ``txn-unprotected-write`` (error) — a function's unprotected write
  sites (its own, plus writes *exposed* by callees it invokes outside
  any scope) touch two or more distinct tables and the function is not
  externally protected: a crash between the writes leaves the tables
  mutually inconsistent.  Single-table writes are atomic per statement
  and never flagged.
* ``txn-split-transition`` (error) — one function performs a lifecycle
  state write in one transaction scope and companion writes in another
  (or outside any): the transition can commit while its bookkeeping
  does not.
* ``txn-nested`` (warning) — a ``with …transaction()`` lexically nested
  inside another in the same function (the inner scope is a no-op that
  usually signals a misunderstanding), or direct ``begin``/``commit``/
  ``rollback`` calls outside the storage access layer.

Calls resolve by the call graph's one rule (see :mod:`source`).  A call
the rule leaves unresolved gives its callee no caller, which only ever
*widens* the set of functions that must prove their own protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.condorj2.analysis.extract import Corpus
from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.analysis.source import CallSite, FunctionIndex
from repro.condorj2.schema import LIFECYCLES
from repro.condorj2.storage.counters import statement_table, statement_verb
from repro.condorj2.storage.transitions import transition_spec

__all__ = ["Write", "check_transactions", "exposure", "protection",
           "writes_of"]

#: Statement verbs that mutate tables.
_WRITE_VERBS = ("INSERT", "UPDATE", "DELETE", "REPLACE")

#: Placeholder table for templated writes (``UPDATE {self.TABLE} …``):
#: the target is unknown statically, so all such writes share one
#: conservative bucket when counting distinct tables.
DYNAMIC_TABLE = "<dynamic>"


@dataclass(frozen=True)
class Write:
    """A dispatch whose extracted statement mutates ``table``."""

    site: CallSite
    table: str
    #: True when the statement writes a lifecycle state column.
    state_write: bool


def writes_of(corpus: Corpus, index: FunctionIndex
              ) -> Dict[str, List[Write]]:
    """qualname -> its write dispatches, joined to the corpus by
    ``(file, line)``; a dispatch whose text the corpus could not
    resolve writes nothing known."""
    statements = {(s.file, s.line): s for s in corpus.statements}
    writes: Dict[str, List[Write]] = {}
    for qualname, function in index.functions.items():
        writes[qualname] = []
        for site in function.dispatches:
            statement = statements.get((function.file, site.line))
            if statement is None:
                continue
            sql = "".join(part if isinstance(part, str) else "{_}"
                          for part in statement.template.parts)
            if statement_verb(sql) not in _WRITE_VERBS:
                continue
            table = statement_table(sql)
            if not table or table == "_":
                table = DYNAMIC_TABLE
            spec = transition_spec(sql) if table in LIFECYCLES else None
            writes[qualname].append(Write(
                site, table, spec is not None and spec.verb == "UPDATE"))
    return writes


def exposure(index: FunctionIndex, writes: Dict[str, List[Write]]
             ) -> Dict[str, Set[str]]:
    """Least fixpoint: tables a call to ``f`` may write with no scope.

    A write lexically inside a scope contributes nothing; an unprotected
    call site contributes the callee's exposure (transitively).
    """
    exposed = {qualname: {w.table for w in function_writes
                          if w.site.scope is None}
               for qualname, function_writes in writes.items()}
    changed = True
    while changed:
        changed = False
        for qualname, function in index.functions.items():
            tables = exposed[qualname]
            before = len(tables)
            for call in function.calls:
                if call.scope is not None:
                    continue
                for target in index.resolve(call.name):
                    tables |= exposed[target]
            if len(tables) != before:
                changed = True
    return exposed


def protection(index: FunctionIndex) -> Dict[str, bool]:
    """Greatest fixpoint: is every path to ``f`` inside a transaction?

    Start from "every called function is protected" and strip any whose
    call sites include an unprotected site in an unprotected caller;
    functions with no resolvable callers (service entry points) are
    never externally protected.
    """
    callers: Dict[str, List[Tuple[str, Optional[int]]]] = {}
    for qualname, function in index.functions.items():
        for call in function.calls:
            for target in index.resolve(call.name):
                callers.setdefault(target, []).append((qualname, call.scope))
    protected = {qualname: qualname in callers
                 for qualname in index.functions}
    changed = True
    while changed:
        changed = False
        for qualname, sites in callers.items():
            if protected[qualname] and not all(
                    scope is not None or protected[caller]
                    for caller, scope in sites):
                protected[qualname] = False
                changed = True
    return protected


def check_transactions(corpus: Corpus, index: FunctionIndex
                       ) -> List[Finding]:
    """All transaction-boundary findings for the scanned tree."""
    writes = writes_of(corpus, index)
    exposed = exposure(index, writes)
    protected = protection(index)
    findings: List[Finding] = []
    for qualname in sorted(index.functions):
        function = index.functions[qualname]
        name = qualname.split(":", 1)[1]
        function_writes = writes[qualname]
        if len(exposed[qualname]) >= 2 and not protected[qualname]:
            unprotected = [w.site.line for w in function_writes
                           if w.site.scope is None]
            findings.append(make_finding(
                "txn-unprotected-write", function.file,
                unprotected[0] if unprotected else function.line,
                f"{name}: writes to {', '.join(sorted(exposed[qualname]))} "
                f"can execute outside any transaction scope"))
        scopes = {w.site.scope for w in function_writes}
        state_writes = [w for w in function_writes if w.state_write]
        if len(scopes) >= 2 and state_writes:
            first = state_writes[0]
            findings.append(make_finding(
                "txn-split-transition", function.file, first.site.line,
                f"{name}: state transition on {first.table} and companion "
                f"writes span separate transaction scopes"))
        for line in function.nested_scopes:
            findings.append(make_finding(
                "txn-nested", function.file, line,
                f"{name}: transaction scope lexically nested inside "
                f"another (the inner scope joins the outer and is "
                f"redundant)"))
        for line in function.txn_control:
            findings.append(make_finding(
                "txn-nested", function.file, line,
                f"{name}: direct engine transaction control outside the "
                f"storage access layer"))
    return findings
