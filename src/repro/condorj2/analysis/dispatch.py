"""Dispatch-complexity tier: prove set-orientation statically.

The paper's flagship property is that a scheduling pass — indeed every
API operation — issues a *bounded* number of SQL statements no matter
how many jobs, machines or events it covers (the O(1)-statements-per-
pass result the benchmarks pin).  The first two analysis tiers check
individual statements and cross-statement state machines; nothing
checked the *loop structure around the dispatches*.  A regression that
wraps an ``execute`` in a per-job ``for`` loop parses fine, walks legal
lifecycle edges, commits in one transaction — and only surfaces as a
slow benchmark.

This tier closes that hole.  It reads the call graph the transaction
tier reads too (:func:`source.build_function_index`), in which

* every execute-family call site (``execute``/``executemany``/
  ``query_all``/``query_one``/``scalar`` — one *dispatch* each, exactly
  what ``StatementCounts.statements`` meters at runtime) carries its
  loop context: the stack of enclosing ``for``/``while`` loops and
  comprehensions, each classified *bounded* or *data-dependent*;
* every resolvable call site carries its loop context likewise, so loop
  context is inherited through call edges (a loop around a call to a
  dispatching function is a loop around its dispatches).

Loops are **bounded** (never flagged) when they
iterate a literal, a ``range()`` of constants, a name in
``schema.BOUNDED_ITERABLES`` (schema/contract declarations whose
cardinality is fixed at import time — reachable through ``.items()``/
``sorted()``-style wrappers and single local rebindings).  Everything
else is data-dependent, and no annotation overrides that verdict.  Two
structural rules fall out:

* ``per-row-dispatch`` (error) — a dispatch (or a call to a dispatching
  function) inside a data-dependent ``for``/comprehension;
* ``unbounded-loop-dispatch`` (error) — a dispatch inside a ``while``,
  or a call that closes a cycle through dispatching functions
  (recursion has no static bound either).

Together they are the static half of the paper's claim; the runtime half
is each ``OperationContract``'s constant ``statement_budget``, which the
gateway meters on every live call on every backend (``budget-exceeded``
faults).

Calls resolve by the call graph's one rule (see :mod:`source`), so
``event.get(...)`` cannot alias ``ConfigService.get``.  Simulation
driver files (``cas.py``, ``startd.py``, ``system.py``) are excluded, as
dispatching functions and as call targets: their ``while True`` event
loops *are* the simulated passage of time, not per-operation work.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import List, Set, Tuple

from repro.condorj2.analysis.findings import Finding, make_finding
from repro.condorj2.analysis.source import (
    CallSite, Function, FunctionIndex, Loop, build_function_index,
)

__all__ = ["check_dispatch", "dispatching"]

#: Simulation drivers: their event loops model wall-clock time, not
#: per-operation work, so they are outside the dispatch-complexity
#: contract (the per-*pass* services they call are what is audited).
_DRIVER_FILES = ("cas.py", "startd.py", "system.py")


def _audited(index: FunctionIndex) -> List[Function]:
    """The functions outside the driver files, in qualname order."""
    return [index.functions[qualname] for qualname in sorted(index.functions)
            if PurePosixPath(index.functions[qualname].file).name
            not in _DRIVER_FILES]


def dispatching(index: FunctionIndex) -> Set[str]:
    """Least fixpoint: audited functions from which a dispatch is
    reachable without passing through a driver file."""
    audited = _audited(index)
    reached = {f.qualname for f in audited if f.dispatches}
    changed = True
    while changed:
        changed = False
        for function in audited:
            if function.qualname not in reached and any(
                    target in reached for call in function.calls
                    for target in index.resolve(call.name)):
                reached.add(function.qualname)
                changed = True
    return reached


def _recursive_calls(index: FunctionIndex, reached: Set[str]
                     ) -> List[Tuple[Function, CallSite]]:
    """The calls that close a cycle through dispatching functions.

    A depth-first walk over the dispatching call graph; a call to a
    function still on the walk's stack is a back edge.  Every such cycle
    has one, so each recursion is reported once.
    """
    closing: List[Tuple[Function, CallSite]] = []
    on_stack: Set[str] = set()
    done: Set[str] = set()

    def walk(qualname: str) -> None:
        on_stack.add(qualname)
        function = index.functions[qualname]
        for call in function.calls:
            targets = [t for t in index.resolve(call.name) if t in reached]
            if any(target in on_stack for target in targets):
                closing.append((function, call))
            for target in targets:
                if target not in on_stack and target not in done:
                    walk(target)
        on_stack.discard(qualname)
        done.add(qualname)

    for qualname in sorted(reached):
        if qualname not in done:
            walk(qualname)
    return closing


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
def check_dispatch(root) -> List[Finding]:
    """All dispatch-complexity findings for ``root`` (a directory, a
    loaded :class:`SourceTree` or a built :class:`FunctionIndex`)."""
    index = build_function_index(root)
    reached = dispatching(index)
    findings: List[Finding] = []
    for function in _audited(index):
        shortname = function.qualname.split(":", 1)[1]
        for site in function.dispatches:
            findings.extend(_site_findings(
                function.file, shortname, site.line, site.loops,
                f"{site.name} dispatched"))
        for call in function.calls:
            if not any(t in reached for t in index.resolve(call.name)):
                continue
            findings.extend(_site_findings(
                function.file, shortname, call.line, call.loops,
                f"call to {call.name} (which dispatches statements)"))
    for function, call in _recursive_calls(index, reached):
        findings.append(make_finding(
            "unbounded-loop-dispatch", function.file, call.line,
            f"{function.qualname.split(':', 1)[1]}: call to {call.name} "
            f"closes a recursion through dispatching functions with no "
            f"static bound"))
    return findings


def _site_findings(file: str, function: str, line: int,
                   loops: Tuple[Loop, ...], what: str) -> List[Finding]:
    data_loops = [l for l in loops if not l.bounded and l.kind != "while"]
    while_loops = [l for l in loops if not l.bounded and l.kind == "while"]
    if data_loops:
        return [make_finding(
            "per-row-dispatch", file, line,
            f"{function}: {what} per iteration of a data-dependent "
            f"{data_loops[0].kind} loop; hoist into executemany or one "
            f"set-oriented statement")]
    if while_loops:
        return [make_finding(
            "unbounded-loop-dispatch", file, line,
            f"{function}: {what} inside a while loop with no static "
            f"bound")]
    return []
