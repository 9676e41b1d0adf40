"""The statement cache: one LRU keyed by statement text.

The container the paper ran on (JBoss over DB2) keeps a bounded cache of
``PreparedStatement`` handles per pooled connection; preparing a statement
costs a round of SQL compilation, re-executing a cached one does not.  The
reproduction models that cache explicitly so the cost model can charge
compilation on misses and so the hit rate is observable — a healthy
set-oriented workload converges on a tiny working set of SQL strings and
a hit rate near 1.0.  Hits, misses and evictions are counted on
:class:`~repro.condorj2.storage.counters.StatementCounts` by the one
admission that consults this cache; the cache itself keeps no counts.

An entry (:class:`Statement`) holds everything an engine derives from
the text alone: the accounting verb, the principal table, the lifecycle
:class:`~repro.condorj2.storage.transitions.TransitionSpec`, and the
engine's compiled plan for the statement.
The shared :class:`~repro.condorj2.storage.engine.StorageEngine` base
class admits every statement through this one cache, so the ledger is
engine-neutral: a workload replayed on two backends produces identical
hit/miss/eviction counts by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.condorj2.schema import LIFECYCLES
from repro.condorj2.storage.counters import (
    WRITE_VERBS,
    statement_table,
    statement_verb,
)
from repro.condorj2.storage.transitions import TransitionSpec, transition_spec


@dataclass
class Statement:
    """One cached statement: what its text implies, and its plan.

    How often a text was dispatched is ``StatementCounts.texts``, which
    no eviction resets.
    """

    sql: str
    #: Accounting verb and principal table (``storage/counters.py``).
    verb: str
    table: str
    #: How the statement moves a lifecycle table's state column; None
    #: for reads and for writes no declared machine cares about.
    spec: Optional[TransitionSpec] = None
    #: The engine's compiled artifact for ``sql`` (None on engines that
    #: compile natively).
    plan: Any = None


def describe(sql: str) -> Statement:
    """The :class:`Statement` for ``sql``, plans not yet compiled."""
    verb = statement_verb(sql)
    table = statement_table(sql)
    spec = None
    if verb in WRITE_VERBS and table in LIFECYCLES:
        spec = transition_spec(sql)
    return Statement(sql, verb, table, spec)


class StatementCache:
    """Bounded LRU of :class:`Statement` entries keyed by exact SQL text.

    Entries survive data changes — everything on one is a function of
    the text, and the planner's statistics snapshot is advisory, taken
    at compile time.  Every engine holds one at the default capacity, so
    equal workloads evict equally on every backend.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError("statement cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Statement]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def lookup(self, sql: str) -> Optional[Statement]:
        """The entry on a hit (now most recently used), None on a miss."""
        entry = self._entries.get(sql)
        if entry is not None:
            self._entries.move_to_end(sql)
        return entry

    def store(self, entry: Statement) -> bool:
        """Admit ``entry`` after a miss; returns True when the admission
        evicted the least-recently-used entry."""
        self._entries[entry.sql] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            return True
        return False

    def peek(self, sql: str) -> Optional[Statement]:
        """Lookup that leaves recency alone (observability)."""
        return self._entries.get(sql)

    def entries(self) -> List[Statement]:
        """Cached statements, least- to most-recently used."""
        return list(self._entries.values())

    def clear(self) -> None:
        """Drop every cached statement."""
        self._entries.clear()
