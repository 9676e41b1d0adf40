"""A pure-Python, dict-backed implementation of the storage contract.

``MemoryStorageEngine`` holds every table as a dict of rows keyed by
rowid (or primary key for WITHOUT ROWID tables), maintains equality
indexes over the hot predicate columns, enforces the schema's
constraints (NOT NULL, CHECK, UNIQUE, foreign keys with
``ON DELETE CASCADE``), and interprets the access layer's SQL dialect
(:mod:`repro.condorj2.storage.sqlparser`) — including the
``INSERT INTO matches ... SELECT`` ROW_NUMBER slot join and the
``json_each`` completion batch, so ``SchedulingService.run_pass``
issues the same statements per pass on this backend too.

Fidelity targets (asserted by the cross-backend differential fuzzer):

* identical table contents after identical workloads, including SQLite's
  type affinity on write (an INTEGER 512 stored into a REAL column reads
  back as 512.0) and rowid assignment (max+1, AUTOINCREMENT never
  reuses);
* identical ``rowcount`` semantics (rows matched by UPDATE, rows
  actually inserted by INSERT OR IGNORE, cascade deletes not counted);
* identical :class:`StatementCounts`, which follows from the shared
  accounting in :class:`~repro.condorj2.storage.engine.StorageEngine`
  plus identical rowcounts here.

Scan order mirrors SQLite's: rowid order for ordinary tables (insertion
order when the key is hidden, primary-key order when an INTEGER PRIMARY
KEY aliases the rowid) and primary-key order for WITHOUT ROWID tables.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
import time
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.condorj2.schema import TABLE_DEFS, TableDef
from repro.condorj2.storage import planner as pl
from repro.condorj2.storage import sqlparser as sp
from repro.condorj2.storage.engine import StorageEngine


class MemoryIntegrityError(Exception):
    """Constraint violation (wrapped in DatabaseError by the base class)."""


class MemoryEngineError(Exception):
    """Statement outside the supported dialect or misuse of the engine."""


# ----------------------------------------------------------------------
# SQLite-compatible scalar semantics
# ----------------------------------------------------------------------

def _numeric_from_text(text: str) -> Optional[float]:
    stripped = text.strip()
    try:
        return int(stripped)
    except ValueError:
        try:
            return float(stripped)
        except ValueError:
            return None


def apply_affinity(value: Any, affinity: str) -> Any:
    """Convert ``value`` as SQLite's column affinity would on write."""
    # Hot-path exits: text into a TEXT column and ints into numeric
    # columns (the shapes every indexed probe takes) pass unchanged.
    kind = type(value)
    if kind is str:
        if affinity == "TEXT":
            return value
    elif kind is int:
        if affinity == "INTEGER" or affinity == "NUMERIC":
            return value
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if affinity in ("INTEGER", "NUMERIC"):
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value) if value.is_integer() else value
        if isinstance(value, str):
            number = _numeric_from_text(value)
            if number is None:
                return value
            if isinstance(number, float) and number.is_integer():
                return int(number)
            return number
        return value
    if affinity == "REAL":
        if isinstance(value, int):
            return float(value)
        if isinstance(value, str):
            number = _numeric_from_text(value)
            return float(number) if number is not None else value
        return value
    if affinity == "TEXT":
        if isinstance(value, (int, float)):
            return str(value)
        return value
    return value


def _to_number(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        number = _numeric_from_text(value)
        return number if number is not None else 0
    return 0


def _to_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    return str(value)


def _int_truncdiv(a: int, b: int) -> int:
    """Integer division truncating toward zero (SQLite's `/`), exact for
    operands beyond float precision."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def sql_sort_key(value: Any) -> Tuple[int, Any]:
    """SQLite ordering: NULL < numbers < text."""
    kind = type(value)  # exact-type dispatch keeps the hot loop cheap
    if kind is int or kind is float:
        return (1, value)
    if kind is str:
        return (2, value)
    if value is None:
        return (0, 0)
    if kind is bool:
        return (1, int(value))
    return (3, repr(value))


#: Shared empty probe result; read-only by the same contract as the
#: memoized probe lists.
_EMPTY_ROWS: List[Dict[str, Any]] = []


def _is_true(value: Any) -> bool:
    if value is None:
        return False
    if isinstance(value, str):
        number = _numeric_from_text(value)
        return bool(number)
    return bool(value)


def _sql_eq(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    an, bn = isinstance(a, (int, float)), isinstance(b, (int, float))
    if an != bn:
        return False  # number never equals text in SQLite
    return a == b


def _sql_compare(a: Any, b: Any) -> Any:
    """-1/0/1 with SQLite's cross-type ordering; None when either NULL."""
    if a is None or b is None:
        return None
    ka, kb = sql_sort_key(a), sql_sort_key(b)
    if ka[0] != kb[0]:
        return -1 if ka[0] < kb[0] else 1
    if ka[1] == kb[1]:
        return 0
    return -1 if ka[1] < kb[1] else 1


#: SQLite's LIKE is case-insensitive for ASCII only; fold just A-Z.
_ASCII_FOLD = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)


def _like_matches(text: Any, pattern: Any) -> Any:
    if text is None or pattern is None:
        return None
    regex = ""
    for char in _to_text(pattern).translate(_ASCII_FOLD):
        if char == "%":
            regex += ".*"
        elif char == "_":
            regex += "."
        else:
            regex += re.escape(char)
    # DOTALL: SQLite's '_' (and '%') match newlines too.
    return re.fullmatch(
        regex, _to_text(text).translate(_ASCII_FOLD), re.DOTALL
    ) is not None


# ----------------------------------------------------------------------
# rows and cursors
# ----------------------------------------------------------------------

class MemoryRow:
    """sqlite3.Row work-alike: index- and name-addressable, dict()-able."""

    __slots__ = ("_names", "_values", "_lookup")

    def __init__(self, names: Tuple[str, ...], values: Tuple[Any, ...],
                 lookup: Dict[str, int]):
        self._names = names
        self._values = values
        self._lookup = lookup

    def keys(self) -> List[str]:
        return list(self._names)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, int):
            return self._values[key]
        try:
            return self._values[self._lookup[key]]
        except KeyError:
            raise IndexError(f"no such column: {key}") from None

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, MemoryRow):
            return (self._names == other._names
                    and self._values == other._values)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._names, self._values)
        )
        return f"<MemoryRow {pairs}>"


class MemoryCursor:
    """Cursor-like result carrier (rowcount, lastrowid, fetch API)."""

    def __init__(self, rows: Optional[List[MemoryRow]] = None,
                 rowcount: int = -1, lastrowid: Optional[int] = None):
        self._rows = rows if rows is not None else []
        self._pos = 0
        self.rowcount = rowcount
        self.lastrowid = lastrowid

    def fetchone(self) -> Optional[MemoryRow]:
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def fetchall(self) -> List[MemoryRow]:
        rows = self._rows[self._pos:]
        self._pos = len(self._rows)
        return rows

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------

class MemoryTable:
    """One table: rows, rowid assignment, equality indexes, constraints."""

    def __init__(self, tdef: TableDef):
        self.tdef = tdef
        self.name = tdef.name
        self.columns: Tuple[str, ...] = tuple(col.name for col in tdef.columns)
        self.affinities: Dict[str, str] = {
            col.name: col.affinity for col in tdef.columns
        }
        self.rows: Dict[Any, Dict[str, Any]] = {}
        #: AUTOINCREMENT high-water mark (next key is max(this, max+1)).
        self.autoinc_next = 1
        self._sorted_keys: Optional[List[Any]] = None
        # the rowid-aliasing INTEGER PRIMARY KEY, if any
        self.ipk = tdef.integer_primary_key
        # equality indexes: column -> value -> set of rowkeys
        indexed = set()
        if tdef.primary_key:
            indexed.add(tdef.primary_key[0])
        for index in tdef.indexes:
            indexed.add(index.columns[0])
        for fk in tdef.foreign_keys:
            indexed.add(fk.column)
        for cols in tdef.unique:
            indexed.add(cols[0])
        self.eq_indexes: Dict[str, Dict[Any, set]] = {
            col: {} for col in indexed
        }
        # Memoized probe results: column -> value -> [sorted keys, rows].
        # Any write touching a (column, value) bucket pops its entry, so
        # a cached list is always current; repeated probes (the planner's
        # drivers and join loops) skip the per-probe sort and row fetch.
        # Cached lists are shared — callers must not mutate them.
        self._probe_cache: Dict[str, Dict[Any, List[Any]]] = {
            col: {} for col in indexed
        }
        # unique value maps: cols tuple -> values tuple -> rowkey
        self.unique_maps: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], Any]] = {}
        if not self.ipk and tdef.rowid and tdef.primary_key:
            # e.g. TEXT PRIMARY KEY over a hidden rowid
            self.unique_maps[tuple(tdef.primary_key)] = {}
        for cols in tdef.unique:
            self.unique_maps[tuple(cols)] = {}

    # -- scan order -----------------------------------------------------
    def scan_keys(self) -> List[Any]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.rows)
        return self._sorted_keys

    def _probe_entry(self, column: str, value: Any) -> Optional[List[Any]]:
        if value is None:
            return None
        value = apply_affinity(value, self.affinities[column])
        cache = self._probe_cache[column]
        entry = cache.get(value)
        if entry is None:
            bucket = self.eq_indexes[column].get(value)
            if not bucket:
                return None
            entry = cache[value] = [sorted(bucket), None]
        return entry

    def probe(self, column: str, value: Any) -> List[Any]:
        """Rowkeys with ``column == value`` via the equality index.

        The column's affinity is applied to the probe value first, as
        SQLite applies comparison affinity before an index lookup.  The
        returned list is memoized and shared — do not mutate."""
        entry = self._probe_entry(column, value)
        return entry[0] if entry is not None else []

    def has(self, column: str, value: Any) -> bool:
        """Does any row hold ``column == value``?  Reads the index
        bucket only — no key sort, no row fetch."""
        if value is None:
            return False
        value = apply_affinity(value, self.affinities[column])
        return bool(self.eq_indexes[column].get(value))

    def probe_rows(self, column: str, value: Any) -> List[Dict[str, Any]]:
        """Rows with ``column == value``, key-ordered; memoized/shared.

        ``_probe_entry`` is inlined — this runs once per outer row in
        every index-probe join loop."""
        if value is None:
            return _EMPTY_ROWS
        affinity = self.affinities[column]
        kind = type(value)
        if not (kind is str and affinity == "TEXT") and not (
            kind is int and (affinity == "INTEGER" or affinity == "NUMERIC")
        ):
            value = apply_affinity(value, affinity)
        cache = self._probe_cache[column]
        entry = cache.get(value)
        if entry is None:
            bucket = self.eq_indexes[column].get(value)
            if not bucket:
                return _EMPTY_ROWS
            entry = cache[value] = [sorted(bucket), None]
        rows = entry[1]
        if rows is None:
            table_rows = self.rows
            rows = entry[1] = [table_rows[key] for key in entry[0]]
        return rows

    # -- index maintenance ---------------------------------------------
    def _index_add(self, key: Any, row: Dict[str, Any]) -> None:
        for col, index in self.eq_indexes.items():
            index.setdefault(row[col], set()).add(key)
            self._probe_cache[col].pop(row[col], None)
        for cols, mapping in self.unique_maps.items():
            values = tuple(row[c] for c in cols)
            if any(v is None for v in values):
                continue  # SQLite UNIQUE admits multiple NULLs
            mapping[values] = key

    def _index_remove(self, key: Any, row: Dict[str, Any]) -> None:
        for col, index in self.eq_indexes.items():
            bucket = index.get(row[col])
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[row[col]]
            self._probe_cache[col].pop(row[col], None)
        for cols, mapping in self.unique_maps.items():
            values = tuple(row[c] for c in cols)
            if any(v is None for v in values):
                continue
            if mapping.get(values) == key:
                del mapping[values]

    # -- low-level mutation (no constraint checks) ----------------------
    def raw_insert(self, key: Any, row: Dict[str, Any]) -> None:
        self.rows[key] = row
        self._sorted_keys = None
        self._index_add(key, row)

    def raw_delete(self, key: Any) -> Dict[str, Any]:
        row = self.rows.pop(key)
        self._sorted_keys = None
        self._index_remove(key, row)
        return row

    def raw_update(self, key: Any, new_row: Dict[str, Any]) -> Dict[str, Any]:
        old = self.rows[key]
        self._index_remove(key, old)
        self.rows[key] = new_row
        self._index_add(key, new_row)
        return old

    # -- constraint helpers ---------------------------------------------
    def check_row_constraints(self, row: Dict[str, Any]) -> None:
        for col in self.tdef.columns:
            value = row[col.name]
            if value is None:
                in_pk = col.name in self.tdef.primary_key
                if col.not_null or (in_pk and not self.ipk):
                    raise MemoryIntegrityError(
                        f"NOT NULL constraint failed: {self.name}.{col.name}"
                    )
                continue
            if col.check_in is not None and value not in col.check_in:
                raise MemoryIntegrityError(
                    f"CHECK constraint failed: {self.name}.{col.name}"
                )

    def unique_conflict(self, row: Dict[str, Any],
                        exclude_key: Any = None) -> Optional[str]:
        for cols, mapping in self.unique_maps.items():
            values = tuple(row[c] for c in cols)
            if any(v is None for v in values):
                continue
            hit = mapping.get(values)
            if hit is not None and hit != exclude_key:
                return f"UNIQUE constraint failed: {self.name}.{', '.join(cols)}"
        return None

    def pk_exists(self, value: Any) -> bool:
        """Does a row with this (single-column) primary key exist?"""
        if self.ipk or not self.tdef.rowid:
            return value in self.rows
        mapping = self.unique_maps[tuple(self.tdef.primary_key)]
        return (value,) in mapping

    def next_rowid(self) -> int:
        base = (max(self.rows) + 1) if self.rows else 1
        if self.tdef.autoincrement:
            rowid = max(base, self.autoinc_next)
        else:
            rowid = base
        return rowid


# ----------------------------------------------------------------------
# runtime context
# ----------------------------------------------------------------------

class _Rt:
    """Per-execution state: frame stack, bind parameters, result caches."""

    __slots__ = ("frames", "seq", "named", "cache", "group")

    def __init__(self, seq: Optional[Sequence[Any]],
                 named: Optional[Dict[str, Any]]):
        self.frames: List[Dict[str, Any]] = []
        self.seq = seq
        self.named = named
        self.cache: Dict[Any, Any] = {}  # uncorrelated subquery results
        self.group: Optional[List[Dict[str, Any]]] = None


class _Scope:
    """Compile-time name resolution: alias -> visible columns (plus the
    column affinities for table sources — subquery and json_each columns
    have no affinity, exactly as in SQLite).

    Each alias also carries its frame *slot*: runtime environments are
    flat lists indexed by source position (plus trailing window slots),
    not per-row dicts, so a compiled column reference is two list
    indexings and one row lookup."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.aliases: Dict[str, Tuple[str, ...]] = {}
        self.affinities: Dict[str, Optional[Dict[str, str]]] = {}
        self.slots: Dict[str, int] = {}

    def add(self, alias: str, columns: Tuple[str, ...],
            affinities: Optional[Dict[str, str]] = None,
            slot: int = 0) -> None:
        self.aliases[alias] = columns
        self.affinities[alias] = affinities
        self.slots[alias] = slot

    def remove(self, alias: str) -> None:
        del self.aliases[alias]
        del self.affinities[alias]
        del self.slots[alias]

    def _find(self, qualifier: Optional[str], name: str
              ) -> Tuple[int, "_Scope", str]:
        """(depth, defining scope, alias) for a column reference."""
        depth, scope = 0, self
        while scope is not None:
            if qualifier is not None:
                columns = scope.aliases.get(qualifier)
                if columns is not None:
                    if name not in columns:
                        raise MemoryEngineError(
                            f"no such column: {qualifier}.{name}")
                    return depth, scope, qualifier
            else:
                for alias, columns in scope.aliases.items():
                    if name in columns:
                        return depth, scope, alias
            depth, scope = depth + 1, scope.parent
        raise MemoryEngineError(
            f"no such column: {(qualifier + '.') if qualifier else ''}{name}")

    def resolve(self, qualifier: Optional[str], name: str
                ) -> Tuple[int, str, int]:
        """(depth, alias, frame slot) for a column reference."""
        depth, scope, alias = self._find(qualifier, name)
        return depth, alias, scope.slots[alias]

    def column_affinity(self, qualifier: Optional[str],
                        name: str) -> Optional[str]:
        """Affinity of the column the reference resolves to, None when
        it does not resolve or resolves to an affinity-less source."""
        try:
            _depth, scope, alias = self._find(qualifier, name)
        except MemoryEngineError:
            return None
        mapping = scope.affinities[alias]
        return mapping.get(name) if mapping else None


def _combine_filters(filters: Sequence[Callable]) -> Optional[Callable]:
    """One boolean check from a compiled conjunct list (None when empty).

    The hot row loops call the combined closure directly instead of
    spinning up an ``all(...)`` generator per candidate row."""
    if not filters:
        return None
    if len(filters) == 1:
        fn = filters[0]
        if getattr(fn, "_strict_bool", False):
            # Compiled predicates tagged as returning strict 0/1
            # (EXISTS/semi-join closures) need no truthiness wrapper.
            return fn

        def check_one(rt):
            value = fn(rt)  # inlined _is_true: one call/row, not two
            if type(value) is str:
                return bool(_numeric_from_text(value))
            return value is not None and bool(value)

        return check_one
    fns = tuple(filters)

    def check(rt):
        for fn in fns:
            if not _is_true(fn(rt)):
                return False
        return True

    return check


_BIN_OPS: Dict[str, Callable[[Any, Any], Any]] = {}


def _register_bin_ops() -> None:
    def arith(fn):
        def op(a, b):
            a, b = _to_number(a), _to_number(b)
            if a is None or b is None:
                return None
            return fn(a, b)
        return op

    def divide(a, b):
        a, b = _to_number(a), _to_number(b)
        if a is None or b is None or b == 0:
            return None
        if isinstance(a, int) and isinstance(b, int):
            return _int_truncdiv(a, b)  # exact, truncating toward zero
        return a / b

    def modulo(a, b):
        a, b = _to_number(a), _to_number(b)
        if a is None or b is None or b == 0:
            return None
        ia, ib = int(a), int(b)
        if ib == 0:
            return None
        return ia - ib * _int_truncdiv(ia, ib)

    def concat(a, b):
        if a is None or b is None:
            return None
        return _to_text(a) + _to_text(b)

    def compare(want):
        def op(a, b):
            order = _sql_compare(a, b)
            return None if order is None else int(order in want)
        return op

    _BIN_OPS.update({
        "+": arith(lambda a, b: a + b),
        "-": arith(lambda a, b: a - b),
        "*": arith(lambda a, b: a * b),
        "/": divide,
        "%": modulo,
        "||": concat,
        "=": lambda a, b: (None if (eq := _sql_eq(a, b)) is None else int(eq)),
        "!=": lambda a, b: (None if (eq := _sql_eq(a, b)) is None
                            else int(not eq)),
        "<": compare((-1,)),
        "<=": compare((-1, 0)),
        ">": compare((1,)),
        ">=": compare((0, 1)),
    })


_register_bin_ops()


#: Correlated-EXISTS executions served by the original probing plan
#: before the decorrelated hash semi-join builds its key set.  Small
#: outer sides never pay the build; big ones amortize it immediately.
#: Adaptive because plan statistics are advisory: a plan compiled when a
#: table was small survives the table growing 1000x.
_SEMI_JOIN_BUILD_AFTER = 8


class _Compiler:
    """Compiles parsed statements into executable plans over an engine.

    ``profiled=True`` compiles the same plan shape with instrumented
    node classes (per-operator row counts and timings) — used only by
    ``explain``; cached hot plans carry no instrumentation.
    """

    def __init__(self, engine: "MemoryStorageEngine", profiled: bool = False):
        self.engine = engine
        self.profiled = profiled
        self._source_cls = _ProfiledSourcePlan if profiled else _SourcePlan
        self._select_cls = _ProfiledSelectPlan if profiled else _SelectPlan
        #: EXPLAIN registry stack: subplans compiled inside expressions
        #: (EXISTS, IN (SELECT), scalar subqueries, semi-join builds)
        #: attach to the select/statement being compiled.
        self._subs: List[List[Tuple[str, "_SelectPlan"]]] = []
        #: ``rt.cache`` slots for per-execution subquery results
        self._cache_keys = itertools.count()

    def _register_sub(self, label: str, subplan: "_SelectPlan") -> None:
        if self._subs:
            self._subs[-1].append((label, subplan))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def compile(self, ast: Any) -> Any:
        # Fresh registry stack per statement: a failed compile must not
        # leave stale frames behind (the engine reuses one compiler).
        self._subs = [[]]
        try:
            if isinstance(ast, sp.Select):
                plan: Any = _SelectStatement(self.compile_select(ast, None))
            elif isinstance(ast, sp.Insert):
                plan = self.compile_insert(ast)
            elif isinstance(ast, sp.Update):
                plan = self.compile_update(ast)
            elif isinstance(ast, sp.Delete):
                plan = self.compile_delete(ast)
            else:
                raise MemoryEngineError(
                    f"unsupported statement {type(ast).__name__}")
        finally:
            xsubs = self._subs[0]
            self._subs = []
        plan.xsubs = xsubs
        return plan

    def _table(self, name: str) -> MemoryTable:
        table = self.engine.tables.get(name)
        if table is None:
            raise MemoryEngineError(f"no such table: {name}")
        return table

    def compile_insert(self, ast: sp.Insert) -> "_InsertPlan":
        table = self._table(ast.table)
        columns = list(ast.columns) if ast.columns else list(table.columns)
        for col in columns:
            if col not in table.columns:
                raise MemoryEngineError(
                    f"no such column: {ast.table}.{col}")
        if ast.values is not None:
            if len(ast.values) != len(columns):
                raise MemoryEngineError("INSERT arity mismatch")
            stats = _new_stats()
            fns = [self.compile_expr(v, _Scope(), stats) for v in ast.values]
            return _InsertPlan(table, columns, value_fns=fns,
                               or_ignore=ast.or_ignore)
        select = self.compile_select(ast.select, None)
        if len(select.names) != len(columns):
            raise MemoryEngineError("INSERT..SELECT arity mismatch")
        return _InsertPlan(table, columns, select=select,
                           or_ignore=ast.or_ignore)

    def compile_update(self, ast: sp.Update) -> "_UpdatePlan":
        table = self._table(ast.table)
        scope = _Scope()
        scope.add(ast.table, table.columns, table.affinities)
        stats = _new_stats()
        sets = []
        for col, expr in ast.sets:
            if col not in table.columns:
                raise MemoryEngineError(f"no such column: {ast.table}.{col}")
            sets.append((col, self.compile_expr(expr, scope, stats)))
        return _UpdatePlan(table, sets, *self._compile_dml_where(
            table, ast.table, ast.where, scope))

    def compile_delete(self, ast: sp.Delete) -> "_DeletePlan":
        table = self._table(ast.table)
        scope = _Scope()
        scope.add(ast.table, table.columns, table.affinities)
        return _DeletePlan(table, *self._compile_dml_where(
            table, ast.table, ast.where, scope))

    def _compile_dml_where(self, table, alias, where, scope):
        """``(access path, filters, estimated rows)`` for the WHERE of
        an UPDATE/DELETE: the chosen driver, or a key-order scan."""
        conjuncts = sp.split_conjuncts(where)
        stats = _new_stats()
        driver_position, access, est = self._choose_driver(
            table, alias, conjuncts, scope, stats)
        filters = [self.compile_expr(conjunct, scope, stats)
                   for position, conjunct in enumerate(conjuncts)
                   if position != driver_position]
        if access is None:
            access = _Access(keys=lambda rt: table.scan_keys())
            est = float(len(table.rows))
        return access, filters, est

    def _choose_driver(self, table: MemoryTable, alias: str,
                       conjuncts: List[Any], scope: _Scope, stats: Dict):
        """Driver selection for one scan of ``table`` — a SELECT's first
        source or the target of an UPDATE/DELETE: price every conjunct
        that can probe an index against the live statistics and bind the
        cheapest as the access path.  The others stay filters, so any
        choice is correct and a stale estimate can only cost time.
        Returns ``(conjunct position, access path, estimated rows)``,
        all None when no conjunct can drive."""
        candidates = []
        binders: Dict[int, Callable] = {}
        for position, conjunct in enumerate(conjuncts):
            if not (_local_aliases(conjunct, scope) <= {alias}):
                continue
            found = self._driver_candidate(conjunct, table, alias, scope)
            if found is not None:
                kind, column, est, binders[position] = found
                candidates.append(
                    pl.DriverCandidate(position, kind, column, est))
        best = pl.choose_driver(candidates)
        if best is None:
            return None, None, None
        access = binders[best.position](stats)
        access.label = f"{best.kind} probe on {best.column}"
        return best.position, access, best.est_rows

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def compile_select(self, ast: sp.Select, parent: Optional[_Scope]
                       ) -> "_SelectPlan":
        scope = _Scope(parent)
        stats = _new_stats()
        self._subs.append([])
        source_plans: List[_SourcePlan] = []
        bound: List[str] = []
        for position, src in enumerate(ast.sources):
            plan = self._compile_source(src, scope, bound, position, stats)
            source_plans.append(plan)
            scope.add(plan.alias, plan.columns, plan.affinities,
                      slot=position)
            bound.append(plan.alias)

        # WHERE: split into pushdown (first source only) and post-join;
        # one pushdown conjunct may become the first source's driver.
        where_conjuncts = sp.split_conjuncts(ast.where)
        pushdown: List[Callable] = []
        post: List[Callable] = []
        driver_position = None
        first = source_plans[0] if source_plans else None
        if first is not None and first.kind == "table":
            driver_position, access, est = self._choose_driver(
                first.table, first.alias, where_conjuncts, scope, stats)
            if access is not None:
                first.access = access
                first.est_rows = est
        for position, conjunct in enumerate(where_conjuncts):
            if position == driver_position:
                continue
            local = _local_aliases(conjunct, scope)
            cstats = _new_stats()
            fn = self.compile_expr(conjunct, scope, cstats)
            stats["outer"] = max(stats["outer"], cstats["outer"])
            if first is not None and local <= {first.alias}:
                pushdown.append(fn)
            else:
                post.append(fn)
        if first is not None:
            first.check = _combine_filters(pushdown)

        # ROW_NUMBER windows whose order equals the select's ORDER BY
        # fuse into the final (top-K) sort: rank = output position.
        fused_ast_indexes = pl.fusable_window_items(ast)
        fused_ast_set = set(fused_ast_indexes or ())
        fused_positions: List[int] = []

        # select items (expand stars at compile time)
        item_fns: List[Callable] = []
        names: List[str] = []
        alias_exprs: Dict[str, Any] = {}
        windows: List[Tuple[Any, List[Tuple[Callable, bool]]]] = []
        istats = _new_stats(windows, len(source_plans))
        for ast_index, item in enumerate(ast.items):
            if ast_index in fused_ast_set:
                fused_positions.append(len(item_fns))
            if isinstance(item.expr, sp.Star):
                targets = ([item.expr.table] if item.expr.table
                           else [p.alias for p in source_plans])
                for alias in targets:
                    columns = scope.aliases.get(alias)
                    if columns is None:
                        raise MemoryEngineError(f"no such alias: {alias}")
                    for column in columns:
                        item_fns.append(
                            self.compile_expr(sp.Col(alias, column), scope,
                                              istats))
                        names.append(column)
                continue
            item_fns.append(self.compile_expr(item.expr, scope, istats))
            if item.alias:
                names.append(item.alias)
                alias_exprs[item.alias] = item.expr
            elif isinstance(item.expr, sp.Col):
                names.append(item.expr.name)
            else:
                names.append(item.text)
        has_agg = istats["agg"]
        stats["outer"] = max(stats["outer"], istats["outer"])

        def alias_for(node):
            """Column-first, select-alias-fallback resolution, wherever
            in a HAVING/GROUP BY/ORDER BY expression the name appears
            (``HAVING valid_replicas < d.k_safety``)."""
            if isinstance(node, sp.Col) and node.table is None \
                    and node.name in alias_exprs:
                try:
                    scope.resolve(None, node.name)
                except MemoryEngineError:
                    return alias_exprs[node.name]
            return None

        def compile_output_expr(expr):
            expr = sp.rewrite(expr, alias_for)
            ostats = _new_stats(windows, len(source_plans))
            fn = self.compile_expr(expr, scope, ostats)
            stats["outer"] = max(stats["outer"], ostats["outer"])
            if ostats["agg"]:
                nonlocal has_agg
                has_agg = True
            return fn

        group_fns = [compile_output_expr(g) for g in ast.group_by]
        having_fn = (compile_output_expr(ast.having)
                     if ast.having is not None else None)
        order_specs = [(compile_output_expr(e), desc)
                       for e, desc in ast.order_by]
        limit_fn = None
        if ast.limit is not None:
            # No column is visible to LIMIT, an outer one included.
            limit_fn = self.compile_expr(ast.limit, _Scope(), _new_stats())

        lookup: Dict[str, int] = {}
        for index, name in enumerate(names):
            lookup.setdefault(name, index)

        plan = self._select_cls(
            sources=source_plans,
            post_where=post,
            item_fns=item_fns,
            names=tuple(names),
            lookup=lookup,
            group_fns=group_fns,
            having_fn=having_fn,
            order_specs=order_specs,
            limit_fn=limit_fn,
            distinct=ast.distinct,
            has_agg=has_agg,
            windows=windows,
            outer_depth=stats["outer"],
            fused=(fused_positions
                   if fused_positions and not has_agg else None),
        )
        plan.xsubs = self._subs.pop()
        est = source_plans[0].est_rows if source_plans else 1.0
        if isinstance(ast.limit, sp.Lit) and isinstance(
                ast.limit.value, (int, float)):
            est = min(est, float(ast.limit.value))
        plan.est_rows = est
        return plan

    def _compile_source(self, src: sp.Source, scope: _Scope,
                        bound: List[str], position: int,
                        stats: Dict) -> "_SourcePlan":
        if src.kind == "table":
            table = self._table(src.name)
            plan = self._source_cls(src.alias, "table", src.join,
                                    table=table, columns=table.columns)
            plan.affinities = table.affinities
            plan.est_rows = float(len(table.rows))
        elif src.kind == "subquery":
            sub = self.compile_select(src.subquery, scope.parent)
            if sub.correlated:
                # The closed-dialect contract: out-of-contract SQL is a
                # loud error, not a silently wrong answer.  A correlated
                # FROM-subquery would also defeat the per-statement row
                # cache in _SourcePlan.base_rows.
                raise MemoryEngineError(
                    "correlated subquery in FROM is outside the dialect")
            plan = self._source_cls(src.alias, "subquery", src.join,
                                    subplan=sub, columns=sub.names)
            plan.est_rows = sub.est_rows
        else:  # json_each
            arg_fn = self.compile_expr(src.arg, scope, stats)
            plan = self._source_cls(src.alias, "json_each", src.join,
                                    arg_fn=arg_fn, columns=("key", "value"))
        if src.on is not None:
            scope.add(plan.alias, plan.columns, plan.affinities,
                      slot=position)  # temporarily visible for ON
            residual = []
            for conjunct in sp.split_conjuncts(src.on):
                if plan.access.label is None:
                    access = self._try_join_probe(conjunct, plan, scope,
                                                  bound, stats)
                    if access is not None:
                        plan.access = access
                        continue
                residual.append(self.compile_expr(conjunct, scope, stats))
            plan.check = _combine_filters(residual)
            scope.remove(plan.alias)  # re-added by caller in order
        return plan

    # -- probe extraction ----------------------------------------------
    def _driver_candidate(self, conjunct: Any, table: MemoryTable,
                          alias: str, scope: _Scope) -> Optional[Tuple]:
        """Recognise a WHERE conjunct that can drive the scan of
        ``alias``: ``alias.col = expr`` or ``alias.col IN (...)`` over an
        indexed column, the other side reading no row of this select and
        of an affinity that leaves the column as stored (the index holds
        stored values; see :func:`_comparison_coercions`).  An ``IN
        (SELECT ...)`` qualifies when its compiled plan references
        nothing outside itself: it runs once, before any row is bound.

        Returns ``(kind, column, estimated rows, bind)`` — the estimate
        from the live statistics (row count, per-index distinct count),
        ``bind(stats)`` compiling the payload into the access path — or
        None.  Payloads compile against the caller's ``stats`` so outer
        references keep marking the select as correlated."""
        rows = float(len(table.rows))
        if isinstance(conjunct, sp.Bin) and conjunct.op == "=":
            for col_side, other in ((conjunct.left, conjunct.right),
                                    (conjunct.right, conjunct.left)):
                column = self._own_column(col_side, alias, scope)
                if column not in table.eq_indexes \
                        or _local_aliases(other, scope):
                    continue
                if _converts_left(table.affinities[column],
                                  self._operand_affinity(other, scope)):
                    continue
                return ("eq", column, self._estimate_eq(table, column),
                        lambda stats: _lookup_access(
                            table, column,
                            self.compile_expr(other, scope, stats)))
        if not isinstance(conjunct, (sp.InList, sp.InSelect)) \
                or conjunct.negated:
            return None
        column = self._own_column(conjunct.needle, alias, scope)
        if column not in table.eq_indexes:
            return None
        eq_est = self._estimate_eq(table, column)
        if isinstance(conjunct, sp.InList):
            items = conjunct.items
            if any(_local_aliases(item, scope) for item in items):
                return None

            def bind_list(stats):
                fns = [self.compile_expr(item, scope, stats)
                       for item in items]
                return _union_access(
                    table, column, lambda rt: [fn(rt) for fn in fns])

            return ("in-list", column,
                    min(rows, eq_est * max(1, len(items))), bind_list)
        if _converts_left(table.affinities[column],
                          self._first_item_affinity(conjunct.select)):
            return None
        sub = self.compile_select(conjunct.select, scope)
        if sub.correlated:
            return None
        # One probe per distinct subquery value; the value count is
        # estimated from the subquery's first table source.
        head = sub.sources[0] if sub.sources else None
        sub_rows = (float(len(head.table.rows))
                    if head is not None and head.kind == "table" else rows)

        def bind_select(stats):
            self._register_sub("IN-SELECT DRIVER", sub)
            return _union_access(table, column, sub.first_column_values)

        return ("in-select", column, min(rows, eq_est * sub_rows),
                bind_select)

    @staticmethod
    def _is_unique_column(table: MemoryTable, column: str) -> bool:
        if table.ipk == column:
            return True
        if len(table.tdef.primary_key) == 1 \
                and table.tdef.primary_key[0] == column:
            return True
        return any(len(cols) == 1 and cols[0] == column
                   for cols in table.tdef.unique)

    def _estimate_eq(self, table: MemoryTable, column: str) -> float:
        """Expected rows of one equality lookup on ``column``."""
        return pl.estimate_eq_rows(
            len(table.rows), len(table.eq_indexes.get(column, ())),
            self._is_unique_column(table, column))

    @staticmethod
    def _own_column(node: Any, alias: str, scope: _Scope) -> Optional[str]:
        """The column's name when ``node`` is a column of ``alias``, a
        source of the select being compiled; None for anything else."""
        if not isinstance(node, sp.Col):
            return None
        try:
            depth, resolved, _slot = scope.resolve(node.table, node.name)
        except MemoryEngineError:
            return None
        return node.name if depth == 0 and resolved == alias else None

    def _try_join_probe(self, conjunct: Any, plan: "_SourcePlan",
                        scope: _Scope, bound: List[str],
                        stats: Dict) -> Optional["_Access"]:
        """ON-clause access path: `new.col = expr(bound aliases | outer)`.

        A table source is probed through its index, unless the
        comparison would convert the indexed column; a subquery source
        is hash-joined, its keys coerced instead."""
        if not (isinstance(conjunct, sp.Bin) and conjunct.op == "="):
            return None
        for col_side, other in ((conjunct.left, conjunct.right),
                                (conjunct.right, conjunct.left)):
            column = self._own_column(col_side, plan.alias, scope)
            if column is None or _local_aliases(other, scope) - set(bound):
                continue
            other_aff = self._operand_affinity(other, scope)
            if plan.kind == "table":
                if column not in plan.table.eq_indexes:
                    continue
                if _converts_left(plan.table.affinities[column], other_aff):
                    continue
                plan.est_rows = self._estimate_eq(plan.table, column)
                return _lookup_access(
                    plan.table, column,
                    self.compile_expr(other, scope, stats),
                    f"index on {column}")
            if plan.kind == "subquery":
                # The buckets are built here, so both sides can take
                # their coercion.
                co_key, co_other = _comparison_coercions(None, other_aff)
                fn = self.compile_expr(other, scope, stats)
                if co_other is not None:
                    fn = _wrap(fn, co_other)
                return _hash_access(plan, column, fn, co_key)
        return None

    # -- correlated EXISTS -> hash semi-join ---------------------------
    def _compile_semi_join(self, select: sp.Select, scope: _Scope,
                           stats: Dict) -> Optional[Tuple]:
        """Compile the decorrelated form of a correlated EXISTS.

        Returns ``(build_key_fn, probe_fn)`` — build the subquery's key
        set once, then answer each EXISTS with an O(1) set probe — or
        None when :func:`planner.decorrelate_exists` declines.  The pair
        coercions mirror ``_affinity_wrap`` so the set probe agrees with
        SQLite's comparison affinity, and key normalization keeps the
        number/text classes separate exactly as ``_sql_eq`` does.
        """
        own_columns: Dict[str, Tuple[str, ...]] = {}
        own_tables: Dict[str, MemoryTable] = {}
        for src in select.sources:
            if src.kind != "table":
                return None
            table = self.engine.tables.get(src.name)
            if table is None:
                return None
            alias = src.alias or src.name
            own_columns[alias] = table.columns
            own_tables[alias] = table
        row_counts = {alias: float(len(table.rows))
                      for alias, table in own_tables.items()}
        deco = pl.decorrelate_exists(select, own_columns, row_counts)
        if deco is None:
            return None
        build_plan = self.compile_select(deco.build_select, scope)
        if build_plan.correlated:
            return None  # safety net: residual snuck in an outer ref
        self._register_sub("SEMI-JOIN BUILD", build_plan)

        probe_parts: List[Tuple[Callable, Optional[Callable]]] = []
        build_coerces: List[Optional[Callable]] = []
        for local_expr, outer_expr in deco.pairs:
            co_local, co_outer = _comparison_coercions(
                self._select_column_affinity(select, local_expr),
                self._operand_affinity(outer_expr, scope))
            outer_fn = self.compile_expr(outer_expr, scope, stats)
            probe_parts.append((outer_fn, co_outer))
            build_coerces.append(co_local)

        if len(probe_parts) == 1:
            outer_fn, co_outer = probe_parts[0]
            co_local = build_coerces[0]

            def build_one(rt):
                return build_plan.first_column_set(rt, co_local)

            def probe_one(rt):
                value = outer_fn(rt)
                if value is None:
                    return None
                if co_outer is not None:
                    value = co_outer(value)
                return _probe_norm(value)

            return build_one, probe_one

        coerces = tuple(build_coerces)
        parts = tuple(probe_parts)

        def build_many(rt):
            return build_plan.key_tuple_set(rt, coerces)

        def probe_many(rt):
            key = []
            for outer_fn, co_outer in parts:
                value = outer_fn(rt)
                if value is None:
                    return None
                if co_outer is not None:
                    value = co_outer(value)
                key.append(_probe_norm(value))
            return tuple(key)

        return build_many, probe_many

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def compile_expr(self, node: Any, scope: _Scope, stats: Dict) -> Callable:
        if isinstance(node, sp.Lit):
            value = node.value
            return lambda rt: value
        if isinstance(node, sp.Param):
            if node.index is not None:
                index = node.index
                def param_fn(rt, _i=index):
                    if rt.seq is None:
                        raise MemoryEngineError("positional parameter "
                                                "without a sequence")
                    return rt.seq[_i]
                return param_fn
            name = node.name
            def named_fn(rt, _n=name):
                if rt.named is None or _n not in rt.named:
                    raise MemoryEngineError(f"missing named parameter :{_n}")
                return rt.named[_n]
            return named_fn
        if isinstance(node, sp.Col):
            depth, _alias, slot = scope.resolve(node.table, node.name)
            stats["outer"] = max(stats["outer"], depth)
            index = -1 - depth
            name = node.name
            def col_fn(rt, _i=index, _s=slot, _n=name):
                row = rt.frames[_i][_s]
                return row[_n] if row is not None else None
            return col_fn
        if isinstance(node, sp.Bin):
            if node.op == "AND":
                left = self.compile_expr(node.left, scope, stats)
                right = self.compile_expr(node.right, scope, stats)
                def and_fn(rt):
                    lv = left(rt)
                    if lv is not None and not _is_true(lv):
                        return 0  # FALSE AND anything = FALSE
                    rv = right(rt)
                    if rv is not None and not _is_true(rv):
                        return 0
                    if lv is None or rv is None:
                        return None
                    return 1
                return and_fn
            if node.op == "OR":
                left = self.compile_expr(node.left, scope, stats)
                right = self.compile_expr(node.right, scope, stats)
                def or_fn(rt):
                    lv = left(rt)
                    if _is_true(lv):
                        return 1  # TRUE OR anything = TRUE
                    rv = right(rt)
                    if _is_true(rv):
                        return 1
                    if lv is None or rv is None:
                        return None
                    return 0
                return or_fn
            op = _BIN_OPS.get(node.op)
            if op is None:
                raise MemoryEngineError(f"unsupported operator {node.op!r}")
            left = self.compile_expr(node.left, scope, stats)
            right = self.compile_expr(node.right, scope, stats)
            if node.op in ("=", "!=", "<", "<=", ">", ">="):
                left, right = self._affinity_wrap(node, scope, left, right)
            return lambda rt: op(left(rt), right(rt))
        if isinstance(node, sp.Un):
            operand = self.compile_expr(node.operand, scope, stats)
            if node.op == "NOT":
                def not_fn(rt):
                    value = operand(rt)
                    return None if value is None else int(not _is_true(value))
                return not_fn
            if node.op == "-":
                def neg_fn(rt):
                    value = _to_number(operand(rt))
                    return None if value is None else -value
                return neg_fn
            return operand  # unary plus: SQLite's no-op
        if isinstance(node, sp.IsNull):
            operand = self.compile_expr(node.operand, scope, stats)
            if node.negated:
                return lambda rt: int(operand(rt) is not None)
            return lambda rt: int(operand(rt) is None)
        if isinstance(node, sp.Like):
            operand = self.compile_expr(node.operand, scope, stats)
            pattern = self.compile_expr(node.pattern, scope, stats)
            negated = node.negated
            def like_fn(rt):
                result = _like_matches(operand(rt), pattern(rt))
                if result is None:
                    return None
                return int((not result) if negated else result)
            return like_fn
        if isinstance(node, sp.Case):
            whens = [(self.compile_expr(c, scope, stats),
                      self.compile_expr(v, scope, stats))
                     for c, v in node.whens]
            default = (self.compile_expr(node.default, scope, stats)
                       if node.default is not None else None)
            def case_fn(rt):
                for cond, value in whens:
                    if _is_true(cond(rt)):
                        return value(rt)
                return default(rt) if default is not None else None
            return case_fn
        if isinstance(node, sp.Cast):
            operand = self.compile_expr(node.operand, scope, stats)
            to_type = node.to_type
            def cast_fn(rt):
                value = operand(rt)
                if value is None:
                    return None
                if to_type in ("INTEGER", "INT"):
                    number = _to_number(value)
                    return int(number) if number is not None else 0
                if to_type == "REAL":
                    number = _to_number(value)
                    return float(number) if number is not None else 0.0
                if to_type == "TEXT":
                    return _to_text(value)
                return value
            return cast_fn
        if isinstance(node, sp.InList):
            needle = self.compile_expr(node.needle, scope, stats)
            members = [self.compile_expr(i, scope, stats)
                       for i in node.items]
            needle_aff = self._operand_affinity(node.needle, scope)
            if needle_aff in _NUMERIC_AFFINITIES:
                members = [_wrap(m, _coerce_numeric) for m in members]
            elif needle_aff == "TEXT":
                members = [_wrap(m, _coerce_text) for m in members]
            negated = node.negated
            def in_list_fn(rt):
                value = needle(rt)
                if value is None:
                    return None
                found = any(_is_true(_sql_eq(value, m(rt))) for m in members)
                return int((not found) if negated else found)
            return in_list_fn
        if isinstance(node, sp.InSelect):
            needle = self.compile_expr(node.needle, scope, stats)
            sub = self.compile_select(node.select, scope)
            self._register_sub("NOT-IN-SELECT" if node.negated
                               else "IN-SELECT", sub)
            stats["outer"] = max(stats["outer"], sub.outer_depth - 1)
            negated = node.negated
            # `x IN (SELECT y ...)` compares as `x = y` does.
            co_needle, coerce = _comparison_coercions(
                self._operand_affinity(node.needle, scope),
                self._first_item_affinity(node.select))
            if co_needle is not None:
                needle = _wrap(needle, co_needle)
            key = next(self._cache_keys)
            def in_select_fn(rt):
                value = needle(rt)
                if value is None:
                    return None
                if sub.correlated:
                    members = sub.first_column_set(rt, coerce)
                else:
                    members = rt.cache.get(key)
                    if members is None:
                        members = sub.first_column_set(rt, coerce)
                        rt.cache[key] = members
                found = _probe_norm(value) in members
                return int((not found) if negated else found)
            return in_select_fn
        if isinstance(node, sp.Exists):
            sub = self.compile_select(node.select, scope)
            stats["outer"] = max(stats["outer"], sub.outer_depth - 1)
            negated = node.negated
            label = "NOT-EXISTS" if negated else "EXISTS"
            key = next(self._cache_keys)
            if not sub.correlated:
                self._register_sub(label, sub)
                def exists_fn(rt):
                    found = rt.cache.get(key)
                    if found is None:
                        found = sub.any(rt)
                        rt.cache[key] = found
                    return int((not found) if negated else found)
                exists_fn._strict_bool = True
                return exists_fn
            semi = self._compile_semi_join(node.select, scope, stats)
            if semi is None:
                self._register_sub(label, sub)
                def exists_corr_fn(rt):
                    found = sub.any(rt)
                    return int((not found) if negated else found)
                exists_corr_fn._strict_bool = True
                return exists_corr_fn
            build_key_fn, probe_fn = semi
            self._register_sub(label + " PROBE", sub)
            counter_key = (key, "calls")
            def semi_fn(rt):
                members = rt.cache.get(key)
                if members is None:
                    calls = rt.cache.get(counter_key, 0)
                    if calls < _SEMI_JOIN_BUILD_AFTER:
                        rt.cache[counter_key] = calls + 1
                        found = sub.any(rt)
                        return int((not found) if negated else found)
                    members = rt.cache[key] = build_key_fn(rt)
                if not members:
                    # No subquery row has all-non-NULL keys: EXISTS is
                    # false for every probe, NULL or not.
                    return 1 if negated else 0
                probe = probe_fn(rt)
                found = probe is not None and probe in members
                return int((not found) if negated else found)
            semi_fn._strict_bool = True
            return semi_fn
        if isinstance(node, sp.ScalarSelect):
            sub = self.compile_select(node.select, scope)
            self._register_sub("SCALAR-SELECT", sub)
            stats["outer"] = max(stats["outer"], sub.outer_depth - 1)
            def scalar_fn(rt):
                rows = sub.execute(rt)
                return rows[0][0] if rows else None
            return scalar_fn
        if isinstance(node, sp.WindowFunc):
            if node.name != "ROW_NUMBER":
                raise MemoryEngineError(
                    f"unsupported window function {node.name}")
            order = [(self.compile_expr(e, scope, stats), desc)
                     for e, desc in node.order_by]
            wid = len(stats["windows"])
            stats["windows"].append(order)
            slot = stats["win_base"] + wid
            def window_fn(rt, _s=slot):
                return rt.frames[-1][_s]
            return window_fn
        if isinstance(node, sp.Func):
            return self._compile_func(node, scope, stats)
        raise MemoryEngineError(f"unsupported expression {type(node).__name__}")

    def _affinity_wrap(self, node: sp.Bin, scope: _Scope,
                       left: Callable, right: Callable):
        """Apply SQLite's comparison affinity to a compiled pair."""
        co_left, co_right = _comparison_coercions(
            self._operand_affinity(node.left, scope),
            self._operand_affinity(node.right, scope))
        if co_left is not None:
            left = _wrap(left, co_left)
        if co_right is not None:
            right = _wrap(right, co_right)
        return left, right

    def _operand_affinity(self, node: Any, scope: _Scope) -> Optional[str]:
        if isinstance(node, sp.Col):
            return scope.column_affinity(node.table, node.name)
        return None

    def _select_column_affinity(self, select: sp.Select,
                                expr: Any) -> Optional[str]:
        """Affinity of ``expr`` when it names a column of one of
        ``select``'s own table sources; None for anything else."""
        if not isinstance(expr, sp.Col):
            return None
        for src in select.sources:
            table = (self.engine.tables.get(src.name)
                     if src.kind == "table" else None)
            if table is None:
                continue
            if expr.table == (src.alias or src.name) or (
                    expr.table is None and expr.name in table.columns):
                return table.affinities.get(expr.name)
        return None

    def _first_item_affinity(self, select: sp.Select) -> Optional[str]:
        """Affinity of the values ``x IN (SELECT y ...)`` compares with."""
        return self._select_column_affinity(select, select.items[0].expr)

    def _compile_func(self, node: sp.Func, scope: _Scope,
                      stats: Dict) -> Callable:
        name = node.name
        if name not in sp.AGGREGATES:
            raise MemoryEngineError(f"unsupported function {name}")
        stats["agg"] = True
        if node.star:
            if name != "COUNT":
                raise MemoryEngineError(f"{name}(*) is not supported")
            def count_star(rt):
                return len(rt.group) if rt.group is not None else 0
            return count_star
        if len(node.args) != 1:
            raise MemoryEngineError(f"{name} takes one argument")
        arg = self.compile_expr(node.args[0], scope, stats)
        distinct = node.distinct

        def gather(rt):
            group = rt.group if rt.group is not None else []
            frames = rt.frames
            saved = frames[-1]
            values = []
            try:
                for env in group:
                    frames[-1] = env
                    value = arg(rt)
                    if value is not None:
                        values.append(value)
            finally:
                frames[-1] = saved
            if distinct:
                seen, unique = set(), []
                for value in values:
                    marker = _probe_norm(value)
                    if marker not in seen:
                        seen.add(marker)
                        unique.append(value)
                return unique
            return values

        if name == "COUNT":
            return lambda rt: len(gather(rt))
        if name == "SUM":
            def sum_fn(rt):
                values = [_to_number(v) for v in gather(rt)]
                if not values:
                    return None
                total = sum(values)
                if all(isinstance(v, int) for v in values):
                    return int(total)
                return float(total)
            return sum_fn
        if name == "TOTAL":
            return lambda rt: float(sum(_to_number(v) for v in gather(rt)))
        if name == "AVG":
            def avg_fn(rt):
                values = [_to_number(v) for v in gather(rt)]
                if not values:
                    return None
                return sum(values) / len(values)
            return avg_fn
        if name == "MIN":
            def min_fn(rt):
                values = gather(rt)
                return min(values, key=sql_sort_key) if values else None
            return min_fn
        def max_fn(rt):
            values = gather(rt)
            return max(values, key=sql_sort_key) if values else None
        return max_fn


def _new_stats(windows: Optional[List] = None,
               win_base: int = 0) -> Dict[str, Any]:
    # "outer" is the maximum frame depth any compiled reference reaches,
    # relative to the current select (0 = local only).  A nested
    # subquery's depth-1 references resolve to *this* select's frame, so
    # crossing a select boundary decrements the depth by one — only
    # depth >= 1 after that still escapes this select.
    # "win_base" is the first window slot in the flat environment list:
    # source rows occupy slots [0, len(sources)), window values follow.
    return {"agg": False, "outer": 0, "win_base": win_base,
            "windows": [] if windows is None else windows}


def _wrap(fn: Callable, coerce: Callable) -> Callable:
    return lambda rt: coerce(fn(rt))


#: Affinities that pull text operands to numbers in comparisons.
_NUMERIC_AFFINITIES = ("INTEGER", "REAL", "NUMERIC")


def _comparison_coercions(left_aff: Optional[str],
                          right_aff: Optional[str]) -> Tuple:
    """SQLite comparison affinity as ``(coerce left, coerce right)``, at
    most one of them set: a numeric-affinity column pulls a text
    comparand to a number; a TEXT column pulls an affinity-less numeric
    comparand to text."""
    if left_aff in _NUMERIC_AFFINITIES:
        if right_aff not in _NUMERIC_AFFINITIES:
            return None, _coerce_numeric
    elif right_aff in _NUMERIC_AFFINITIES:
        return _coerce_numeric, None
    elif left_aff == "TEXT" and right_aff is None:
        return None, _coerce_text
    elif right_aff == "TEXT" and left_aff is None:
        return _coerce_text, None
    return None, None


def _converts_left(left_aff: Optional[str], right_aff: Optional[str]) -> bool:
    """Would comparing convert the left operand?  Then an index over its
    stored values cannot answer the comparison."""
    return _comparison_coercions(left_aff, right_aff)[0] is not None


def _coerce_numeric(value: Any) -> Any:
    """SQLite comparison affinity: text compared to a numeric column is
    converted to a number when well-formed."""
    if isinstance(value, str):
        number = _numeric_from_text(value)
        return number if number is not None else value
    return value


def _coerce_text(value: Any) -> Any:
    """TEXT affinity applied to an affinity-less comparison operand."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return value


def _probe_norm(value: Any) -> Any:
    if isinstance(value, bool):
        return float(int(value))
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _local_aliases(node: Any, scope: _Scope) -> set:
    """Depth-0 aliases ``node`` may reference, subqueries included.  A
    bare name inside a subquery is resolved in ``scope`` too, so the set
    can only be too large — which costs a probe, never an answer."""
    found: set = set()
    for n in sp.walk(node):
        if isinstance(n, sp.Col):
            try:
                depth, alias, _slot = scope.resolve(n.table, n.name)
            except MemoryEngineError:
                continue
            if depth == 0:
                found.add(alias)
    return found


# ----------------------------------------------------------------------
# execution plans
# ----------------------------------------------------------------------

class _Access:
    """One access path, bound at compile time: how a FROM source — or
    the target of an UPDATE/DELETE — produces its candidates.

    ``rows(rt)`` returns the candidate rows in key order, ``keys(rt)``
    their row keys (drivers only; DML matches by key).  ``label`` is the
    EXPLAIN annotation, None for a plain scan.  ``eq`` is ``(table,
    column, value fn)`` when the path is a single equality lookup in an
    index: the scheduling pass's nested loop and EXISTS go to the index
    with it directly.
    """

    __slots__ = ("rows", "keys", "label", "eq")

    def __init__(self, rows: Optional[Callable] = None,
                 keys: Optional[Callable] = None,
                 label: Optional[str] = None,
                 eq: Optional[Tuple] = None):
        self.rows = rows
        self.keys = keys
        self.label = label
        self.eq = eq


def _lookup_access(table: MemoryTable, column: str, fn: Callable,
                   label: Optional[str] = None) -> _Access:
    """One equality lookup in ``table``'s index on ``column``."""
    probe_rows, probe = table.probe_rows, table.probe
    return _Access(lambda rt: probe_rows(column, fn(rt)),
                   lambda rt: probe(column, fn(rt)),
                   label, (table, column, fn))


def _union_access(table: MemoryTable, column: str,
                  values: Callable) -> _Access:
    """One lookup per non-NULL value of ``values(rt)``, merged in key
    order (``col IN (...)``)."""
    probe = table.probe

    def keys(rt):
        found = set()
        for value in values(rt):
            if value is not None:
                found.update(probe(column, value))
        return sorted(found)

    def rows(rt):
        table_rows = table.rows
        return [table_rows[key] for key in keys(rt)]

    return _Access(rows, keys)


def _hash_access(src: "_SourcePlan", column: str, fn: Callable,
                 coerce: Optional[Callable]) -> _Access:
    """Hash join over a materialized source: ``src``'s rows bucketed by
    ``column`` once per execution, then one bucket per ``fn(rt)``."""
    cache_key = (id(src), "hash")

    def rows(rt):
        buckets = rt.cache.get(cache_key)
        if buckets is None:
            buckets = {}
            for row in src.base_rows(rt):
                key = row[column]
                if key is None:
                    continue
                if coerce is not None:
                    key = coerce(key)
                buckets.setdefault(_probe_norm(key), []).append(row)
            rt.cache[cache_key] = buckets
        value = fn(rt)
        if value is None:
            return []
        return buckets.get(_probe_norm(value), [])

    return _Access(rows, label=f"build key {column}")


class _SourcePlan:
    """One FROM source with its access path (scan / index / hash)."""

    def __init__(self, alias: str, kind: str, join: str,
                 table: Optional[MemoryTable] = None,
                 subplan: Optional["_SelectPlan"] = None,
                 arg_fn: Optional[Callable] = None,
                 columns: Tuple[str, ...] = ()):
        self.alias = alias
        self.kind = kind
        self.join = join
        self.table = table
        self.subplan = subplan
        self.arg_fn = arg_fn
        self.columns = columns
        self.affinities: Optional[Dict[str, str]] = None
        #: WHERE driver (first source) or ON probe (joined source);
        #: until the compiler binds one, a scan
        self.access = _Access(self.base_rows)
        #: what the access path left over: the pushed-down WHERE
        #: conjuncts on the first source, the rest of ON on a joined one
        self.check: Optional[Callable] = None
        self.est_rows: Optional[float] = None    # advisory, compile-time

    # -- row production -------------------------------------------------
    def base_rows(self, rt: _Rt) -> List[Dict[str, Any]]:
        if self.kind == "table":
            rows = self.table.rows
            return [rows[key] for key in self.table.scan_keys()]
        if self.kind == "subquery":
            cache_key = (id(self), "rows")
            cached = rt.cache.get(cache_key)
            if cached is None:
                result = self.subplan.execute(rt)
                cached = [dict(zip(self.subplan.names, row._values))
                          for row in result]
                rt.cache[cache_key] = cached
            return cached
        # json_each
        payload = self.arg_fn(rt)
        if payload is None:
            return []
        values = json.loads(payload) if isinstance(payload, str) else payload
        return [{"key": index, "value": value}
                for index, value in enumerate(values)]

    def rows(self, rt: _Rt) -> List[Dict[str, Any]]:
        """Candidate rows given the frames bound so far."""
        return self.access.rows(rt)


def _make_sort_key(fns: Tuple[Callable, ...]) -> Callable:
    """A closure computing the full ORDER BY key tuple for the current
    environment (specialized for the common 1- and 2-key shapes)."""
    if len(fns) == 1:
        f0 = fns[0]
        return lambda rt: (sql_sort_key(f0(rt)),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda rt: (sql_sort_key(f0(rt)), sql_sort_key(f1(rt)))
    return lambda rt: tuple(sql_sort_key(fn(rt)) for fn in fns)


def _order_by(items: List[Any], keys_of: Callable,
              descs: Sequence[bool]) -> None:
    """ORDER BY, in place: ``keys_of(item)`` is the item's tuple of sort
    keys, ``descs`` each key's direction.  One stable pass per key, the
    last key first, so ties keep stream order as SQLite's do."""
    for position in range(len(descs) - 1, -1, -1):
        items.sort(key=lambda item, _p=position: keys_of(item)[_p],
                   reverse=descs[position])


class _SelectPlan:
    """A compiled SELECT: row pipeline + projection.

    Runtime environments are flat lists: slots ``[0, len(sources))``
    hold the current row dict per source (None under an unmatched LEFT
    JOIN), slots ``[win_base, win_base + len(windows))`` hold computed
    window values.  A compiled column reference is therefore two list
    indexings and one dict lookup — no per-row dict allocation.
    """

    def __init__(self, sources, post_where, item_fns, names, lookup,
                 group_fns, having_fn, order_specs, limit_fn, distinct,
                 has_agg, windows, outer_depth, fused=None):
        self.sources = sources
        self.post_where = post_where
        self.where_check = _combine_filters(post_where)
        self.item_fns = item_fns
        self.names = names
        self.lookup = lookup
        self.group_fns = group_fns
        self.having_fn = having_fn
        self.order_specs = order_specs
        self.limit_fn = limit_fn
        self.distinct = distinct
        self.has_agg = has_agg
        self.windows = windows
        self.outer_depth = outer_depth
        self.win_base = len(sources)
        self.env_width = len(sources) + len(windows)
        #: item positions whose ROW_NUMBER fuses with the final sort
        #: (rank == output position); None -> general path
        self.fused = fused
        self.est_rows: Optional[float] = None
        self.xsubs: List[Tuple[str, "_SelectPlan"]] = []
        #: references escape this select's own frame
        self.correlated = outer_depth >= 1
        self._needs_buffer = bool(
            windows or group_fns or has_agg or order_specs or distinct
        )
        self._order_descs = tuple(desc for _, desc in order_specs)
        self._order_key = _make_sort_key(tuple(fn for fn, _ in order_specs))
        if fused:
            fused_set = set(fused)
            self._plain_items = tuple(
                (index, fn) for index, fn in enumerate(item_fns)
                if index not in fused_set)

    # -- env production -------------------------------------------------
    def _stream(self, rt: _Rt):
        env: List[Any] = [None] * self.env_width
        rt.frames.append(env)
        try:
            if not self.sources:
                yield env
                return
            yield from self._level(0, env, rt)
        finally:
            rt.frames.pop()

    def _level(self, index: int, env: List[Any], rt: _Rt):
        src = self.sources[index]
        last = index == len(self.sources) - 1
        check = src.check
        matched = False
        for row in src.rows(rt):
            env[index] = row
            if check is None or check(rt):
                matched = True
                if last:
                    yield env
                else:
                    yield from self._level(index + 1, env, rt)
        if not matched and src.join == "left":
            env[index] = None
            if last:
                yield env
            else:
                yield from self._level(index + 1, env, rt)

    def _limit(self, rt: _Rt) -> Optional[int]:
        if self.limit_fn is None:
            return None
        value = self.limit_fn(rt)
        if value is None:
            return None
        value = int(value)
        return None if value < 0 else value

    # -- execution ------------------------------------------------------
    def execute(self, rt: _Rt) -> List[MemoryRow]:
        limit = self._limit(rt)
        if self.fused is not None:
            return self._execute_fused(rt, limit)
        if not self._needs_buffer:
            outputs: List[MemoryRow] = []
            if limit == 0:
                return outputs
            check = self.where_check
            stream = self._stream(rt)
            for env in stream:
                if check is not None and not check(rt):
                    continue
                values = tuple(fn(rt) for fn in self.item_fns)
                outputs.append(MemoryRow(self.names, values, self.lookup))
                if limit is not None and len(outputs) >= limit:
                    stream.close()
                    break
            return outputs

        check = self.where_check
        envs: List[List[Any]] = []
        for env in self._stream(rt):
            if check is None or check(rt):
                envs.append(env.copy())
        self._apply_windows(envs, rt)

        decorated: List[Tuple[Tuple, List]] = []  # (values, order keys)
        if self.group_fns or self.has_agg:
            decorated = self._grouped_outputs(envs, rt)
        else:
            for env in envs:
                rt.frames.append(env)
                try:
                    values = tuple(fn(rt) for fn in self.item_fns)
                    keys = self._order_key(rt)
                finally:
                    rt.frames.pop()
                decorated.append((values, keys))

        if self.distinct:
            seen = set()
            unique = []
            for values, keys in decorated:
                marker = tuple(sql_sort_key(v) for v in values)
                if marker not in seen:
                    seen.add(marker)
                    unique.append((values, keys))
            decorated = unique

        _order_by(decorated, itemgetter(1), self._order_descs)

        if limit is not None:
            decorated = decorated[:limit]
        return [MemoryRow(self.names, values, self.lookup)
                for values, _ in decorated]

    def _execute_fused(self, rt: _Rt, limit: Optional[int]
                       ) -> List[MemoryRow]:
        """Single-sort path for ROW_NUMBER windows fused with the outer
        ORDER BY: rank == output position, so environments are never
        buffered — each streamed row reduces to (sort key, values)."""
        if limit == 0:
            return []
        check = self.where_check
        key_of = self._order_key
        plain = self._plain_items
        width = len(self.item_fns)
        decorated: List[Tuple[Tuple, List[Any]]] = []
        append = decorated.append
        sources = self.sources
        eq = (sources[1].access.eq
              if len(sources) == 2 and sources[1].join == "inner" else None)
        if eq is not None:
            # The scheduling pass's shape — a driven source, one inner
            # index-probe join — runs as a plain nested loop with the
            # lookup bound inside it: no generator resumption and no
            # access-path dispatch per candidate row.
            table, probe_col, probe_fn = eq
            probe_rows = table.probe_rows
            first = sources[0]
            first_check = first.check
            second_check = sources[1].check
            solo = plain[0] if len(plain) == 1 else None
            env: List[Any] = [None] * self.env_width
            rt.frames.append(env)
            try:
                for row in first.rows(rt):
                    env[0] = row
                    if first_check is not None and not first_check(rt):
                        continue
                    for joined in probe_rows(probe_col, probe_fn(rt)):
                        env[1] = joined
                        if second_check is not None and \
                                not second_check(rt):
                            continue
                        if check is not None and not check(rt):
                            continue
                        values = [None] * width
                        if solo is not None:
                            values[solo[0]] = solo[1](rt)
                        else:
                            for index, fn in plain:
                                values[index] = fn(rt)
                        append((key_of(rt), values))
            finally:
                rt.frames.pop()
        else:
            for _env in self._stream(rt):
                if check is not None and not check(rt):
                    continue
                values = [None] * width
                for index, fn in plain:
                    values[index] = fn(rt)
                append((key_of(rt), values))
        descs = self._order_descs
        if limit is not None and not any(descs):
            # Top-K selection; nsmallest is stable (equivalent to
            # sorted(...)[:k]), so ties keep stream order exactly
            # like the general path's stable sorts.
            decorated = heapq.nsmallest(limit, decorated, key=itemgetter(0))
        else:
            _order_by(decorated, itemgetter(0), descs)
            if limit is not None:
                decorated = decorated[:limit]
        fused = self.fused
        names, lookup = self.names, self.lookup
        outputs = []
        for rank, (_key, values) in enumerate(decorated, start=1):
            for position in fused:
                values[position] = rank
            outputs.append(MemoryRow(names, tuple(values), lookup))
        return outputs

    def _apply_windows(self, envs: List[List[Any]], rt: _Rt) -> None:
        win_base = self.win_base
        for wid, order in enumerate(self.windows):
            key_of = _make_sort_key(tuple(fn for fn, _ in order))
            keyed: List[Tuple] = []
            for env in envs:
                rt.frames.append(env)
                try:
                    keyed.append(key_of(rt))
                finally:
                    rt.frames.pop()
            ranked = list(range(len(envs)))
            _order_by(ranked, keyed.__getitem__,
                      [desc for _, desc in order])
            for rank, env_index in enumerate(ranked, start=1):
                envs[env_index][win_base + wid] = rank

    def _grouped_outputs(self, envs, rt: _Rt):
        groups: Dict[Tuple, List[List[Any]]] = {}
        for env in envs:
            rt.frames.append(env)
            try:
                key = tuple(sql_sort_key(fn(rt)) for fn in self.group_fns)
            finally:
                rt.frames.pop()
            groups.setdefault(key, []).append(env)
        if not self.group_fns and not groups:
            groups[()] = []  # aggregate over an empty relation
        decorated = []
        for key in sorted(groups):
            members = groups[key]
            head = members[0] if members else [None] * self.env_width
            rt.frames.append(head)
            rt.group = members
            try:
                if self.having_fn is not None and \
                        not _is_true(self.having_fn(rt)):
                    continue
                values = tuple(fn(rt) for fn in self.item_fns)
                keys = self._order_key(rt)
            finally:
                rt.group = None
                rt.frames.pop()
            decorated.append((values, keys))
        return decorated

    # -- auxiliary entry points ----------------------------------------
    def first_column_values(self, rt: _Rt) -> List[Any]:
        return [row[0] for row in self.execute(rt)]

    def first_column_set(self, rt: _Rt,
                         coerce: Optional[Callable] = None) -> frozenset:
        values = self.first_column_values(rt)
        if coerce is not None:
            values = [coerce(value) for value in values]
        return frozenset(
            _probe_norm(value) for value in values if value is not None
        )

    def key_tuple_set(self, rt: _Rt,
                      coerces: Sequence[Optional[Callable]]) -> frozenset:
        """Normalized key tuples over the first len(coerces) columns,
        dropping rows with any NULL key (semi-join build side)."""
        result = set()
        for row in self.execute(rt):
            key = []
            for index, coerce in enumerate(coerces):
                value = row[index]
                if value is None:
                    break
                if coerce is not None:
                    value = coerce(value)
                key.append(_probe_norm(value))
            else:
                result.add(tuple(key))
        return frozenset(result)

    def any(self, rt: _Rt) -> bool:
        if self._needs_buffer or self.limit_fn is not None:
            return bool(self.execute(rt))
        check = self.where_check
        sources = self.sources
        if check is None and len(sources) == 1:
            # EXISTS over one equality lookup is the index's to answer.
            src = sources[0]
            if src.access.eq is not None and src.check is None:
                table, column, fn = src.access.eq
                rt.frames.append([None] * self.env_width)
                try:
                    return table.has(column, fn(rt))
                finally:
                    rt.frames.pop()
        stream = self._stream(rt)
        for _env in stream:
            if check is None or check(rt):
                stream.close()
                return True
        return False


class _SelectStatement:
    kind = "select"

    def __init__(self, plan: _SelectPlan):
        self.plan = plan

    def run(self, engine: "MemoryStorageEngine", rt: _Rt) -> MemoryCursor:
        rows = self.plan.execute(rt)
        return MemoryCursor(rows=rows, rowcount=-1)


class _InsertPlan:
    kind = "insert"

    def __init__(self, table: MemoryTable, columns: List[str],
                 value_fns: Optional[List[Callable]] = None,
                 select: Optional[_SelectPlan] = None,
                 or_ignore: bool = False):
        self.table = table
        self.columns = columns
        self.value_fns = value_fns
        self.select = select
        self.or_ignore = or_ignore

    def run(self, engine: "MemoryStorageEngine", rt: _Rt) -> MemoryCursor:
        if self.value_fns is not None:
            batches = [[fn(rt) for fn in self.value_fns]]
        else:
            # materialize fully before writing: the SELECT may read the
            # target table (the scheduling pass inserts into `matches`
            # while anti-joining against it)
            batches = [list(row) for row in self.select.execute(rt)]
        inserted = 0
        lastrowid = None
        for values in batches:
            count, rowid = engine._insert_row(
                self.table, self.columns, values, self.or_ignore)
            inserted += count
            if rowid is not None:
                lastrowid = rowid
        return MemoryCursor(rowcount=inserted, lastrowid=lastrowid)


class _KeyedDml:
    """UPDATE/DELETE: match row keys through the access path and the
    remaining filters, then mutate."""

    def __init__(self, table: MemoryTable, access: _Access,
                 filters: List[Callable], est_rows: float):
        self.table = table
        self.access = access
        self.check = _combine_filters(filters)
        self.est_rows = est_rows

    def _matched_keys(self, rt: _Rt) -> List[Any]:
        env: List[Any] = [None]
        rt.frames.append(env)
        check = self.check
        try:
            keys = self.access.keys(rt)
            if check is None:
                return list(keys)
            matched = []
            rows = self.table.rows
            for key in keys:
                env[0] = rows[key]
                if check(rt):
                    matched.append(key)
            return matched
        finally:
            rt.frames.pop()


class _UpdatePlan(_KeyedDml):
    kind = "update"

    def __init__(self, table: MemoryTable,
                 sets: List[Tuple[str, Callable]], *where):
        super().__init__(table, *where)
        self.sets = sets

    def run(self, engine: "MemoryStorageEngine", rt: _Rt) -> MemoryCursor:
        table = self.table
        matched = self._matched_keys(rt)
        env: List[Any] = [None]
        rt.frames.append(env)
        try:
            for key in matched:
                env[0] = table.rows[key]
                changes = {col: fn(rt) for col, fn in self.sets}
                engine._update_row(table, key, changes)
        finally:
            rt.frames.pop()
        return MemoryCursor(rowcount=len(matched))


class _DeletePlan(_KeyedDml):
    kind = "delete"

    def run(self, engine: "MemoryStorageEngine", rt: _Rt) -> MemoryCursor:
        matched = self._matched_keys(rt)
        for key in matched:
            engine._delete_key(self.table, key)
        return MemoryCursor(rowcount=len(matched))


# ----------------------------------------------------------------------
# profiled plan nodes and the EXPLAIN tree
# ----------------------------------------------------------------------

class _Profiled:
    """Per-operator row/loop/time accounting, mixed into the plan
    classes ``explain`` compiles — cached hot plans stay uninstrumented,
    so profiling has zero cost on the serving path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prof = {"rows": 0, "loops": 0, "seconds": 0.0}

    def _timed(self, operator: Callable, rt: _Rt) -> Any:
        start = time.perf_counter()
        result = operator(rt)
        prof = self.prof
        prof["seconds"] += time.perf_counter() - start
        prof["loops"] += 1
        prof["rows"] += result if isinstance(result, bool) else len(result)
        return result


class _ProfiledSourcePlan(_Profiled, _SourcePlan):
    def rows(self, rt: _Rt) -> List[Dict[str, Any]]:
        return self._timed(super().rows, rt)


class _ProfiledSelectPlan(_Profiled, _SelectPlan):
    def execute(self, rt: _Rt) -> List[MemoryRow]:
        return self._timed(super().execute, rt)

    def any(self, rt: _Rt) -> bool:
        return self._timed(super().any, rt)


def _attach_profile(node: "pl.PlanNode", plan: Any) -> None:
    prof = getattr(plan, "prof", None)
    if prof and prof["loops"]:
        node.actual_rows = prof["rows"]
        node.actual_loops = prof["loops"]
        node.seconds = prof["seconds"]


def _source_node(src: _SourcePlan) -> "pl.PlanNode":
    path = src.access.label
    if src.kind == "table":
        name = src.table.name
        label = name if name == src.alias else f"{name} AS {src.alias}"
        if path is not None:
            node = pl.PlanNode(op="PROBE", detail=f"{label} ({path})",
                               est_rows=src.est_rows)
        else:
            node = pl.PlanNode(op="SCAN", detail=label,
                               est_rows=src.est_rows)
    elif src.kind == "subquery":
        if path is not None:
            node = pl.PlanNode(op="HASH-JOIN",
                               detail=f"{src.alias} ({path})",
                               est_rows=src.est_rows)
        else:
            node = pl.PlanNode(op="SUBQUERY", detail=src.alias,
                               est_rows=src.est_rows)
        node.children.append(_select_node(src.subplan, "SELECT"))
    else:
        node = pl.PlanNode(op="JSON-EACH", detail=src.alias)
    _attach_profile(node, src)
    return node


def _select_node(plan: _SelectPlan, label: str = "SELECT") -> "pl.PlanNode":
    node = pl.PlanNode(op=label, est_rows=plan.est_rows)
    for src in plan.sources:
        node.children.append(_source_node(src))
    if plan.fused:
        node.children.append(pl.PlanNode(
            op="TOPK-SORT",
            detail="ROW_NUMBER fused with ORDER BY/LIMIT"))
    elif plan.order_specs:
        node.children.append(pl.PlanNode(
            op="SORT", detail=f"{len(plan.order_specs)} key(s)"))
    if plan.group_fns or plan.has_agg:
        node.children.append(pl.PlanNode(op="AGGREGATE"))
    for sub_label, subplan in plan.xsubs:
        node.children.append(_select_node(subplan, sub_label))
    _attach_profile(node, plan)
    return node


def _statement_node(plan: Any) -> "pl.PlanNode":
    if plan.kind == "select":
        root = pl.PlanNode(op="STATEMENT", detail="SELECT")
        root.children.append(_select_node(plan.plan))
        return root
    if plan.kind == "insert":
        root = pl.PlanNode(op="STATEMENT", detail="INSERT")
        node = pl.PlanNode(op="INSERT", detail=plan.table.name)
        if plan.select is not None:
            node.children.append(_select_node(plan.select, "FROM SELECT"))
        root.children.append(node)
    else:
        verb = plan.kind.upper()
        root = pl.PlanNode(op="STATEMENT", detail=verb)
        node = pl.PlanNode(
            op=verb,
            detail=f"{plan.table.name} ({plan.access.label or 'scan'})",
            est_rows=plan.est_rows)
        root.children.append(node)
    for sub_label, subplan in plan.xsubs:
        root.children.append(_select_node(subplan, sub_label))
    return root


class _FailedPlan:
    """Poisoned statement-cache plan for statements that fail to compile.

    SQLite defers compilation to execute time, so its statement cache
    admits an entry for a bad statement and the error surfaces from the
    raw execute.  Caching the failure keeps the engines' caches (and
    their eviction counts in :class:`StatementCounts`) identical by
    construction; re-raising at execute time keeps the error surface."""

    kind = "error"

    def __init__(self, error: Exception):
        self.error = error


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class MemoryStorageEngine(StorageEngine):
    """Dict-backed storage engine interpreting the access-layer dialect.

    ``path`` is accepted for interface parity and ignored — the store is
    always in-process memory.
    """

    name = "memory"
    INTEGRITY_ERRORS = (MemoryIntegrityError,)
    ENGINE_ERRORS = (MemoryEngineError, MemoryIntegrityError,
                     sp.SqlSyntaxError)

    def __init__(self, path: str = ":memory:", statement_cache_size: int = 128):
        self._init_accounting(statement_cache_size)
        self.tables: Dict[str, MemoryTable] = {
            tdef.name: MemoryTable(tdef) for tdef in TABLE_DEFS
        }
        #: parent table -> [(child table name, fk)] for delete actions
        self.children: Dict[str, List[Tuple[str, Any]]] = {}
        for tdef in TABLE_DEFS:
            for fk in tdef.foreign_keys:
                self.children.setdefault(fk.ref_table, []).append(
                    (tdef.name, fk))
        self._compiler = _Compiler(self)
        self._undo: Optional[List[Tuple]] = None
        #: Redo collection point for durability layers: when a subclass
        #: sets this to a list, every applied mutation appends its
        #: row-level redo entry (``("ins", table, key, row)`` /
        #: ``("upd", table, key, new_row)`` / ``("del", table, key)``)
        #: in apply order — exactly what a write-ahead log must frame to
        #: reproduce the statement's effect without re-executing SQL.
        self._redo: Optional[List[Tuple]] = None

    # ------------------------------------------------------------------
    # statement execution (raw hooks for the accounted base class)
    # ------------------------------------------------------------------
    def _compile_plan(self, sql: str) -> Any:
        """Compile ``sql`` for its statement-cache entry (base class hook).

        Compile *errors* are cached too (see :class:`_FailedPlan`) so
        the cache contents — and with them the eviction counters — stay
        identical to SQLite's, which admits a cache entry before its
        deferred native compile fails at execute time."""
        try:
            return self._compiler.compile(sp.parse(sql))
        except self.ENGINE_ERRORS as exc:  # surfaces from _execute_raw
            return _FailedPlan(exc)

    def _make_rt(self, params: Any) -> _Rt:
        if isinstance(params, dict):
            return _Rt(None, params)
        return _Rt(list(params), None)

    def _run_statement(self, plan: Any, params: Any) -> MemoryCursor:
        """Run one statement with statement-level atomicity."""
        outer = self._undo
        self._undo = []
        try:
            cursor = plan.run(self, self._make_rt(params))
        except Exception:
            self._replay(self._undo)
            self._undo = outer
            raise
        entries = self._undo
        self._undo = outer
        if outer is not None:
            outer.extend(entries)
        return cursor

    def _resolve_plan(self, sql: str, plan: Any) -> Any:
        if plan is None:  # uncached call path (statement cache bypassed)
            plan = self._compile_plan(sql)
        if isinstance(plan, _FailedPlan):
            raise plan.error
        return plan

    def _execute_raw(self, sql: str, params: Sequence[Any],
                     plan: Any = None) -> MemoryCursor:
        return self._run_statement(self._resolve_plan(sql, plan), params)

    def _executemany_raw(self, sql: str, rows: Sequence[Sequence[Any]],
                         plan: Any = None) -> MemoryCursor:
        plan = self._resolve_plan(sql, plan)
        total = 0
        lastrowid = None
        for params in rows:
            cursor = self._run_statement(plan, params)
            if cursor.rowcount > 0:
                total += cursor.rowcount
            if cursor.lastrowid is not None:
                lastrowid = cursor.lastrowid
        rowcount = total if plan.kind != "select" else -1
        return MemoryCursor(rowcount=rowcount, lastrowid=lastrowid)

    def run_script(self, statements: Sequence[str]) -> None:
        """DDL is a no-op: the schema is built from ``TABLE_DEFS``."""

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def explain(self, sql: str, params: Sequence[Any] = None
                ) -> "pl.ExplainReport":
        """The planner's chosen tree for ``sql``; uncounted.

        With ``params`` the statement runs freshly compiled with
        profiled plan nodes, filling actual row counts and per-operator
        timings.  DML executes inside an undo sandbox that is always
        rolled back, so profiling is side-effect free."""
        compiler = _Compiler(self, profiled=True)
        plan = compiler.compile(sp.parse(sql))
        if params is not None:
            outer = self._undo
            self._undo = []
            try:
                plan.run(self, self._make_rt(params))
            finally:
                self._replay(self._undo)
                self._undo = outer
        return pl.ExplainReport(sql=sql, engine=self.name,
                                root=_statement_node(plan))

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        if self._undo is not None:
            raise MemoryEngineError("transaction already open")
        self._undo = []

    def _commit_raw(self) -> None:
        self._undo = None

    def _rollback_raw(self) -> None:
        if self._undo is not None:
            self._replay(self._undo)
        self._undo = None

    def _replay(self, entries: List[Tuple]) -> None:
        for entry in reversed(entries):
            action = entry[0]
            if action == "insert":
                _, table, key = entry
                table.raw_delete(key)
            elif action == "delete":
                _, table, key, row = entry
                table.raw_insert(key, row)
            elif action == "update":
                _, table, key, old = entry
                table.raw_update(key, old)
            else:  # autoinc
                _, table, old_next = entry
                table.autoinc_next = old_next

    def close(self) -> None:
        """Nothing to release; kept for interface parity."""

    # ------------------------------------------------------------------
    # constraint-enforcing mutations
    # ------------------------------------------------------------------
    def _insert_row(self, table: MemoryTable, columns: List[str],
                    values: List[Any], or_ignore: bool
                    ) -> Tuple[int, Optional[int]]:
        tdef = table.tdef
        provided = dict(zip(columns, values))
        row: Dict[str, Any] = {}
        for col in tdef.columns:
            if col.name in provided:
                row[col.name] = apply_affinity(provided[col.name], col.affinity)
            elif col.has_default:
                row[col.name] = apply_affinity(col.default, col.affinity)
            else:
                row[col.name] = None
        rowkey: Any = None
        if table.ipk:
            pk = row[table.ipk]
            if pk is not None:
                if not isinstance(pk, int):
                    raise MemoryIntegrityError(
                        f"datatype mismatch: {table.name}.{table.ipk}")
                rowkey = pk
        elif not tdef.rowid:
            rowkey = tuple(row[c] for c in tdef.primary_key)
        try:
            table.check_row_constraints(row)
        except MemoryIntegrityError:
            if or_ignore:
                return 0, None
            raise
        conflict = None
        if rowkey is not None and rowkey in table.rows:
            conflict = (f"UNIQUE constraint failed: {table.name}."
                        f"{', '.join(tdef.primary_key)}")
        if conflict is None:
            conflict = table.unique_conflict(row)
        if conflict is not None:
            if or_ignore:
                return 0, None
            raise MemoryIntegrityError(conflict)
        # OR IGNORE does not suppress foreign-key violations (SQLite).
        self._check_fks(table, row, None)
        if rowkey is None:
            rowkey = table.next_rowid()
            if table.ipk:
                row[table.ipk] = rowkey
        if tdef.autoincrement and isinstance(rowkey, int):
            if self._undo is not None:
                self._undo.append(("autoinc", table, table.autoinc_next))
            table.autoinc_next = max(table.autoinc_next, rowkey + 1)
        table.raw_insert(rowkey, row)
        if self._undo is not None:
            self._undo.append(("insert", table, rowkey))
        if self._redo is not None:
            self._redo.append(("ins", table.name, rowkey, row))
        return 1, (rowkey if isinstance(rowkey, int) else None)

    def _update_row(self, table: MemoryTable, key: Any,
                    changes: Dict[str, Any]) -> None:
        tdef = table.tdef
        old = table.rows[key]
        new = dict(old)
        for column, value in changes.items():
            new[column] = apply_affinity(value, tdef.column(column).affinity)
        for pk_col in tdef.primary_key:
            if new[pk_col] != old[pk_col]:
                raise MemoryEngineError(
                    f"updating primary key {table.name}.{pk_col} "
                    "is outside the dialect")
        table.check_row_constraints(new)
        conflict = table.unique_conflict(new, exclude_key=key)
        if conflict is not None:
            raise MemoryIntegrityError(conflict)
        self._check_fks(table, new, old)
        table.raw_update(key, new)
        if self._undo is not None:
            self._undo.append(("update", table, key, old))
        if self._redo is not None:
            self._redo.append(("upd", table.name, key, new))

    def _delete_key(self, table: MemoryTable, key: Any) -> None:
        if key not in table.rows:
            return  # already removed by a cascade in this statement
        row = table.rows[key]
        for child_name, fk in self.children.get(table.name, ()):
            child = self.tables[child_name]
            value = row[fk.ref_column]
            child_keys = child.probe(fk.column, value)
            if not child_keys:
                continue
            if fk.on_delete == "cascade":
                for child_key in list(child_keys):
                    self._delete_key(child, child_key)
            else:
                raise MemoryIntegrityError("FOREIGN KEY constraint failed")
        table.raw_delete(key)
        if self._undo is not None:
            self._undo.append(("delete", table, key, row))
        if self._redo is not None:
            self._redo.append(("del", table.name, key))

    def _check_fks(self, table: MemoryTable, row: Dict[str, Any],
                   old_row: Optional[Dict[str, Any]]) -> None:
        for fk in table.tdef.foreign_keys:
            value = row[fk.column]
            if value is None:
                continue
            if old_row is not None and old_row[fk.column] == value:
                continue
            parent = self.tables[fk.ref_table]
            if not parent.pk_exists(value):
                raise MemoryIntegrityError("FOREIGN KEY constraint failed")
