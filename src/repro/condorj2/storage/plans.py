"""Compiled plans and their executors, for the memory engine.

What the compiler (:mod:`.compiler`) builds and the engine shell
(:mod:`.memory`) runs: the per-execution runtime context, the access
path a source reads its rows through, the SELECT pipeline (nested-loop
stream, grouping, windows, sorts, the fused top-K path), the three DML
plans, the result carriers (:class:`MemoryRow`, :class:`MemoryCursor`),
and the EXPLAIN tree with the profiled plan nodes that fill it.

A plan is closures over tables, bound at compile time; executing one
allocates an :class:`_Rt` and nothing else that outlives the statement.
"""

from __future__ import annotations

import heapq
import json
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.condorj2.storage import planner as pl
from repro.condorj2.storage.scalars import (
    _is_true, _numeric_from_text, _probe_norm, apply_affinity, sql_sort_key,
)
from repro.condorj2.storage.store import (
    MemoryIntegrityError, MemoryTable, TableStore,
)


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


# ----------------------------------------------------------------------
# execution plans
# ----------------------------------------------------------------------

@dataclass
class _Access:
    """One access path, bound at compile time: how a FROM source — or
    the target of an UPDATE/DELETE — produces its candidates.

    ``rows(rt)`` iterates the candidate rows in key order, ``keys(rt)``
    their row keys (drivers only; DML matches by key).  ``label`` is the
    EXPLAIN annotation, None for a plain scan.  ``eq`` is ``(table,
    column, value fn)`` when the path is a single equality lookup in an
    index: the scheduling pass's nested loop and EXISTS go to the index
    with it directly.
    """

    rows: Optional[Callable] = None
    keys: Optional[Callable] = None
    label: Optional[str] = None
    eq: Optional[Tuple] = None


def _lookup_access(table: MemoryTable, column: str, fn: Callable,
                   label: Optional[str] = None) -> _Access:
    """One equality lookup in ``table``'s index on ``column``."""
    probe_rows, probe = table.probe_rows, table.probe
    return _Access(lambda rt: probe_rows(column, fn(rt)),
                   lambda rt: probe(column, fn(rt)),
                   label, (table, column, fn))


def _keyed_access(table: MemoryTable, keys: Callable,
                  upper: Optional[Tuple[Callable, bool]] = None,
                  label: Optional[str] = None) -> _Access:
    """Rows fetched lazily through ``keys(rt)``, a probe's sorted rowkeys
    — a walk that stops early fetches only what it reads.  ``upper`` is
    ``(bound fn, inclusive)``, an upper bound on the rowid, cut by a
    bisect: NULL admits no row, and text sorts above every number.  The
    bound is not read when the probe found nothing."""
    if upper is not None:
        probe, (bound_fn, inclusive) = keys, upper
        cut = bisect_right if inclusive else bisect_left

        def keys(rt):
            found = probe(rt)
            if not found:
                return found
            bound = bound_fn(rt)
            if bound is None:
                return []
            if isinstance(bound, (int, float)):
                return found[:cut(found, bound)]
            return found

    def rows(rt):
        return map(table.rows.__getitem__, keys(rt))

    return _Access(rows, keys, label)


def _union_access(table: MemoryTable, column: str, values: Callable,
                  coerce: Optional[Callable] = None) -> _Access:
    """One lookup per non-NULL value of ``values(rt)`` (each through
    ``coerce`` first, when given), merged in key order
    (``col IN (...)``)."""
    probe = table.probe
    if coerce is not None:
        raw = values

        def values(rt):
            return map(coerce, raw(rt))

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


#: The fused top-K path's buffer is cut back to ``limit`` rows when it
#: reaches twice that, and never before it holds this many — a LIMIT 1
#: must not pay one reduction per improving row.
_TOPK_MIN_BUFFER = 64


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
                 group_fns, having_fn, order_specs, limit_fn, offset_fn,
                 distinct, has_agg, windows, outer_depth, fused=None):
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
        self.offset_fn = offset_fn
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

    @staticmethod
    def _count(fn: Callable, rt: _Rt) -> int:
        """A LIMIT or OFFSET value.  SQLite's rule: INTEGER affinity,
        then an integer or nothing — 2.0 and '2' pass; 2.7, NULL and
        'abc' do not, and the refusal is an integrity error there
        (SQLITE_MISMATCH)."""
        value = apply_affinity(fn(rt), "INTEGER")
        if type(value) is not int:
            raise MemoryIntegrityError("datatype mismatch")
        return value

    def _window(self, rt: _Rt) -> Tuple[Optional[int], int]:
        """``(limit, offset)``: a negative LIMIT is no limit, a negative
        OFFSET is none."""
        if self.limit_fn is None:
            return None, 0
        limit = self._count(self.limit_fn, rt)
        offset = (0 if self.offset_fn is None
                  else max(0, self._count(self.offset_fn, rt)))
        return (None if limit < 0 else limit), offset

    # -- execution ------------------------------------------------------
    def execute(self, rt: _Rt) -> List[MemoryRow]:
        limit, offset = self._window(rt)
        if self.fused is not None:
            return self._execute_fused(rt, limit, offset)
        if not self._needs_buffer:
            outputs: List[MemoryRow] = []
            if limit == 0:
                return outputs
            check = self.where_check
            stream = self._stream(rt)
            for env in stream:
                if check is not None and not check(rt):
                    continue
                if offset:
                    offset -= 1
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

        end = None if limit is None else offset + limit
        return [MemoryRow(self.names, values, self.lookup)
                for values, _ in decorated[offset:end]]

    def _execute_fused(self, rt: _Rt, limit: Optional[int],
                       offset: int) -> List[MemoryRow]:
        """Single-sort path for ROW_NUMBER windows fused with the outer
        ORDER BY: rank == position in the sorted stream, so environments
        are never buffered — a streamed row is reduced to its sort key,
        and to (sort key, values) only if it can still make the output.
        OFFSET rows are ranked, then dropped."""
        if limit == 0:
            return []
        if limit is not None:
            limit += offset
        check = self.where_check
        key_of = self._order_key
        plain = self._plain_items
        width = len(self.item_fns)
        descs = self._order_descs
        # Ascending keys under a LIMIT keep a bounded buffer: once it
        # fills it is cut to the `limit` smallest and its last key
        # becomes the bar a later row must beat.  nsmallest is stable
        # (sorted(...)[:k]) and the buffer stays in stream order behind
        # its sorted head, so ties keep stream order exactly as the
        # full stable sort's do.  Any DESC key, or no LIMIT, keeps all.
        bounded = limit is not None and not any(descs)
        cap = max(2 * limit, _TOPK_MIN_BUFFER) if bounded else None
        kept: List[Tuple[Tuple, List[Any]]] = []
        bar = None

        def offer():
            nonlocal kept, bar
            key = key_of(rt)
            if bar is not None and key >= bar:
                return
            values = [None] * width
            for index, fn in plain:
                values[index] = fn(rt)
            kept.append((key, values))
            if len(kept) == cap:
                kept = heapq.nsmallest(limit, kept, key=itemgetter(0))
                bar = kept[-1][0]

        sources = self.sources
        eq = (sources[1].access.eq
              if len(sources) == 2 and sources[1].join == "inner" else None)
        if eq is not None:
            # The scheduling pass's shape — a driven source, one inner
            # index-probe join — runs as a plain nested loop with the
            # lookup bound inside it: no generator resumption and no
            # access-path dispatch per candidate row.  The joined bucket
            # is looked up once per distinct probe value: the select is
            # materialised before any DML writes and probe lists are
            # never mutated in place.  Only exact str and int values are
            # memoized — for those, equal means identical, whereas
            # 2 == 2.0 land in different buckets of a TEXT column.
            table, probe_col, probe_fn = eq
            probe_rows = table.probe_rows
            buckets: Dict[Any, List[Dict[str, Any]]] = {}
            first = sources[0]
            first_check = first.check
            second_check = sources[1].check
            env: List[Any] = [None] * self.env_width
            rt.frames.append(env)
            try:
                for row in first.rows(rt):
                    env[0] = row
                    if first_check is not None and not first_check(rt):
                        continue
                    value = probe_fn(rt)
                    kind = type(value)
                    if kind is str or kind is int:
                        bucket = buckets.get(value)
                        if bucket is None:
                            bucket = buckets[value] = probe_rows(
                                probe_col, value)
                    else:
                        bucket = probe_rows(probe_col, value)
                    for joined in bucket:
                        env[1] = joined
                        if second_check is not None and \
                                not second_check(rt):
                            continue
                        if check is None or check(rt):
                            offer()
            finally:
                rt.frames.pop()
        else:
            for _env in self._stream(rt):
                if check is None or check(rt):
                    offer()
        if bounded:
            kept = heapq.nsmallest(limit, kept, key=itemgetter(0))
        else:
            _order_by(kept, itemgetter(0), descs)
            if limit is not None:
                kept = kept[:limit]
        fused = self.fused
        names, lookup = self.names, self.lookup
        outputs = []
        for rank, (_key, values) in enumerate(kept[offset:],
                                              start=offset + 1):
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

    def run(self, engine: TableStore, rt: _Rt) -> MemoryCursor:
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

    def run(self, engine: TableStore, rt: _Rt) -> MemoryCursor:
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
                 sets: List[Tuple[str, Callable]], access: _Access,
                 filters: List[Callable], est_rows: float):
        super().__init__(table, access, filters, est_rows)
        self.sets = sets

    def run(self, engine: TableStore, rt: _Rt) -> MemoryCursor:
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

    def run(self, engine: TableStore, rt: _Rt) -> MemoryCursor:
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

    def _timed(self, operator: Callable, rt: _Rt,
               count: Callable = len) -> Any:
        start = time.perf_counter()
        result = operator(rt)
        prof = self.prof
        prof["seconds"] += time.perf_counter() - start
        prof["loops"] += 1
        prof["rows"] += count(result)
        return result


class _ProfiledSourcePlan(_Profiled, _SourcePlan):
    def rows(self, rt: _Rt):
        """Counts the rows the plan reads, not the rows the access path
        could offer: a walk that LIMIT stops early reads only a few.  The
        clock runs while the access path is opened and while each row is
        fetched, not while the consumer works between rows."""
        prof = self.prof
        clock = time.perf_counter
        prof["loops"] += 1
        start = clock()
        for row in super().rows(rt):
            prof["seconds"] += clock() - start
            prof["rows"] += 1
            yield row
            start = clock()
        prof["seconds"] += clock() - start


class _ProfiledSelectPlan(_Profiled, _SelectPlan):
    def execute(self, rt: _Rt) -> List[MemoryRow]:
        return self._timed(super().execute, rt)

    def any(self, rt: _Rt) -> bool:
        return self._timed(super().any, rt, count=int)


def _attach_profile(node: "pl.PlanNode", plan: Any) -> None:
    prof = getattr(plan, "prof", None)
    if prof and prof["loops"]:
        node.actual_rows = prof["rows"]
        node.actual_loops = prof["loops"]
        node.seconds = prof["seconds"]


def _source_node(src: _SourcePlan) -> "pl.PlanNode":
    path = src.access.label
    if src.kind == "json_each":
        node = pl.PlanNode(op="JSON-EACH", detail=src.alias)
    else:
        if src.kind == "table":
            name = src.table.name
            label = name if name == src.alias else f"{name} AS {src.alias}"
            op = "PROBE" if path else "SCAN"
        else:
            label = src.alias
            op = "HASH-JOIN" if path else "SUBQUERY"
        node = pl.PlanNode(op=op, est_rows=src.est_rows,
                           detail=f"{label} ({path})" if path else label)
        if src.kind == "subquery":
            node.children.append(_select_node(src.subplan, "SELECT"))
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
