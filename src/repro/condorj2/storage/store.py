"""The memory engine's table store.

:class:`MemoryTable` holds one table as a dict of rows keyed by rowid
(or primary key for WITHOUT ROWID tables) with its equality indexes
(single columns and the leading columns of a declared index), memoized
probes, unique maps and constraint checks; :class:`TableStore`
holds all of them and applies the row mutations — INSERT with rowid
assignment and OR IGNORE, UPDATE, DELETE with ``ON DELETE CASCADE`` —
recording an undo entry for rollback and, on a lifecycle table, the edge
for the transition ledger per row touched.  Nothing here knows SQL text: plans
(:mod:`.plans`) arrive with keys and values.

Scan order mirrors SQLite's: rowid order for ordinary tables (insertion
order when the key is hidden, primary-key order when an INTEGER PRIMARY
KEY aliases the rowid) and primary-key order for WITHOUT ROWID tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.condorj2.schema import GONE, LIFECYCLES, TABLE_DEFS, TableDef
from repro.condorj2.storage.scalars import apply_affinity


class MemoryIntegrityError(Exception):
    """Constraint violation (wrapped in DatabaseError by the base class)."""


class MemoryEngineError(Exception):
    """Statement outside the supported dialect or misuse of the engine."""


#: Shared empty probe result; read-only by the same contract as the
#: memoized probe lists.
_EMPTY_ROWS: List[Dict[str, Any]] = []


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
        # the column a declared lifecycle machine governs, if any
        lifecycle = LIFECYCLES.get(tdef.name)
        self.lifecycle: Optional[str] = (
            lifecycle.column if lifecycle else None)
        # equality indexes: column -> value -> set of rowkeys.  The rowid
        # alias has none: ``rows`` is its index, and a one-key set per
        # row would cost about what the row does.
        indexed = set()
        if tdef.primary_key:
            indexed.add(tdef.primary_key[0])
        for index in tdef.indexes:
            indexed.add(index.columns[0])
        for fk in tdef.foreign_keys:
            indexed.add(fk.column)
        for cols in tdef.unique:
            indexed.add(cols[0])
        indexed.discard(self.ipk)
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
        # A declared index (c1 .. cn, rowid), n >= 2 — jobs (state,
        # owner, job_id) — as an equality index on (c1 .. cn): value
        # tuple -> rowkeys, memoized like the probes above.  A bucket's
        # sorted keys are the index's own order, so a bound on the rowid
        # is a bisect.  Buckets are dicts, not sets: rowids arrive
        # mostly ascending, so the re-sort after a write meets one run.
        self.prefix_indexes: Dict[Tuple[str, ...], Dict[Tuple, dict]] = {
            index.columns[:-1]: {}
            for index in tdef.indexes
            if len(index.columns) > 2 and index.columns[-1] == self.ipk
        }
        self._prefix_cache: Dict[Tuple[str, ...], Dict[Tuple, List[Any]]] = {
            columns: {} for columns in self.prefix_indexes
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

    def indexed(self, column: str) -> bool:
        """Can :meth:`probe` answer ``column = value``?"""
        return column == self.ipk or column in self.eq_indexes

    def _rowid(self, value: Any) -> Any:
        """The key of the row whose rowid alias equals ``value``, after
        the column's affinity; None when there is none."""
        key = apply_affinity(value, "INTEGER")
        return key if type(key) is int and key in self.rows else None

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
        if column == self.ipk:
            key = self._rowid(value)
            return [] if key is None else [key]
        entry = self._probe_entry(column, value)
        return entry[0] if entry is not None else []

    def has(self, column: str, value: Any) -> bool:
        """Does any row hold ``column == value``?  Reads the index
        bucket only — no key sort, no row fetch."""
        if value is None:
            return False
        if column == self.ipk:
            return self._rowid(value) is not None
        value = apply_affinity(value, self.affinities[column])
        return bool(self.eq_indexes[column].get(value))

    def probe_rows(self, column: str, value: Any) -> List[Dict[str, Any]]:
        """Rows with ``column == value``, key-ordered; memoized/shared.

        ``_probe_entry`` is inlined — this runs once per outer row in
        every index-probe join loop."""
        if value is None:
            return _EMPTY_ROWS
        if column == self.ipk:
            key = self._rowid(value)
            return _EMPTY_ROWS if key is None else [self.rows[key]]
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

    def _prefix_key(self, columns: Tuple[str, ...],
                    values: Sequence[Any]) -> Optional[Tuple]:
        """``values`` as a prefix-index key, each after its column's
        affinity, as in :meth:`probe`; None when one is NULL."""
        if None in values:
            return None
        affinities = self.affinities
        return tuple(apply_affinity(value, affinities[column])
                     for column, value in zip(columns, values))

    def count_prefix(self, columns: Tuple[str, ...],
                     values: Sequence[Any]) -> int:
        """How many rows hold ``columns == values``: the size of a prefix
        index bucket, read without sorting or fetching its rows."""
        key = self._prefix_key(columns, values)
        return 0 if key is None else len(
            self.prefix_indexes[columns].get(key, ()))

    def probe_prefix(self, columns: Tuple[str, ...],
                     values: Sequence[Any]) -> List[Any]:
        """Rowkeys with ``columns == values`` via a prefix index, in key
        order (see :meth:`_prefix_key`).  Memoized and shared — do not
        mutate."""
        key = self._prefix_key(columns, values)
        if key is None:
            return []
        cache = self._prefix_cache[columns]
        keys = cache.get(key)
        if keys is None:
            bucket = self.prefix_indexes[columns].get(key)
            if not bucket:
                return []
            keys = cache[key] = sorted(bucket)
        return keys

    # -- index maintenance ---------------------------------------------
    def _index_add(self, key: Any, row: Dict[str, Any]) -> None:
        for col, index in self.eq_indexes.items():
            index.setdefault(row[col], set()).add(key)
            self._probe_cache[col].pop(row[col], None)
        for cols, index in self.prefix_indexes.items():
            values = tuple(row[c] for c in cols)
            index.setdefault(values, {})[key] = None
            self._prefix_cache[cols].pop(values, None)
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
        for cols, index in self.prefix_indexes.items():
            values = tuple(row[c] for c in cols)
            bucket = index[values]
            del bucket[key]
            if not bucket:
                del index[values]
            self._prefix_cache[cols].pop(values, None)
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
# the store: all tables, constraint-enforcing mutations, undo
# ----------------------------------------------------------------------

class TableStore:
    """Every table of the schema, and the constraint-enforcing row
    mutations with the undo entries they leave behind.

    The engine shell (:class:`~.memory.MemoryStorageEngine`) is a
    ``TableStore`` that speaks SQL: it opens and closes the undo log
    around statements and transactions, and compiled plans call the
    mutations below."""

    #: Lifecycle capture point, the accounting shell's list
    #: (``StorageEngine._init_accounting``): ``(table, from, to)`` per
    #: UPDATE that assigns a lifecycle column and per DELETE from a
    #: lifecycle table, appended where the pre-image is in hand.
    #: ``_replay`` goes through the ``raw_*`` mutations and records
    #: nothing.  INSERT is not captured (see
    #: ``schema.LEDGER_TRIGGER_STATEMENTS``).
    _edges: List[Tuple[str, str, str]]

    def __init__(self) -> None:
        self.tables: Dict[str, MemoryTable] = {
            tdef.name: MemoryTable(tdef) for tdef in TABLE_DEFS
        }
        #: parent table -> [(child table name, fk)] for delete actions
        self.children: Dict[str, List[Tuple[str, Any]]] = {}
        for tdef in TABLE_DEFS:
            for fk in tdef.foreign_keys:
                self.children.setdefault(fk.ref_table, []).append(
                    (tdef.name, fk))
        self._undo: Optional[List[Tuple]] = None

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
        lifecycle = table.lifecycle  # None (no machine) is never a key
        if lifecycle in changes:
            self._edges.append((table.name, old[lifecycle], new[lifecycle]))

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
        if table.lifecycle is not None:
            self._edges.append((table.name, row[table.lifecycle], GONE))

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
