"""Relational schema for the CondorJ2 operational store.

"Since the 'live' operational data resides in the database, the system
extensibility problem reduces to a data-modeling/schema design problem"
(section 4.2.3).  This module *is* that schema: every piece of state that
Condor keeps in daemon memory lives here as a tuple.

Operational tables
    users, workflows, jobs, job_dependencies, machines, vms, matches,
    runs, config_policies

Dependency edges are first-class tuples (``job_dependencies``), so the
scheduling pass gates a dependent job with one indexed anti-join instead
of parsing a comma-separated string per job.

Historical tables (the paper calls out configuration management and
historical machine information as major CondorJ2 components)
    job_history, machine_boot_history, machine_history, config_history,
    accounting

The ``matches`` and ``runs`` tables mirror Table 2's steps exactly: the
scheduling pass *inserts match tuples*; acceptMatch *deletes the match and
inserts a run tuple*; completion *deletes the run and job tuples* (moving
the job into history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

# ----------------------------------------------------------------------
# The declaration
# ----------------------------------------------------------------------
# ``TABLE_DEFS`` below is the schema, said once.  The pure-Python engine
# builds its tables from it directly; SQLite gets ``SCHEMA_STATEMENTS``,
# which is ``render_ddl`` applied to it; ``TABLES``, ``VM_STATES``, the
# lifecycle state domains, each entity bean's key and fields and the
# analyzer's bean registry are all read back from it.  A column, an index
# or a table is therefore one edit here.  (Rendered, not introspected out
# of SQLite: CHECK domains, AUTOINCREMENT and WITHOUT ROWID are in no
# PRAGMA, and the memory engine boots without ``sqlite3``.)


_NO_DEFAULT = object()


@dataclass(frozen=True)
class ColumnDef:
    """One column: name, type affinity and constraints."""

    name: str
    #: SQLite type affinity the engine must emulate on write:
    #: 'INTEGER', 'REAL' or 'TEXT'.
    affinity: str
    not_null: bool = False
    default: Any = _NO_DEFAULT
    #: CHECK (col IN (...)) constraint, when present.
    check_in: Optional[Tuple[str, ...]] = None

    @property
    def has_default(self) -> bool:
        return self.default is not _NO_DEFAULT


@dataclass(frozen=True)
class ForeignKeyDef:
    """A single-column foreign key and its delete action."""

    column: str
    ref_table: str
    ref_column: str
    on_delete: str = "restrict"  # 'restrict' (NO ACTION) or 'cascade'


@dataclass(frozen=True)
class IndexDef:
    """A secondary index (engines use at least the leading column)."""

    name: str
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class TableDef:
    """One table of the operational/historical schema, engine-neutral."""

    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Tuple[str, ...]
    #: True for ordinary rowid tables (scan order = rowid order); False
    #: for WITHOUT ROWID tables (scan order = primary-key order).
    rowid: bool = True
    #: AUTOINCREMENT: key values are never reused after deletion.
    autoincrement: bool = False
    #: UNIQUE constraints beyond the primary key.
    unique: Tuple[Tuple[str, ...], ...] = ()
    foreign_keys: Tuple[ForeignKeyDef, ...] = ()
    indexes: Tuple[IndexDef, ...] = ()

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    @property
    def non_key_columns(self) -> Tuple[str, ...]:
        """Every column outside the primary key, in declaration order."""
        return tuple(col.name for col in self.columns
                     if col.name not in self.primary_key)

    @property
    def integer_primary_key(self) -> Optional[str]:
        """The rowid-aliasing INTEGER PRIMARY KEY column, when present."""
        if (
            self.rowid
            and len(self.primary_key) == 1
            and self.column(self.primary_key[0]).affinity == "INTEGER"
        ):
            return self.primary_key[0]
        return None


def _col(name, affinity, not_null=False, default=_NO_DEFAULT, check_in=None):
    return ColumnDef(name, affinity, not_null, default, check_in)


#: The whole schema as data, in creation order.
TABLE_DEFS: Tuple[TableDef, ...] = (
    TableDef(
        name="users",
        columns=(
            _col("user_name", "TEXT"),
            _col("priority", "REAL", not_null=True, default=0.5),
            _col("accumulated_usage_seconds", "REAL", not_null=True, default=0.0),
            _col("created_at", "REAL", not_null=True),
        ),
        primary_key=("user_name",),
    ),
    TableDef(
        name="workflows",
        columns=(
            _col("workflow_id", "INTEGER"),
            _col("owner", "TEXT", not_null=True),
            _col("name", "TEXT", not_null=True, default="workflow"),
            _col("submitted_at", "REAL", not_null=True),
        ),
        primary_key=("workflow_id",),
        foreign_keys=(ForeignKeyDef("owner", "users", "user_name"),),
    ),
    TableDef(
        name="jobs",
        columns=(
            _col("job_id", "INTEGER"),
            _col("owner", "TEXT", not_null=True),
            _col("workflow_id", "INTEGER"),
            _col("cmd", "TEXT", not_null=True),
            _col("args", "TEXT", not_null=True, default=""),
            _col("state", "TEXT", not_null=True, default="idle",
                 check_in=("idle", "matched", "running", "completed",
                           "removed", "held")),
            _col("run_seconds", "REAL", not_null=True),
            _col("image_size_mb", "INTEGER", not_null=True, default=16),
            _col("requirements", "TEXT"),
            _col("rank", "TEXT"),
            _col("submitted_at", "REAL", not_null=True),
            _col("attempts", "INTEGER", not_null=True, default=0),
        ),
        primary_key=("job_id",),
        foreign_keys=(
            ForeignKeyDef("owner", "users", "user_name"),
            ForeignKeyDef("workflow_id", "workflows", "workflow_id"),
        ),
        indexes=(
            # Covering index for the scheduling pass's hot predicate:
            # eligible idle jobs joined to users by owner, scanned in
            # (state, job_id) order without touching the base table.  The
            # monitoring reads count its (state) and (state, owner)
            # ranges, so no index leads with owner: the FK to users is
            # never checked from the child side (no user is deleted and
            # no user_name rewritten).
            IndexDef("idx_jobs_state_owner", ("state", "owner", "job_id")),
            IndexDef("idx_jobs_workflow", ("workflow_id",)),
        ),
    ),
    TableDef(
        name="job_dependencies",
        columns=(
            _col("job_id", "INTEGER", not_null=True),
            _col("depends_on_job_id", "INTEGER", not_null=True),
        ),
        primary_key=("job_id", "depends_on_job_id"),
        rowid=False,
        foreign_keys=(
            ForeignKeyDef("job_id", "jobs", "job_id", on_delete="cascade"),
        ),
        indexes=(
            # Reverse edge for "who is waiting on job X" queries; the
            # forward (job_id, depends_on_job_id) order is the primary
            # key itself.
            IndexDef("idx_job_dependencies_parent",
                     ("depends_on_job_id", "job_id")),
        ),
    ),
    TableDef(
        name="machines",
        columns=(
            _col("machine_name", "TEXT"),
            _col("arch", "TEXT", not_null=True, default="INTEL"),
            _col("opsys", "TEXT", not_null=True, default="LINUX"),
            _col("cores", "INTEGER", not_null=True, default=1),
            _col("memory_mb", "REAL", not_null=True, default=512),
            _col("vm_count", "INTEGER", not_null=True, default=1),
            _col("state", "TEXT", not_null=True, default="alive",
                 check_in=("alive", "missing", "offline")),
            _col("last_heartbeat", "REAL", not_null=True, default=0),
            _col("boot_count", "INTEGER", not_null=True, default=0),
        ),
        primary_key=("machine_name",),
        indexes=(
            # The liveness sweep updates machines by state (alive ->
            # missing past the heartbeat deadline); the leading state
            # column lets that pass probe instead of scanning the whole
            # machine table.
            IndexDef("idx_machines_state", ("state", "last_heartbeat")),
        ),
    ),
    TableDef(
        name="vms",
        columns=(
            _col("vm_id", "TEXT"),
            _col("machine_name", "TEXT", not_null=True),
            _col("state", "TEXT", not_null=True, default="idle",
                 check_in=("idle", "claiming", "busy", "offline")),
            _col("last_update", "REAL", not_null=True, default=0),
        ),
        primary_key=("vm_id",),
        foreign_keys=(ForeignKeyDef("machine_name", "machines", "machine_name"),),
        indexes=(
            IndexDef("idx_vms_machine", ("machine_name",)),
            # Covering index for the idle-VM side of the scheduling pass:
            # state probe resolves machine and vm_id from the index alone.
            IndexDef("idx_vms_state", ("state", "machine_name", "vm_id")),
        ),
    ),
    TableDef(
        name="matches",
        columns=(
            _col("match_id", "INTEGER"),
            _col("job_id", "INTEGER", not_null=True),
            _col("vm_id", "TEXT", not_null=True),
            _col("created_at", "REAL", not_null=True),
        ),
        primary_key=("match_id",),
        autoincrement=True,
        unique=(("job_id",), ("vm_id",)),
        foreign_keys=(
            ForeignKeyDef("job_id", "jobs", "job_id"),
            ForeignKeyDef("vm_id", "vms", "vm_id"),
        ),
        indexes=(
            # Covering index: MATCHINFO assembly reads (vm_id -> job_id)
            # without the base table (the UNIQUE constraint indexes vm_id
            # alone).
            IndexDef("idx_matches_vm_job", ("vm_id", "job_id")),
        ),
    ),
    TableDef(
        name="runs",
        columns=(
            _col("run_id", "INTEGER"),
            _col("job_id", "INTEGER", not_null=True),
            _col("vm_id", "TEXT", not_null=True),
            _col("started_at", "REAL", not_null=True),
        ),
        primary_key=("run_id",),
        autoincrement=True,
        unique=(("job_id",), ("vm_id",)),
        foreign_keys=(
            ForeignKeyDef("job_id", "jobs", "job_id"),
            ForeignKeyDef("vm_id", "vms", "vm_id"),
        ),
        indexes=(IndexDef("idx_runs_vm_job", ("vm_id", "job_id")),),
    ),
    TableDef(
        name="job_history",
        columns=(
            _col("job_id", "INTEGER"),
            _col("owner", "TEXT", not_null=True),
            _col("workflow_id", "INTEGER"),
            _col("cmd", "TEXT", not_null=True),
            _col("run_seconds", "REAL", not_null=True),
            _col("submitted_at", "REAL", not_null=True),
            _col("started_at", "REAL"),
            _col("completed_at", "REAL"),
            _col("final_state", "TEXT", not_null=True),
            _col("vm_id", "TEXT"),
            _col("attempts", "INTEGER", not_null=True, default=0),
        ),
        primary_key=("job_id",),
        indexes=(
            IndexDef("idx_job_history_owner", ("owner",)),
            # Throughput-by-minute reports scan completions in time order.
            IndexDef("idx_job_history_completed", ("completed_at",)),
        ),
    ),
    TableDef(
        name="machine_boot_history",
        columns=(
            _col("boot_id", "INTEGER"),
            _col("machine_name", "TEXT", not_null=True),
            _col("booted_at", "REAL", not_null=True),
            _col("arch", "TEXT", not_null=True),
            _col("opsys", "TEXT", not_null=True),
            _col("cores", "INTEGER", not_null=True),
            _col("memory_mb", "REAL", not_null=True),
        ),
        primary_key=("boot_id",),
        autoincrement=True,
        indexes=(IndexDef("idx_boot_history_machine", ("machine_name",)),),
    ),
    TableDef(
        name="machine_history",
        columns=(
            _col("sample_id", "INTEGER"),
            _col("machine_name", "TEXT", not_null=True),
            _col("sampled_at", "REAL", not_null=True),
            _col("state", "TEXT", not_null=True),
            _col("busy_vms", "INTEGER", not_null=True, default=0),
        ),
        primary_key=("sample_id",),
        autoincrement=True,
    ),
    TableDef(
        name="config_policies",
        columns=(
            _col("policy_name", "TEXT"),
            _col("policy_value", "TEXT", not_null=True),
            _col("scope", "TEXT", not_null=True, default="pool"),
            _col("updated_at", "REAL", not_null=True),
            _col("updated_by", "TEXT", not_null=True, default="admin"),
        ),
        primary_key=("policy_name",),
    ),
    TableDef(
        name="config_history",
        columns=(
            _col("change_id", "INTEGER"),
            _col("policy_name", "TEXT", not_null=True),
            _col("old_value", "TEXT"),
            _col("new_value", "TEXT", not_null=True),
            _col("changed_at", "REAL", not_null=True),
            _col("changed_by", "TEXT", not_null=True),
        ),
        primary_key=("change_id",),
        autoincrement=True,
        indexes=(
            # Per-policy audit trail: history/value_at probe by
            # policy_name and order by change_id — (policy_name,
            # change_id) serves both from one index.  Flagged by the
            # static index advisor before it existed.
            IndexDef("idx_config_history_policy",
                     ("policy_name", "change_id")),
        ),
    ),
    TableDef(
        name="accounting",
        columns=(
            _col("record_id", "INTEGER"),
            _col("owner", "TEXT", not_null=True),
            _col("job_id", "INTEGER", not_null=True),
            _col("vm_id", "TEXT"),
            _col("wall_seconds", "REAL", not_null=True),
            _col("recorded_at", "REAL", not_null=True),
        ),
        primary_key=("record_id",),
        autoincrement=True,
        indexes=(IndexDef("idx_accounting_owner", ("owner",)),),
    ),
    TableDef(
        name="datasets",
        columns=(
            _col("dataset_id", "INTEGER"),
            _col("name", "TEXT", not_null=True),
            _col("owner", "TEXT", not_null=True),
            _col("size_mb", "REAL", not_null=True, default=0),
            _col("k_safety", "INTEGER", not_null=True, default=1),
            _col("created_at", "REAL", not_null=True),
        ),
        primary_key=("dataset_id",),
        autoincrement=True,
        unique=(("name",),),
    ),
    TableDef(
        name="dataset_replicas",
        columns=(
            _col("replica_id", "INTEGER"),
            _col("dataset_id", "INTEGER", not_null=True),
            _col("machine_name", "TEXT", not_null=True),
            _col("state", "TEXT", not_null=True, default="valid",
                 check_in=("valid", "stale", "transferring")),
            _col("created_at", "REAL", not_null=True),
        ),
        primary_key=("replica_id",),
        autoincrement=True,
        unique=(("dataset_id", "machine_name"),),
        foreign_keys=(ForeignKeyDef("dataset_id", "datasets", "dataset_id"),),
    ),
    TableDef(
        name="provenance",
        columns=(
            _col("prov_id", "INTEGER"),
            _col("output_name", "TEXT", not_null=True),
            _col("job_id", "INTEGER", not_null=True),
            _col("executable", "TEXT", not_null=True),
            _col("executable_version", "TEXT", not_null=True, default=""),
            _col("input_names", "TEXT", not_null=True, default=""),
            _col("input_versions", "TEXT", not_null=True, default=""),
            _col("recorded_at", "REAL", not_null=True),
        ),
        primary_key=("prov_id",),
        autoincrement=True,
        indexes=(
            IndexDef("idx_provenance_output", ("output_name",)),
            # executables_used probes provenance by job id sets
            # (json_each).
            IndexDef("idx_provenance_job", ("job_id",)),
        ),
    ),
)

#: Each declaration by table name.
TABLE_BY_NAME: Dict[str, TableDef] = {tdef.name: tdef for tdef in TABLE_DEFS}

#: Tables in the operational schema, in creation order.
TABLES = list(TABLE_BY_NAME)


def _literal(value: Any) -> str:
    """A DEFAULT or CHECK value as a SQL literal (the one quoting rule)."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def render_ddl(tdef: TableDef) -> List[str]:
    """SQLite DDL for one declaration: the table, then its indexes.

    Column constraints go inline; a composite PRIMARY KEY and a
    multi-column UNIQUE become table constraints.
    """
    foreign_keys = {fk.column: fk for fk in tdef.foreign_keys}
    lines = []
    for col in tdef.columns:
        parts = [col.name, col.affinity]
        if (col.name,) == tdef.primary_key:
            parts.append("PRIMARY KEY")
            if tdef.autoincrement:
                parts.append("AUTOINCREMENT")
        if col.not_null:
            parts.append("NOT NULL")
        if (col.name,) in tdef.unique:
            parts.append("UNIQUE")
        if col.has_default:
            parts.append("DEFAULT " + _literal(col.default))
        if col.check_in is not None:
            members = ", ".join(_literal(member) for member in col.check_in)
            parts.append(f"CHECK ({col.name} IN ({members}))")
        fk = foreign_keys.get(col.name)
        if fk is not None:
            parts.append(f"REFERENCES {fk.ref_table}({fk.ref_column})")
            if fk.on_delete == "cascade":
                parts.append("ON DELETE CASCADE")
        lines.append(" ".join(parts))
    if len(tdef.primary_key) > 1:
        lines.append(f"PRIMARY KEY ({', '.join(tdef.primary_key)})")
    lines.extend(f"UNIQUE ({', '.join(columns)})"
                 for columns in tdef.unique if len(columns) > 1)
    body = ",\n    ".join(lines)
    suffix = "" if tdef.rowid else " WITHOUT ROWID"
    return [f"CREATE TABLE {tdef.name} (\n    {body}\n){suffix}"] + [
        f"CREATE INDEX {index.name} ON {tdef.name}({', '.join(index.columns)})"
        for index in tdef.indexes
    ]


#: Ordered DDL statements; executed once at database creation.
SCHEMA_STATEMENTS = [
    statement for tdef in TABLE_DEFS for statement in render_ddl(tdef)]

#: Module-level iterables the dispatch-complexity analyzer treats as
#: O(1)-bounded: their cardinality is fixed by the schema/contract
#: declarations at import time, never by operational data, so a loop
#: over one of them (directly, through ``.items()``-style views, or
#: through a single local rebinding such as ``tables = sorted(TABLES)``)
#: contributes nothing to a function's dispatch complexity.  See
#: ``analysis/dispatch.py`` and DESIGN.md section 9.2.
BOUNDED_ITERABLES: Tuple[str, ...] = (
    "TABLE_DEFS",
    "TABLES",
    "VM_STATES",
    "LIFECYCLES",
    "HEARTBEAT_EVENT_KINDS",
    "CONTRACTS",
    "FAULT_CODES",
    "SEVERITIES",
)

#: VM slot states: the ``vms.state`` CHECK domain, which the heartbeat
#: service and the heartbeat contract both validate against.
VM_STATES = TABLE_BY_NAME["vms"].column("state").check_in


# ----------------------------------------------------------------------
# Lifecycle machines.  The CHECK constraints above pin each entity's
# *state domain*; the declarations below add the *transition relation* —
# which (from, to) state changes the code paths are allowed to perform.
# The static analyzer checks every extracted statement against this
# relation, and the storage layer's runtime transition ledger is
# cross-checked against it, so the state machines are enforced in both
# directions (DESIGN.md section 9).

#: Pseudo-states bounding every lifecycle: an INSERT is the edge
#: ``BORN -> state``, a DELETE is the edge ``state -> GONE``, so row
#: creation and removal live in the same graph as state changes.
BORN = "(new)"
GONE = "(gone)"


@dataclass(frozen=True)
class LifecycleDef:
    """One lifecycle machine: a table whose state column must walk an
    explicit transition relation.

    ``states`` is the CHECK IN-domain of the column (single source of
    truth: taken from the :class:`ColumnDef`), ``transitions`` maps each
    state to the states it may move to, and ``create_states`` /
    ``delete_states`` say which states rows may be born in and deleted
    from.  Self-loop writes (refreshes that re-assert the current state)
    are always legal and therefore not part of ``transitions``.
    """

    table: str
    column: str
    states: Tuple[str, ...]
    transitions: Mapping[str, FrozenSet[str]]
    create_states: FrozenSet[str]
    delete_states: FrozenSet[str]

    def allows(self, source: str, target: str) -> bool:
        """Whether the edge ``source -> target`` is declared legal."""
        if source == target and source in self.states:
            return True
        if source == BORN:
            return target in self.create_states
        if target == GONE:
            return source in self.delete_states
        return target in self.transitions.get(source, frozenset())

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Every declared edge — creation and deletion included,
        self-loops excluded (those are implicitly always legal)."""
        out = [(BORN, state) for state in sorted(self.create_states)]
        for source in self.states:
            for target in sorted(self.transitions.get(source, frozenset())):
                if target != source:
                    out.append((source, target))
        out.extend((state, GONE) for state in sorted(self.delete_states))
        return tuple(out)

    def state_edges(self) -> Tuple[Tuple[str, str], ...]:
        """The declared state-to-state edges (no pseudo-states)."""
        return tuple((source, target) for source, target in self.edges()
                     if source != BORN and target != GONE)


def _lifecycle(table: str, transitions: Dict[str, set],
               create: Tuple[str, ...],
               delete: Tuple[str, ...] = ()) -> LifecycleDef:
    column = TABLE_BY_NAME[table].column("state")
    return LifecycleDef(
        table=table,
        column="state",
        states=column.check_in,
        transitions={state: frozenset(transitions.get(state, ()))
                     for state in column.check_in},
        create_states=frozenset(create),
        delete_states=frozenset(delete),
    )


#: The four lifecycle machines of section 4.2.3, keyed by table.
#:
#: * jobs — the paper's job state machine.  Rows are born idle; the
#:   operational tuple is deleted on completion (from ``running``,
#:   archived to ``job_history``) or by ``removeJob`` (from any queued
#:   state: ``idle``, ``matched`` or ``held``).
#: * machines — liveness: heartbeats keep a machine ``alive``, the sweep
#:   moves it to ``missing``, and ``offline`` is an administrative
#:   quarantine an operator may impose from either live state and that
#:   only an explicit re-enable leaves.  Machine rows are never deleted.
#: * vms — slot occupancy: ``idle -> claiming`` on acceptMatch, then to
#:   ``busy`` (started event) and back to ``idle`` on completion/drop.
#:   The startd's reported states may skip intermediate hops (delta
#:   reporting), so reported edges among the live states are declared.
#: * dataset_replicas — replica freshness: ``valid`` sours to ``stale``,
#:   repair moves ``stale`` through ``transferring`` back to ``valid``
#:   (or back to ``stale`` on a failed transfer).
LIFECYCLES: Dict[str, LifecycleDef] = {
    "jobs": _lifecycle(
        "jobs",
        {"idle": {"matched", "held"},
         "matched": {"running", "idle"},
         "running": {"completed", "idle"},
         "held": {"idle"}},
        create=("idle",), delete=("idle", "matched", "running", "held")),
    "machines": _lifecycle(
        "machines",
        {"alive": {"missing", "offline"},
         "missing": {"alive", "offline"},
         "offline": {"alive"}},
        create=("alive",)),
    "vms": _lifecycle(
        "vms",
        {"idle": {"claiming", "busy", "offline"},
         "claiming": {"idle", "busy", "offline"},
         "busy": {"idle", "offline"},
         "offline": {"idle"}},
        create=("idle",)),
    "dataset_replicas": _lifecycle(
        "dataset_replicas",
        {"valid": {"stale"},
         "stale": {"transferring"},
         "transferring": {"valid", "stale"}},
        create=("valid", "transferring")),
}


def _ledger_triggers(lifecycle: LifecycleDef) -> Tuple[str, str]:
    table, column = lifecycle.table, lifecycle.column
    return (
        f"CREATE TEMP TRIGGER IF NOT EXISTS ledger_update_{table} "
        f"AFTER UPDATE OF {column} ON {table} BEGIN "
        f"SELECT lifecycle_edge('{table}', OLD.{column}, NEW.{column}); END",
        f"CREATE TEMP TRIGGER IF NOT EXISTS ledger_delete_{table} "
        f"AFTER DELETE ON {table} BEGIN "
        f"SELECT lifecycle_edge('{table}', OLD.{column}); END",
    )


#: How SQLite feeds the runtime transition ledger: two triggers per
#: lifecycle table, created after ``SCHEMA_STATEMENTS`` on every
#: connection.  The row write itself reports its edge to
#: ``lifecycle_edge``, a scalar function the engine registers on the
#: connection (two arguments mean ``-> GONE``).  ``UPDATE OF`` fires
#: whenever the statement assigns the column, changed or not, which is
#: exactly when the memory engine's ``TableStore._update_row`` records.
#: TEMP, because triggers and function both belong to one connection:
#: the database file stays usable by a connection that has neither.
#:
#: There is deliberately no ``AFTER INSERT`` trigger (and no insert hook
#: in ``TableStore``): INSERT is attributed ``BORN -> state`` x rowcount
#: from the statement text and never needed the row, while a trigger per
#: inserted job measured +3.9 % ``wall_s_per_sim_hour`` on
#: ``submit_monitor_sqlite`` (35.1 -> 36.5 reference s, 0/4 pairs
#: better; 17,820 inserts an episode).
#: That leaves ``INSERT .. SELECT`` into a lifecycle table as the one
#: write the ledger does not attribute; the corpus has none.
LEDGER_TRIGGER_STATEMENTS: Tuple[str, ...] = tuple(
    statement for lifecycle in LIFECYCLES.values()
    for statement in _ledger_triggers(lifecycle))
