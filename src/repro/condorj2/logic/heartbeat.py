"""Heartbeat processing: the startd-facing pulse of the pull model.

Every interaction an execute node has with the system rides on the
heartbeat web service (Table 2, steps 3-4, 7-8, 11-15): machine liveness,
VM status, embedded job events (starts, completions, drops) and, in the
response, MATCHINFO for idle VMs.  "Execute nodes in CondorJ2 always initiate any
interaction they have with the CAS" (section 5.2.1).

A heartbeat is set-oriented on the server side: the machine refresh is
one UPDATE by key (a miss means the machine is unknown), the reported
VM states are one batched UPDATE, and embedded completion events are
handed to the lifecycle service as one batch.  The batch is charged per
reported slot but writes a row only where the report moves the slot
along a declared edge: the startd sends its whole slot table every fifth
beat, and a slot already in the reported state is not rewritten (no
row, no index entry, no ledger edge).  Nor is a stale ``claiming``: the
startd queues ``started`` when it spawns the starter, before its own
slot leaves ``claiming``, so a report can trail the event that made the
slot ``busy``.

The MATCHINFO probe is further gated by a server-side per-machine dirty
flag: match tuples can only appear through writes to ``matches``, and the
storage layer's per-table statistics expose a monotonic write counter for
exactly that table.  When a machine's pending set was observed empty and
the counter has not moved since, the per-beat MATCHINFO SELECT is skipped
entirely, before and after the inline pass.  An idle beat is then a fixed
three statements, or four when it reports VM states: the machine refresh,
the batched VM UPDATE, the idle-VM probe, and the scheduling pass's own
probe — which finds no idle job and stops the pass there, so an idle
pool issues no INSERT at all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.condorj2.database import Database, RowNotFound
from repro.condorj2.logic.lifecycle import LifecycleService
from repro.condorj2.logic.scheduling import SchedulingService


class HeartbeatService:
    """Processes startd heartbeats and assembles responses."""

    def __init__(
        self,
        db: Database,
        scheduling: SchedulingService,
        lifecycle: LifecycleService,
    ):
        self.db = db
        self.scheduling = scheduling
        self.lifecycle = lifecycle
        self.heartbeats_processed = 0
        #: machine -> (matches write counter, rollback counter) when its
        #: pending-match set was last observed empty.  While neither has
        #: moved, nothing can be pending and the per-beat MATCHINFO
        #: SELECT is skipped (the ROADMAP idle-SQL item).
        self._no_pending_marks: Dict[str, Tuple[int, int]] = {}
        self.matchinfo_selects_skipped = 0

    # ------------------------------------------------------------------
    # machine registration
    # ------------------------------------------------------------------
    def register_machine(self, description: Dict[str, Any], now: float) -> None:
        """First contact (or reboot): create/refresh machine and VM tuples.

        Every (re)boot stores the machine as described, bumps the boot
        counter and writes a history record of the booted description.
        The paper calls this out as a source of the Figure 10 startup
        spike: "whenever an execute machine restarts, the CAS monitors
        and records extra historical information about machine
        attributes that only change when the machine is rebooted".
        """
        name = description["name"]
        vm_count = description.get("vm_count", 1)
        cores = description.get("cores", 1)
        if cores <= 0 or vm_count <= 0:
            raise ValueError("machine must have cores and vms")
        attributes = (
            description.get("arch", "INTEL"),
            description.get("opsys", "LINUX"),
            cores,
            description.get("memory_mb", 512),
        )
        db = self.db
        with db.transaction():
            boots = db.scalar(
                "SELECT boot_count FROM machines WHERE machine_name = ?",
                (name,),
            )
            if boots is None:
                # The boot UPDATE below fills in the description.
                boots = 0
                db.execute(
                    "INSERT INTO machines (machine_name, state) "
                    "VALUES (?, 'alive')",
                    (name,),
                )
            db.executemany(
                "INSERT OR IGNORE INTO vms (vm_id, machine_name, state, last_update) "
                "VALUES (?, ?, 'idle', ?)",
                [(f"vm{index}@{name}", name, now) for index in range(vm_count)],
            )
            db.execute(
                "UPDATE machines SET arch = ?, opsys = ?, cores = ?, "
                "memory_mb = ?, vm_count = ?, boot_count = ?, "
                "last_heartbeat = ? WHERE machine_name = ?",
                (*attributes, vm_count, boots + 1, now, name),
            )
            db.execute(
                "INSERT INTO machine_boot_history "
                "(machine_name, booted_at, arch, opsys, cores, memory_mb) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (name, now, *attributes),
            )

    # ------------------------------------------------------------------
    # the heartbeat proper
    # ------------------------------------------------------------------
    def process(self, payload: Dict[str, Any], now: float) -> Dict[str, Any]:
        """Handle one heartbeat; returns the response payload.

        ``payload`` carries::

            machine: str            the machine name
            vms: [{vm_id, state}]   current slot states
            events: [{kind, job_id, vm_id, reason?}]
                                    job events since the last heartbeat
                                    (kind in completed|dropped|started)

        The response is ``{"status": "OK"|"MATCHINFO", "matches": [...]}``
        mirroring Table 2's step 4 (OK) and step 8 (MATCHINFO).
        """
        self.heartbeats_processed += 1
        machine_name = payload["machine"]
        with self.db.transaction():
            refreshed = self.db.execute(
                "UPDATE machines SET last_heartbeat = ? "
                "WHERE machine_name = ?",
                (now, machine_name),
            )
            if refreshed.rowcount == 0:
                raise RowNotFound(f"machines[{machine_name!r}] not found")
            # Job events first: completions free VMs for new matches.
            self.apply_events(payload.get("events", ()), now)
            vm_updates: List[Dict[str, Any]] = [
                {"state": vm_info["state"], "now": now,
                 "vm_id": vm_info["vm_id"]}
                for vm_info in payload.get("vms", ())
            ]
            if vm_updates:
                # The contract's enum has already refused any state
                # outside VM_STATES.  The IN list names the write's
                # from-states for the lifecycle pass, which refuses an
                # unguarded state write; the last two conjuncts write
                # only a declared move (see the module docstring).
                self.db.executemany(
                    "UPDATE vms SET state = :state, last_update = :now "
                    "WHERE vm_id = :vm_id "
                    "AND state IN ('idle', 'claiming', 'busy') "
                    "AND state <> :state "
                    "AND (:state <> 'claiming' OR state = 'idle')",
                    vm_updates,
                )
        matches = self._pending_matches(machine_name)
        if not matches and self._has_idle_vm(machine_name):
            # An opportunistic pass, so the response to a beat that freed
            # VMs can carry fresh MATCHINFO.  The server still only ever
            # *reacts* to client-initiated events — the pull model.
            self.scheduling.run_pass(now)
            matches = self._pending_matches(machine_name)
        if matches:
            return {"status": "MATCHINFO", "matches": matches}
        return {"status": "OK", "matches": []}

    def _pending_matches(self, machine_name: str) -> List[dict]:
        """The machine's pending matches, behind the dirty-flag gate.

        Sound because the MATCHINFO payload can only change when a row is
        written to ``matches`` (the joined ``vms``/``jobs`` attributes are
        immutable while a match exists), writes are what the counter
        counts, and a no-op scheduling pass writes zero rows.
        """
        counts = self.db.counts
        # A rollback restores rows without reverting the write counter,
        # so a mark recorded inside a later-aborted transaction could
        # otherwise assert "empty" against resurrected matches; any
        # rollback therefore invalidates every clean mark.
        epoch = (counts.table_writes("matches"), counts.rollbacks)
        if self._no_pending_marks.get(machine_name) == epoch:
            self.matchinfo_selects_skipped += 1
            return []
        matches = self.scheduling.pending_matches_for_machine(machine_name)
        if matches:
            self._no_pending_marks.pop(machine_name, None)
        else:
            self._no_pending_marks[machine_name] = epoch
        return matches

    def _has_idle_vm(self, machine_name: str) -> bool:
        return bool(
            self.db.scalar(
                "SELECT COUNT(*) FROM vms WHERE machine_name = ? AND state = 'idle'",
                (machine_name,),
            )
        )

    def apply_events(self, events: Any, now: float) -> None:
        """Apply job events in one transaction (the caller's, if it has
        one), batching each kind into its own statements.

        Starts go first, so a job that began and ended between two beats
        still walks its slot ``claiming -> busy -> idle``.  A replayed
        ``started`` is harmless: the guard writes only a slot still
        ``claiming``.
        """
        completions: List[Tuple[int, str]] = []
        drops: List[Tuple[int, str, str]] = []
        started_vms: List[Tuple[float, str]] = []
        for event in events:
            kind = event["kind"]
            if kind == "completed":
                completions.append((event["job_id"], event["vm_id"]))
            elif kind == "dropped":
                drops.append(
                    (event["job_id"], event["vm_id"], event.get("reason", ""))
                )
            elif kind == "started":
                # Table 2, step 11.  The job is already 'running' after
                # acceptMatch; record the slot as busy.
                started_vms.append((now, event["vm_id"]))
            else:
                raise ValueError(f"unknown heartbeat event kind {kind!r}")
        with self.db.transaction():
            if started_vms:
                self.db.executemany(
                    "UPDATE vms SET state = 'busy', last_update = ? "
                    "WHERE vm_id = ? AND state = 'claiming'",
                    started_vms,
                )
            if completions:
                self.lifecycle.complete_jobs(completions, now)
            if drops:
                self.lifecycle.report_drops(drops, now)
