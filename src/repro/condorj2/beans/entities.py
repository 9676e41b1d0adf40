"""Concrete entity beans: the persistent objects of section 4.1.

"The persistence layer consists of the entity beans that represent the
persistent objects (e.g., users, workflows, jobs, machines, configuration
policies, etc.) that collectively determine system state."

Each bean's methods are the *fine-grained services* the application-logic
layer composes: they validate state (rule a), issue SQL (rule b) and check
invariants (rule c).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.condorj2.beans.base import BeanConsistencyError, EntityBean
from repro.condorj2.schema import LIFECYCLES, VM_STATES


class UserBean(EntityBean):
    """A pool user with a fair-share priority and accumulated usage."""

    TABLE = "users"

    def charge_usage(self, wall_seconds: float) -> None:
        """Accumulate resource usage (drives fair-share priority)."""
        self.require(wall_seconds >= 0, "usage charge cannot be negative")
        self.update(
            accumulated_usage_seconds=self["accumulated_usage_seconds"] + wall_seconds
        )

    def set_priority(self, priority: float) -> None:
        """Administrative priority override (0 = best)."""
        self.require(0.0 <= priority <= 1.0, "priority must be in [0, 1]")
        self.update(priority=priority)

    def check_invariants(self) -> None:
        if self["accumulated_usage_seconds"] < 0:
            raise BeanConsistencyError("negative accumulated usage")


class WorkflowBean(EntityBean):
    """A named group of jobs submitted together."""

    TABLE = "workflows"


class JobBean(EntityBean):
    """One job tuple; the heart of the operational store.

    State changes go through :meth:`transition`, which enforces the legal
    state machine (idle -> matched -> running -> completed, with drop and
    removal edges) — the concrete form of the paper's validity checks.
    """

    TABLE = "jobs"

    def transition(self, new_state: str) -> None:
        """Move the job through its lifecycle, validating the edge."""
        current = self["state"]
        self.require(
            new_state in LIFECYCLES["jobs"].transitions[current],
            f"illegal transition {current!r} -> {new_state!r}",
        )
        self.update(state=new_state)

    def mark_matched(self) -> None:
        """idle -> matched (the scheduling pass claimed this job)."""
        self.transition("matched")

    def mark_running(self) -> None:
        """matched -> running (the startd accepted the match)."""
        self.transition("running")
        self.update(attempts=self["attempts"] + 1)

    def mark_idle_again(self) -> None:
        """A drop or vacate put the job back in the queue."""
        self.transition("idle")

    def mark_completed(self) -> None:
        """running -> completed (post-execution processing follows)."""
        self.transition("completed")

    def depends_on_ids(self) -> List[int]:
        """Prerequisite job ids (normalized ``job_dependencies`` edges)."""
        rows = self.db.query_all(
            "SELECT depends_on_job_id FROM job_dependencies "
            "WHERE job_id = ? ORDER BY depends_on_job_id",
            (self.pk_value,),
        )
        return [row["depends_on_job_id"] for row in rows]

    def check_invariants(self) -> None:
        if self["run_seconds"] <= 0:
            raise BeanConsistencyError("job with non-positive run_seconds")
        if self["attempts"] < 0:
            raise BeanConsistencyError("negative attempt count")


class MachineBean(EntityBean):
    """A physical execute machine as seen by the server."""

    TABLE = "machines"

    def heartbeat(self, now: float) -> None:
        """Record a heartbeat; a missing machine comes back alive."""
        self.update(last_heartbeat=now, state="alive")

    def mark_missing(self) -> None:
        """The machine stopped heartbeating."""
        self.require(self["state"] == "alive", "only alive machines go missing")
        self.update(state="missing")

    def record_boot(self, now: float) -> None:
        """A (re)boot: bump the boot counter and write a history record.

        The paper calls this out as a source of the Figure 10 startup
        spike: "whenever an execute machine restarts, the CAS monitors and
        records extra historical information about machine attributes that
        only change when the machine is rebooted".
        """
        self.update(boot_count=self["boot_count"] + 1, last_heartbeat=now)
        self.db.execute(
            "INSERT INTO machine_boot_history "
            "(machine_name, booted_at, arch, opsys, cores, memory_mb) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                self.pk_value, now, self["arch"], self["opsys"],
                self["cores"], self["memory_mb"],
            ),
        )

    def check_invariants(self) -> None:
        if self["cores"] <= 0 or self["vm_count"] <= 0:
            raise BeanConsistencyError("machine must have cores and vms")


class VmBean(EntityBean):
    """A virtual machine (scheduling slot) tuple."""

    TABLE = "vms"

    def set_state(self, state: str, now: float) -> None:
        """Record the slot's execution state as reported by the startd."""
        self.require(state in VM_STATES, f"unknown vm state {state!r}")
        self.update(state=state, last_update=now)


class MatchBean(EntityBean):
    """A pending job/VM pairing produced by the scheduling pass.

    Matches are transient: acceptMatch deletes the match and creates a run
    (Table 2, steps 9-10).
    """

    TABLE = "matches"


class RunBean(EntityBean):
    """An in-flight execution (replaces Condor's shadow process state)."""

    TABLE = "runs"


class PolicyBean(EntityBean):
    """One configuration policy, with full change history.

    Configuration management (operational and historical) is ~11,000 lines
    of the real CondorJ2 code base (section 4.2.3.1); the essential
    behaviour is captured by write-through history records.
    """

    TABLE = "config_policies"

    def change_value(self, new_value: str, now: float, changed_by: str = "admin") -> None:
        """Update the policy and append to config_history."""
        old_value = self["policy_value"]
        self.db.execute(
            "INSERT INTO config_history "
            "(policy_name, old_value, new_value, changed_at, changed_by) "
            "VALUES (?, ?, ?, ?, ?)",
            (self.pk_value, old_value, new_value, now, changed_by),
        )
        self.update(policy_value=new_value, updated_at=now, updated_by=changed_by)
