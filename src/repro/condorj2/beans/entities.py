"""Concrete entity beans: the persistent objects of section 4.1.

The paper's persistence layer is "the entity beans that represent the
persistent objects" that "collectively determine system state": here
jobs, machines and configuration policies.

One declaration per table the logic tier creates or finds by key (users
are written set-wise, by submission's ``INSERT OR IGNORE``, so no bean
stands for one).  The two beans with an operation of their own write history beside the tuple
(:meth:`MachineBean.record_boot`, :meth:`PolicyBean.change_value`); every
other change to these tables is a set-oriented statement in ``logic/``.
"""

from __future__ import annotations

from repro.condorj2.beans.base import BeanConsistencyError, EntityBean


class JobBean(EntityBean):
    """One job tuple; the heart of the operational store.

    Its state machine is ``schema.LIFECYCLES["jobs"]``, walked by the
    guarded statements of the scheduling, lifecycle and submission
    services.
    """

    TABLE = "jobs"

    def check_invariants(self) -> None:
        if self["run_seconds"] <= 0:
            raise BeanConsistencyError("job with non-positive run_seconds")
        if self["attempts"] < 0:
            raise BeanConsistencyError("negative attempt count")


class MachineBean(EntityBean):
    """A physical execute machine as seen by the server."""

    TABLE = "machines"

    def record_boot(self, now: float) -> None:
        """A (re)boot: bump the boot counter and write a history record.

        The paper calls this out as a source of the Figure 10 startup
        spike: "whenever an execute machine restarts, the CAS monitors and
        records extra historical information about machine attributes that
        only change when the machine is rebooted".
        """
        boots = self["boot_count"] + 1
        self.db.execute(
            "UPDATE machines SET boot_count = ?, last_heartbeat = ? "
            "WHERE machine_name = ?",
            (boots, now, self.pk_value),
        )
        self._row.update(boot_count=boots, last_heartbeat=now)
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


class PolicyBean(EntityBean):
    """One configuration policy, with full change history.

    Configuration management (operational and historical) is ~11,000 lines
    of the real CondorJ2 code base (section 4.2.3.1); the essential
    behaviour is captured by write-through history records.
    """

    TABLE = "config_policies"

    def change_value(self, new_value: str, now: float, changed_by: str = "admin") -> None:
        """Update the policy and append to config_history."""
        self.db.execute(
            "INSERT INTO config_history "
            "(policy_name, old_value, new_value, changed_at, changed_by) "
            "VALUES (?, ?, ?, ?, ?)",
            (self.pk_value, self["policy_value"], new_value, now, changed_by),
        )
        self.db.execute(
            "UPDATE config_policies SET policy_value = ?, updated_at = ?, "
            "updated_by = ? WHERE policy_name = ?",
            (new_value, now, changed_by, self.pk_value),
        )
        self._row.update(
            policy_value=new_value, updated_at=now, updated_by=changed_by
        )
