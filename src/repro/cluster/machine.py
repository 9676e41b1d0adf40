"""Physical and virtual machines.

The paper leans on Condor's distinction between *physical* machines and
*virtual* machines: scheduling happens at the virtual-machine level, and a
physical machine hosts a configurable number of VMs (the authors simulate
clusters of up to 10,000 nodes by configuring 50 physical machines with up
to 200 VMs each — section 5, "Before proceeding...").

A virtual machine here is purely a scheduling abstraction (the paper is
explicit about this: "it does not imply multiple separate operating systems
and process spaces").  All VMs of a node share the node's CPU, which is why
short jobs overwhelm slow nodes (Figure 8).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.sim.cpu import Host
from repro.sim.kernel import Simulator


class VmState(enum.Enum):
    """Execution state of one virtual machine."""

    #: No job assigned; advertising for work.
    IDLE = "idle"
    #: Claimed/matched; setting up a job environment.
    CLAIMING = "claiming"
    #: Executing a job.
    BUSY = "busy"


class VirtualMachine:
    """One schedulable slot on a physical node."""

    def __init__(self, node: "PhysicalNode", index: int):
        self.node = node
        self.index = index
        self.vm_id = f"vm{index}@{node.name}"
        self.state = VmState.IDLE
        self.current_job_id: Optional[int] = None
        self.jobs_completed = 0
        self.jobs_dropped = 0

    @property
    def state(self) -> VmState:
        """The slot's state; setting it also sets ``state_value``, the
        plain string the startd reads for every slot on every beat."""
        return self._state

    @state.setter
    def state(self, state: VmState) -> None:
        self._state = state
        self.state_value: str = state.value

    @property
    def name(self) -> str:
        """Alias for ``vm_id`` (Condor calls this the slot name)."""
        return self.vm_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualMachine {self.vm_id} {self.state.value}>"


class PhysicalNode:
    """A physical execute machine hosting one or more virtual machines."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int = 1,
        speed: float = 1.0,
        memory_mb: float = 512.0,
        vm_count: int = 1,
        arch: str = "INTEL",
        opsys: str = "LINUX",
    ):
        if vm_count <= 0:
            raise ValueError("vm_count must be positive")
        self.sim = sim
        self.name = name
        self.arch = arch
        self.opsys = opsys
        self.host = Host(sim, name, cores=cores, speed=speed, memory_mb=memory_mb)
        self.vms: List[VirtualMachine] = [VirtualMachine(self, i) for i in range(vm_count)]
        #: Recent job-start timestamps, maintained by the execution model
        #: to derive churn-dependent setup costs (Figure 8's mechanism).
        self.recent_start_times: List[float] = []

    @property
    def vm_count(self) -> int:
        """Number of virtual machines configured on this node."""
        return len(self.vms)

    @property
    def cores(self) -> int:
        """Physical core count (shared by all VMs)."""
        return self.host.cores

    def idle_vms(self) -> List[VirtualMachine]:
        """VMs currently available for new work."""
        idle = VmState.IDLE.value
        return [vm for vm in self.vms if vm.state_value == idle]

    def dropped_any(self) -> bool:
        """Whether any VM on this node has dropped a job (Figure 8)."""
        return any(vm.jobs_dropped > 0 for vm in self.vms)

    def describe(self) -> dict:
        """Static attributes, as advertised to a collector or the CAS.

        These are the reboot-invariant attributes the paper says CondorJ2
        records historically whenever a machine restarts (section 5.2.2).
        """
        return {
            "name": self.name,
            "arch": self.arch,
            "opsys": self.opsys,
            "cores": self.host.cores,
            "memory_mb": self.host.memory_mb,
            "speed": self.host.speed,
            "vm_count": self.vm_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PhysicalNode {self.name} cores={self.cores} vms={self.vm_count}>"
