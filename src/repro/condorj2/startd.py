"""The modified startd/starter pair: CondorJ2's pull-model execute client.

"The daemons on the execute nodes are the Condor version 6.7.x startd and
starter modified to communicate with the CAS using the gSOAP library"
(section 5.2).  One startd runs per physical machine and manages all its
VMs.  The protocol is Table 2's:

* register on boot (machine + VM tuples created, boot history recorded);
* heartbeat periodically — and immediately after job events — carrying VM
  states and any completions/drops;
* when the response says MATCHINFO, accept every match in **one
  multiplexed batch envelope** (one round-trip for N acceptMatch ops,
  where the original protocol paid N) and spawn a starter per accepted
  job; "execution began" (step 11) is a ``started`` event on the *next*
  heartbeat, like every other job event.

"Execute nodes in CondorJ2 always initiate any interaction they have with
the CAS" — there is no server-push path anywhere below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cluster.execution import ExecutionModel, ExecutionOutcome
from repro.cluster.job import JobSpec
from repro.cluster.machine import PhysicalNode, VirtualMachine, VmState
from repro.condorj2.web.soap import (
    ServiceFault,
    decode_batch_response,
    decode_response,
    encode_batch_request,
    encode_request,
)
from repro.condorj2.web.transport import rpc_roundtrip
from repro.sim.kernel import Delay, Signal, Simulator, Spawn, Wait
from repro.sim.monitor import EventLog
from repro.sim.network import Network


@dataclass
class StartdConfig:
    """Client-side intervals for the pull protocol."""

    #: Heartbeat period while any VM is idle (poll for matches).
    idle_poll_seconds: float = 2.0
    #: Heartbeat period while all VMs are busy (liveness + job info).
    busy_heartbeat_seconds: float = 60.0
    #: Send the full VM state table every N beats; in between only
    #: changed VMs are reported (keeps 200-VM machines from flooding the
    #: CAS with redundant updates).
    full_state_every_beats: int = 5
    #: Safety cap on consecutive RPC failures before the startd gives up.
    max_consecutive_failures: int = 25


class CondorJ2Startd:
    """One startd endpoint per physical node."""

    entity_kind = "startd"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: PhysicalNode,
        cas_address: str = "cas",
        execution: Optional[ExecutionModel] = None,
        config: Optional[StartdConfig] = None,
        log: Optional[EventLog] = None,
    ):
        self.sim = sim
        self.network = network
        self.node = node
        self.cas_address = cas_address
        self.execution = execution or ExecutionModel()
        self.config = config or StartdConfig()
        self.log = log if log is not None else EventLog()
        self.address = f"startd@{node.name}"
        self._pending_events: List[Dict[str, Any]] = []
        self._wake: Signal = Signal(f"{self.address}.wake")
        self._jobs_by_id: Dict[int, JobSpec] = {}
        self._last_reported: Dict[str, str] = {}
        self._beats = 0
        self.rpc_failures = 0
        self.running = False
        network.register(self)

    # ------------------------------------------------------------------
    # endpoint protocol (the startd never receives pushes in CondorJ2)
    # ------------------------------------------------------------------
    def on_message(self, message) -> None:
        """Ignore stray one-way messages (there are none in the protocol)."""

    def handle_request(self, message) -> Generator:
        """The CAS never calls the startd; yield nothing, return a fault."""
        return "unsupported"
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the startd: register with the CAS, then heartbeat forever."""
        if self.running:
            return
        self.running = True
        self.sim.spawn(self._main_loop(), name=self.address)

    def _call(self, operation: str, payload: Any) -> Generator:
        """Invoke a CAS web service; returns the decoded response payload.

        Raises :class:`ServiceFault` on remote faults and transport errors so
        the caller can decide how to recover.
        """
        return (yield from rpc_roundtrip(
            self, operation, encode_request(operation, payload),
            decode_response,
        ))

    def _call_batch(
        self, calls: List[Tuple[str, Dict[str, Any]]]
    ) -> Generator:
        """Invoke N operations in one multiplexed envelope (one
        round-trip); returns per-op payloads and fault objects in order.

        Raises :class:`ServiceFault` only on *transport* failure — per-op
        faults are returned in place so siblings still count.
        """
        return (yield from rpc_roundtrip(
            self, "batch", encode_batch_request(calls),
            decode_batch_response,
        ))

    def _vm_states_payload(self) -> List[Dict[str, Any]]:
        """Changed VM states since the last beat (full table every Nth)."""
        self._beats += 1
        # Beats 1, N+1, 2N+1, ...: the first beat is always full.
        every = max(1, self.config.full_state_every_beats)
        full = (self._beats - 1) % every == 0
        last = self._last_reported
        payload: List[Dict[str, Any]] = []
        for vm in self.node.vms:
            vm_id, state = vm.vm_id, vm.state_value
            if full or last.get(vm_id) != state:
                payload.append({"vm_id": vm_id, "state": state})
                last[vm_id] = state
        return payload

    def _heartbeat_payload(self) -> Dict[str, Any]:
        events, self._pending_events = self._pending_events, []
        return {
            "machine": self.node.name,
            "vms": self._vm_states_payload(),
            "events": events,
        }

    def _main_loop(self) -> Generator:
        try:
            yield from self._call("registerMachine", self.node.describe())
        except ServiceFault:
            self.rpc_failures += 1
            self.running = False
            return
        failures = 0
        while self.running:
            payload = self._heartbeat_payload()
            try:
                response = yield from self._call("heartbeat", payload)
                failures = 0
            except ServiceFault:
                # Requeue the events we drained so the next beat resends
                # them — the transactional no-lost-jobs guarantee depends
                # on the client retrying until the server confirms.  The
                # slot states it carried were never confirmed either:
                # forget them, so the next beat sends them again.
                self._pending_events = payload["events"] + self._pending_events
                for vm_state in payload["vms"]:
                    self._last_reported.pop(vm_state["vm_id"], None)
                failures += 1
                self.rpc_failures += 1
                if failures >= self.config.max_consecutive_failures:
                    self.running = False
                    return
                yield Delay(self.config.idle_poll_seconds)
                continue

            if response.get("status") == "MATCHINFO":
                yield from self._accept_matches(response.get("matches", ()))

            interval = (
                self.config.idle_poll_seconds
                if self.node.idle_vms()
                else self.config.busy_heartbeat_seconds
            )
            self._wake = Signal(f"{self.address}.wake")
            yield Wait(self._wake, timeout=interval)

    def _accept_matches(self, matches) -> Generator:
        """Accept every usable match in one batch envelope, then spawn
        starters; each start is a ``started`` event on the next heartbeat.

        Where the original protocol paid one round-trip per match, the
        multiplexed envelope pays one for the whole MATCHINFO response —
        per-op faults (a match raced away, an illegal transition) skip
        just their own match.
        """
        vms_by_id = {vm.vm_id: vm for vm in self.node.vms}
        accepted: List[tuple] = []
        for match in matches:
            vm = vms_by_id.get(match["vm_id"])
            if vm is None or vm.state != VmState.IDLE:
                continue
            accepted.append((match, vm))
        if not accepted:
            return
        try:
            results = yield from self._call_batch([
                ("acceptMatch",
                 {"job_id": match["job_id"], "vm_id": match["vm_id"]})
                for match, _ in accepted
            ])
        except ServiceFault:
            self.rpc_failures += 1
            return
        for (match, vm), response in zip(accepted, results):
            if isinstance(response, ServiceFault):
                self.rpc_failures += 1
                continue
            if response.get("status") != "OK":
                continue
            spec = JobSpec(
                owner=match.get("owner", "user"),
                cmd=match.get("cmd", "/bin/science"),
                run_seconds=float(match["run_seconds"]),
            )
            # Keep the server-assigned id: the starter reports against it.
            spec.job_id = match["job_id"]
            self._jobs_by_id[spec.job_id] = spec
            self.network.record_local(
                "startd", "starter", "spawn", description="startd spawns starter"
            )
            yield Spawn(self._starter(vm, spec), f"starter:{spec.job_id}")
            # Table 2, step 11: the startd tells the CAS execution has
            # begun — on the next heartbeat, not a round-trip of its own.
            self._pending_events.append(
                {"kind": "started", "job_id": spec.job_id, "vm_id": vm.vm_id}
            )

    def _starter(self, vm: VirtualMachine, spec: JobSpec) -> Generator:
        """The starter: run the job environment and report the outcome."""
        outcome: ExecutionOutcome = yield from self.execution.run_job(
            self.sim, vm, spec
        )
        self._jobs_by_id.pop(spec.job_id, None)
        if outcome.ok:
            self._pending_events.append(
                {"kind": "completed", "job_id": spec.job_id, "vm_id": vm.vm_id}
            )
            self.log.record(self.sim.now, "starter_completed", job_id=spec.job_id)
        else:
            self._pending_events.append(
                {
                    "kind": "dropped",
                    "job_id": spec.job_id,
                    "vm_id": vm.vm_id,
                    "reason": outcome.reason,
                }
            )
            self.log.record(self.sim.now, "starter_dropped", job_id=spec.job_id)
        # Wake the heartbeat loop so the event reaches the CAS immediately.
        if not self._wake.fired:
            self._wake.fire()

    def stop(self) -> None:
        """Administratively stop the heartbeat loop (machine shutdown)."""
        self.running = False
