"""Message transport between simulated entities.

Both systems in the paper are glued together by messages: Condor daemons
exchange ClassAd updates and match notifications over sockets; CondorJ2's
startds invoke SOAP web services on the application server over HTTP.  This
module provides the shared transport:

* fire-and-forget :meth:`Network.send` (daemon-to-daemon notifications),
* blocking :meth:`Network.request` RPCs (SOAP calls, query/response),
* a :class:`MessageTrace` recording every hop — the raw material for the
  paper's Tables 1 and 2, which count the communication channels and
  entities involved in shepherding one job through each system.

Local interactions that never touch the wire (a schedd forking a shadow, a
startd forking a starter) are recorded in the same trace via
:meth:`Network.record_local`, because the paper's channel counts include
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Generator, List, Optional, Protocol, Tuple

from repro.sim.errors import SimError
from repro.sim.kernel import Signal, Simulator


class NetworkError(SimError):
    """Raised for malformed network usage (unknown endpoint, etc.)."""


@dataclass(slots=True)
class Message:
    """One hop between two entities."""

    seq: int
    time: float
    src: str
    dst: str
    src_kind: str
    dst_kind: str
    kind: str
    payload: Any = None
    size_bytes: int = 256


@dataclass(slots=True)
class RpcResult:
    """Outcome of a :meth:`Network.request` call."""

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None


@dataclass
class TraceRecord:
    """A trace entry: either a network message or a local interaction."""

    time: float
    src_kind: str
    dst_kind: str
    kind: str
    local: bool = False
    description: str = ""


class MessageTrace:
    """Accumulates trace records and summarises channel/entity counts."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def add(self, record: TraceRecord) -> None:
        """Append one record to the trace."""
        self.records.append(record)

    def channels(self) -> FrozenSet[FrozenSet[str]]:
        """Distinct undirected entity-type pairs that exchanged data."""
        pairs = set()
        for record in self.records:
            pairs.add(frozenset((record.src_kind, record.dst_kind)))
        return frozenset(pairs)

    def entities(self) -> FrozenSet[str]:
        """Distinct entity types participating in the trace."""
        kinds = set()
        for record in self.records:
            kinds.add(record.src_kind)
            kinds.add(record.dst_kind)
        return frozenset(kinds)

    def steps(self) -> List[TraceRecord]:
        """Records in time order (ties keep insertion order)."""
        return sorted(self.records, key=lambda r: r.time)

    def count(self, kind: str) -> int:
        """Number of records with message kind ``kind``."""
        return sum(1 for record in self.records if record.kind == kind)


class Endpoint(Protocol):
    """Anything addressable on the network.

    ``address`` must be unique; ``entity_kind`` classifies the endpoint for
    channel accounting ("schedd", "startd", "cas", "user", ...).
    """

    address: str
    entity_kind: str

    def on_message(self, message: Message) -> None:
        """Handle a fire-and-forget message."""
        ...  # pragma: no cover - protocol definition

    def handle_request(self, message: Message) -> Generator:
        """Coroutine handling an RPC; its return value is the response."""
        ...  # pragma: no cover - protocol definition


@dataclass
class LatencyModel:
    """Constant-plus-per-byte latency with optional seeded jitter."""

    base_seconds: float = 0.001
    per_byte_seconds: float = 0.0
    jitter_fraction: float = 0.0

    def delay(self, size_bytes: int, rng) -> float:
        """Latency for one hop of ``size_bytes``."""
        latency = self.base_seconds + self.per_byte_seconds * size_bytes
        if self.jitter_fraction > 0.0 and rng is not None:
            latency *= 1.0 + rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return max(0.0, latency)


class Network:
    """The simulated transport connecting all endpoints."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        trace: Optional[MessageTrace] = None,
    ):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.trace = trace
        self._endpoints: Dict[str, Endpoint] = {}
        self._seq = itertools.count()
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, endpoint: Endpoint) -> None:
        """Make ``endpoint`` addressable.  Addresses must be unique."""
        if endpoint.address in self._endpoints:
            raise NetworkError(f"duplicate address {endpoint.address!r}")
        self._endpoints[endpoint.address] = endpoint

    def unregister(self, address: str) -> None:
        """Remove an endpoint (e.g. a daemon that exited)."""
        self._endpoints.pop(address, None)

    def lookup(self, address: str) -> Endpoint:
        """Resolve an address, raising :class:`NetworkError` when unknown."""
        endpoint = self._endpoints.get(address)
        if endpoint is None:
            raise NetworkError(f"no endpoint at {address!r}")
        return endpoint

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def _make_message(
        self, src: Endpoint, dst: Endpoint, kind: str, payload: Any, size_bytes: int
    ) -> Message:
        return Message(
            seq=next(self._seq),
            time=self.sim.now,
            src=src.address,
            dst=dst.address,
            src_kind=src.entity_kind,
            dst_kind=dst.entity_kind,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
        )

    def _record(self, message: Message, description: str = "") -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        if self.trace is not None:
            self.trace.add(
                TraceRecord(
                    time=message.time,
                    src_kind=message.src_kind,
                    dst_kind=message.dst_kind,
                    kind=message.kind,
                    description=description or message.kind,
                )
            )

    def send(
        self,
        src: Endpoint,
        dst_address: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> None:
        """Deliver a one-way message after transport latency."""
        dst = self.lookup(dst_address)
        message = self._make_message(src, dst, kind, payload, size_bytes)
        self._record(message)
        delay = self.latency.delay(size_bytes, self.sim.rng.stream("network"))
        self.sim._after(delay, dst.on_message, message)

    def request(
        self,
        src: Endpoint,
        dst_address: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 512,
    ) -> Signal:
        """Issue an RPC; returns a :class:`Signal` firing with an RpcResult.

        The destination's :meth:`Endpoint.handle_request` coroutine runs as
        its own process; its return value travels back after response
        latency.  Exceptions inside the handler surface as a failed
        :class:`RpcResult` rather than crashing the caller.
        """
        dst = self.lookup(dst_address)
        message = self._make_message(src, dst, kind, payload, size_bytes)
        self._record(message)
        reply = Signal(name=f"rpc:{kind}")
        delay = self.latency.delay(size_bytes, self.sim.rng.stream("network"))
        self.sim._after(delay, self._deliver_request, dst, message, reply)
        return reply

    def _deliver_request(self, dst: Endpoint, message: Message, reply: Signal) -> None:
        process = self.sim.spawn(
            dst.handle_request(message), name=f"{dst.address}:{message.kind}"
        )

        def finish(_value: Any) -> None:
            if process.error is not None:
                result = RpcResult(ok=False, error=process.error)
            else:
                result = RpcResult(ok=True, value=process.result)
            response_delay = self.latency.delay(
                message.size_bytes, self.sim.rng.stream("network")
            )
            self.sim._after(response_delay, reply.fire, result)

        process.completion._subscribe(finish)

    def record_local(
        self, src_kind: str, dst_kind: str, kind: str, description: str = ""
    ) -> None:
        """Trace a local (same-machine) interaction such as a daemon fork."""
        if self.trace is not None:
            self.trace.add(
                TraceRecord(
                    time=self.sim.now,
                    src_kind=src_kind,
                    dst_kind=dst_kind,
                    kind=kind,
                    local=True,
                    description=description or kind,
                )
            )
