"""The CondorJ2 Application Server (CAS).

"The focal point of the entire communication flow is the Application
Server whose most basic system function is to transform HTTP requests into
SQL statements" (section 4.2.3).  This class is that transformation
engine: a network endpoint that

1. takes a thread from the container's thread pool,
2. parses the SOAP envelope (user CPU),
3. borrows a pooled database connection,
4. dispatches to the application-logic layer, which executes *real* SQL
   against the SQLite store,
5. charges user CPU per statement and disk time per commit, and
6. encodes the response envelope.

It also runs the server-side periodic work: the set-oriented scheduling
pass, the database background process responsible for Figure 10's
two-hour spikes, and the one-time startup costs behind Figure 10's
initial spike.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.condorj2.api.faults import (
    MalformedFault,
    ServiceFault,
    UnknownOperationFault,
)
from repro.condorj2.api.gateway import MALFORMED_OP, UNKNOWN_OP
from repro.condorj2.costs import CasCostModel
from repro.condorj2.database import Database
from repro.condorj2.logic import (
    ConfigService,
    HeartbeatService,
    LifecycleService,
    ReportService,
    SchedulingService,
    SubmissionService,
)
from repro.condorj2.web.services import WebServiceRegistry
from repro.condorj2.web.site import PoolWebSite
from repro.condorj2.web.soap import (
    decode_envelope,
    encode_batch_response,
    encode_response,
    envelope_size,
)
from repro.sim.cpu import Host, TAG_USER
from repro.sim.kernel import Acquire, Delay, Simulator
from repro.sim.monitor import EventLog
from repro.sim.network import Message, Network
from repro.sim.resources import Resource


class CondorJ2ApplicationServer:
    """The CAS: container, services, endpoint and periodic processes."""

    entity_kind = "cas"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        network: Network,
        database: Optional[Database] = None,
        costs: Optional[CasCostModel] = None,
        address: str = "cas",
        log: Optional[EventLog] = None,
    ):
        self.sim = sim
        self.host = host
        self.network = network
        self.address = address
        self.costs = costs or CasCostModel()
        # The backend is deployment configuration the cost model carries.
        self.db = database or Database(
            backend=self.costs.storage_backend or None)
        self.log = log if log is not None else EventLog()

        # container plumbing
        self.threads = Resource(sim, self.costs.thread_pool_size, name="cas.threads")
        self.connections = Resource(
            sim, self.costs.connection_pool_size, name="cas.connections"
        )

        # the layered services (logic layer over the persistence layer)
        self.submission = SubmissionService(self.db)
        self.scheduling = SchedulingService(self.db)
        self.lifecycle = LifecycleService(self.db, log=self.log)
        self.heartbeat = HeartbeatService(
            self.db, self.scheduling, self.lifecycle
        )
        self.reports = ReportService(self.db)
        self.config = ConfigService(self.db)
        self.registry = WebServiceRegistry(
            self.submission,
            self.scheduling,
            self.heartbeat,
            self.lifecycle,
            self.reports,
            self.config,
            costs=self.costs,
        )
        self.gateway = self.registry.gateway
        self.site = PoolWebSite(self.reports, self.config,
                                gateway=self.gateway)

        self.requests_handled = 0
        self.faults_returned = 0
        self._started = False
        network.register(self)

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the server: startup costs, then periodic processes."""
        if self._started:
            return
        self._started = True
        self.config.install_defaults(
            self.sim.now,
            {
                "storage_backend": self.db.engine.name,
                "scheduling_interval_seconds": str(
                    self.costs.scheduling_interval_seconds
                ),
            },
        )
        self.sim.spawn(self._startup(), name="cas.startup")
        self.sim.spawn(self._scheduler_loop(), name="cas.scheduler")
        self.sim.spawn(self._db_background_loop(), name="cas.db-background")

    def _startup(self) -> Generator:
        if self.costs.startup_cpu_seconds > 0:
            yield self.host.occupy(self.costs.startup_cpu_seconds, TAG_USER)
        if self.costs.startup_io_seconds > 0:
            yield self.host.disk_io(self.costs.startup_io_seconds)

    def _scheduler_loop(self) -> Generator:
        """Periodic set-oriented scheduling pass (Table 2, steps 5-6)."""
        while True:
            yield Delay(self.costs.scheduling_interval_seconds)
            yield Acquire(self.connections)
            try:
                mark = self.db.counts.mark()
                created = self.scheduling.run_pass(self.sim.now)
                delta = self.db.counts.since(mark)
            finally:
                self.connections.release()
            if created:
                self.network.record_local(
                    "cas", "database", "sql",
                    description=f"scheduling pass: {created} matches",
                )
            cpu = self.costs.sql_cost_seconds(delta)
            if cpu > 0:
                yield self.host.occupy(cpu, TAG_USER)
            io = self.costs.io_cost_seconds(delta)
            if io > 0:
                yield self.host.disk_io(io)
            if created:
                self.log.record(self.sim.now, "scheduling_pass", matches=created)

    def _db_background_loop(self) -> Generator:
        """The DBMS's own periodic maintenance (Figure 10's 2 h spikes).

        Fires on an absolute schedule ("almost exactly two-hour
        intervals"), so the burst duration does not drift the period.
        """
        next_run = self.sim.now + self.costs.db_background_interval_seconds
        while True:
            yield Delay(max(0.0, next_run - self.sim.now))
            next_run += self.costs.db_background_interval_seconds
            self.log.record(self.sim.now, "db_background_run")
            yield self.host.occupy(self.costs.db_background_cpu_seconds, TAG_USER)
            yield self.host.disk_io(self.costs.db_background_io_seconds)

    # ------------------------------------------------------------------
    # endpoint protocol
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        """One-way messages are not part of the CondorJ2 protocol."""
        self.log.record(self.sim.now, "unexpected_oneway", kind=message.kind)

    def handle_request(self, message: Message) -> Generator:
        """Serve one SOAP envelope end to end (HTTP -> SQL -> HTTP).

        The envelope may be a single operation or a multiplexed batch;
        either way the cost model charges **one transport** (parse by
        envelope size, one kernel share, one response encode) plus **N
        validated dispatches** (per-op contract validation and the SQL
        the handlers actually executed).
        """
        envelope: str = message.payload
        size = envelope_size(envelope)
        yield Acquire(self.threads)
        try:
            yield self.host.occupy(self.costs.parse_cost_seconds(size), TAG_USER)
            yield self.host.system_work(
                self.costs.system_seconds_per_call * self.host.speed
            )
            try:
                is_batch, calls = decode_envelope(envelope)
            except ServiceFault as fault:
                # The malformed envelope consumed real parse CPU above;
                # meter it and answer with the typed fault.
                self.gateway.record_malformed(fault)
                self.faults_returned += 1
                yield self.host.occupy(self.costs.response_encode_seconds,
                                       TAG_USER)
                # ...and attribute that parse + encode CPU to the
                # "(malformed)" pseudo-op so per-op sim seconds keep
                # reconciling with the total host charge.
                self.gateway.record_sim_charge(
                    MALFORMED_OP,
                    self.costs.parse_cost_seconds(size)
                    + self.costs.response_encode_seconds,
                )
                return encode_response("", None, fault=fault)

            yield Acquire(self.connections)
            try:
                mark = self.db.counts.mark()
                items = self.gateway.dispatch_batch(calls, self.sim.now,
                                                    in_batch=is_batch)
                delta = self.db.counts.since(mark)
            finally:
                self.connections.release()

            if delta.total() > 0:
                # The JDBC hop is in-process but it is a Table 2 channel:
                # "CAS inserts a job tuple into database".
                ops = ",".join(operation for operation, _ in calls)
                self.network.record_local(
                    "cas", "database", "sql",
                    description=f"{ops}: {delta.statements} statements",
                )
            sql_cpu = (
                self.costs.sql_cost_seconds(delta)
                + self.costs.contract_validate_seconds * len(calls)
            )
            if sql_cpu > 0:
                yield self.host.occupy(sql_cpu, TAG_USER)
            io = self.costs.io_cost_seconds(delta)
            if io > 0:
                yield self.host.disk_io(io)
            yield self.host.occupy(self.costs.response_encode_seconds, TAG_USER)
            # Attribute the shared transport cost across the envelope's
            # operations so the per-op meter reflects true server load.
            transport = (
                self.costs.parse_cost_seconds(size)
                + self.costs.response_encode_seconds
            ) / len(calls)
            for item in items:
                # Unresolved names are charged to the "(unknown)"
                # pseudo-op the fault meter used — never to arbitrary
                # client-supplied strings (which would grow the stats
                # table unboundedly with orphan rows).
                target = item.operation
                if (item.fault is not None
                        and item.fault.code == UnknownOperationFault.code):
                    target = UNKNOWN_OP
                self.gateway.record_sim_charge(target, transport)

            self.requests_handled += 1
            try:
                reply = self._encode_reply(is_batch, items)
            except MalformedFault:
                # A reply that passed its schema can still hold a value
                # with no wire form (an ``allow_extra`` field): answer
                # each such operation with a fault rather than no reply.
                for item in items:
                    if item.ok:
                        try:
                            encode_response(item.operation, item.result)
                        except MalformedFault as refused:
                            self.gateway.refuse_reply(item, refused)
                reply = self._encode_reply(is_batch, items)
            self.faults_returned += sum(1 for item in items if not item.ok)
            return reply
        finally:
            self.threads.release()

    @staticmethod
    def _encode_reply(is_batch: bool, items) -> str:
        if is_batch:
            return encode_batch_response(
                [(item.operation, item.result, item.fault) for item in items]
            )
        item = items[0]
        if item.fault is not None:
            return encode_response(item.operation, None, fault=item.fault)
        return encode_response(item.operation, item.result)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def utilization(self, until: Optional[float] = None):
        """Per-minute CPU samples for the server host (Figures 9 and 10)."""
        return self.host.utilization(until=until)
