"""The service gateway: a fixed pipeline over the contract registry.

Dispatch used to be one dict lookup handing raw payloads to handlers;
it is now the pipeline the paper's container stack implies::

    decode -> validate request -> meter -> handler -> validate response -> encode

The envelope codec (decode/encode) stays at the transport boundary in
``web/soap.py``; everything between lives here, in
:meth:`ServiceGateway.dispatch` over
:class:`~repro.condorj2.api.contracts.ContractRegistry`, in this order:

* **validate** — the request payload is checked against the operation's
  request schema (defaults applied), and batch membership is checked
  against the contract's ``batchable`` flag;
* **meter** — per-operation call/fault/latency statistics, per-fault-code
  tallies, and the per-op share of the storage engine's statement ledger,
  held to the contract's ``statement_budget`` once the call succeeds;
* **translate** — storage/service exceptions become the structured fault
  taxonomy (``CONFLICT`` for missing tuples and illegal transitions,
  ``INTERNAL`` for engine failures, ``VALIDATION`` for bad values);
* **validate response** — a handler reply that fails its own response
  schema is a *server* bug and surfaces as ``INTERNAL/response-validation``,
  never as a silently malformed reply; so does one that passes it but
  holds a value the envelope codec cannot encode (the CAS finds out when
  it encodes the reply and calls :meth:`ServiceGateway.refuse_reply`).

The gateway also executes the multiplexed **batch envelope**: N
independent operations in one transport round-trip, each validated and
dispatched separately, with per-op results and faults (one op failing
does not poison its siblings — every handler runs in its own
transaction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.condorj2.api.contracts import ContractRegistry, OperationContract
from repro.condorj2.api.faults import (
    ConflictFault,
    InternalFault,
    ServiceFault,
    UnknownOperationFault,
    ValidationFault,
)
from repro.condorj2.database import DatabaseError, RowNotFound, RowStateError

#: Pseudo-operations under which protocol-level faults are metered (the
#: request never resolved to a real operation, but the stats page still
#: has to show it happened).
MALFORMED_OP = "(malformed)"
UNKNOWN_OP = "(unknown)"


@dataclass
class OperationStats:
    """Meter readings for one operation (or protocol pseudo-op)."""

    #: Dispatch attempts: every envelope that named this operation,
    #: whether or not it survived validation.  The fault-rate denominator.
    attempts: int = 0
    #: Validated dispatches that reached the handler.
    calls: int = 0
    faults: int = 0
    fault_codes: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent inside the handler (real time: the
    #: Python cost of the HTTP-to-SQL transformation itself).
    handler_seconds: float = 0.0
    max_handler_seconds: float = 0.0
    #: Simulated seconds charged to the server host for this operation's
    #: dispatches (validation overhead + SQL CPU + commit IO).
    sim_seconds: float = 0.0
    #: Storage-engine work attributed to this operation.
    statements: int = 0
    row_work: int = 0
    #: Most statements any single call of this operation dispatched —
    #: the observed peak the declared budget must dominate.
    max_statements: int = 0
    #: Calls whose dispatch count exceeded the contract's declared
    #: ``statement_budget`` (each also raised INTERNAL/budget-exceeded).
    budget_overruns: int = 0

    def count_fault(self, code: str) -> None:
        self.faults += 1
        self.fault_codes[code] = self.fault_codes.get(code, 0) + 1

    @property
    def fault_rate(self) -> float:
        return self.faults / self.attempts if self.attempts else 0.0

    @property
    def mean_handler_seconds(self) -> float:
        return self.handler_seconds / self.calls if self.calls else 0.0


@dataclass
class BatchItem:
    """Per-op outcome of a batch envelope: a result or a fault."""

    operation: str
    result: Any = None
    fault: Optional[ServiceFault] = None

    @property
    def ok(self) -> bool:
        return self.fault is None


class ServiceGateway:
    """Validated, metered dispatch over the contract registry."""

    def __init__(self, registry: ContractRegistry, counts, costs):
        self.registry = registry
        #: The storage engine's :class:`StatementCounts`: metering
        #: attributes statement work per operation.
        self.counts = counts
        #: The :class:`CasCostModel`: metering converts that work into
        #: simulated seconds.
        self.costs = costs
        self.stats: Dict[str, OperationStats] = {}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(self, operation: str, payload: Any, now: float,
                 in_batch: bool = False) -> Any:
        """Run one operation through the full pipeline: validate the
        request, meter the handler call, hold it to its budget.

        Returns the (response-validated) reply payload; raises a
        :class:`ServiceFault` subclass on any failure.
        """
        try:
            contract = self.registry.contract(operation)
        except UnknownOperationFault:
            self._record_fault(UNKNOWN_OP, UnknownOperationFault.code)
            raise
        if in_batch and not contract.batchable:
            self._record_fault(operation, ValidationFault.code)
            raise ValidationFault(
                f"{operation} may not ride a batch envelope",
                subcode="not-batchable", operation=operation,
            )
        try:
            payload = contract.request.validate(payload, operation=operation)
        except ValidationFault:
            self._record_fault(operation, ValidationFault.code)
            raise

        stats = self._stats_for(operation)
        stats.attempts += 1
        stats.calls += 1
        # A scalar mark, not a snapshot: everything read below (budget,
        # row work, the cost model) is a scalar, so no ledger is copied.
        mark = self.counts.mark()
        started = time.perf_counter()
        try:
            result = self._call_handler(contract, operation, payload, now)
        except ServiceFault as fault:
            stats.count_fault(fault.code)
            raise
        finally:
            elapsed = time.perf_counter() - started
            stats.handler_seconds += elapsed
            stats.max_handler_seconds = max(stats.max_handler_seconds,
                                            elapsed)
            delta = self.counts.since(mark)
            dispatched = delta.statements
            stats.statements += dispatched
            stats.max_statements = max(stats.max_statements, dispatched)
            stats.row_work += delta.total()
            stats.sim_seconds += (
                self.costs.contract_validate_seconds
                + self.costs.sql_cost_seconds(delta)
                + self.costs.io_cost_seconds(delta)
            )

        # The statement budget (DESIGN.md section 9.2), asserted on every
        # live call on whichever engine is wired in.  Enforced on the
        # success path only, after the finally block: raising from inside
        # `finally` would swallow a handler fault, and a faulted call
        # already reports its own (likelier root) cause.
        budget = contract.statement_budget
        if dispatched > budget:
            stats.budget_overruns += 1
            stats.count_fault(InternalFault.code)
            raise InternalFault(
                f"{operation} dispatched {dispatched} statements "
                f"against a budget of {budget}",
                subcode="budget-exceeded", operation=operation,
            )
        return result

    def dispatch_batch(self, calls: Sequence[Tuple[str, Any]],
                       now: float, in_batch: bool = True) -> List[BatchItem]:
        """Execute a multiplexed batch: per-op results and faults.

        Operations run in envelope order; a fault in one op is captured
        in its :class:`BatchItem` and the rest still run.  ``in_batch``
        is False when the caller is reusing this per-op machinery for a
        single-op envelope (batchability is then not enforced).
        """
        items: List[BatchItem] = []
        for operation, payload in calls:
            try:
                result = self.dispatch(operation, payload, now,
                                       in_batch=in_batch)
                items.append(BatchItem(operation, result=result))
            except ServiceFault as fault:
                items.append(BatchItem(operation, fault=fault))
        return items

    def _call_handler(self, contract: OperationContract, operation: str,
                      payload: Any, now: float) -> Any:
        """The handler's response-validated reply, with storage and service
        exceptions translated into the fault taxonomy."""
        try:
            result = self.registry.handler(operation)(payload, now)
            try:
                return contract.response.validate(result, operation=operation)
            except ValidationFault as exc:
                raise InternalFault(
                    f"{operation} response failed its schema: {exc.detail}",
                    subcode="response-validation", operation=operation,
                ) from exc
        except ServiceFault as fault:
            fault.operation = fault.operation or operation
            raise
        except RowNotFound as exc:
            raise ConflictFault(str(exc), subcode="not-found",
                                operation=operation) from exc
        except RowStateError as exc:
            raise ConflictFault(str(exc), subcode="illegal-state",
                                operation=operation) from exc
        except ValueError as exc:
            # A value the client sent breaks a rule of the handler's.
            raise ValidationFault(str(exc), subcode="bad-value",
                                  operation=operation) from exc
        except DatabaseError as exc:
            raise InternalFault(str(exc), subcode="server-error",
                                operation=operation) from exc

    # ------------------------------------------------------------------
    # metering interface
    # ------------------------------------------------------------------
    def _stats_for(self, operation: str) -> OperationStats:
        stats = self.stats.get(operation)
        if stats is None:
            stats = self.stats[operation] = OperationStats()
        return stats

    def _record_fault(self, operation: str, code: str) -> None:
        """Meter a fault raised before the handler was ever reached
        (validation, unknown op, malformed envelope) — it counts as an
        attempt but not as a call."""
        stats = self._stats_for(operation)
        stats.attempts += 1
        stats.count_fault(code)

    def refuse_reply(self, item: BatchItem, refused: ServiceFault) -> None:
        """Turn ``item``'s result, which passed its schema but has no
        wire form, into an ``INTERNAL/response-validation`` fault,
        metered as a fault of its operation (the call is already
        counted)."""
        fault = InternalFault(
            f"{item.operation} response has no wire form: {refused.detail}",
            subcode="response-validation", operation=item.operation,
        )
        self._stats_for(item.operation).count_fault(fault.code)
        item.result, item.fault = None, fault

    def record_malformed(self, fault: ServiceFault) -> None:
        """Meter an envelope that never resolved to an operation."""
        self._record_fault(MALFORMED_OP, fault.code)

    def record_sim_charge(self, operation: str, seconds: float) -> None:
        """Attribute additional simulated seconds (transport share) to
        ``operation`` — the application server calls this after charging
        its host."""
        if seconds > 0:
            self._stats_for(operation).sim_seconds += seconds
