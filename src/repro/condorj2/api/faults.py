"""The structured fault taxonomy of the CAS web-services tier.

The paper's gSOAP stack reports failures as SOAP faults; the original
reproduction reduced them to one stringly-typed exception.  Contract-first
dispatch needs more: clients decide *per operation in a batch* whether to
retry, skip or surface an error, and the pool statistics page reports
fault rates by class.  Every fault therefore carries

* a **code** — one of the five top-level classes below, stable across
  versions and safe to dispatch on;
* a **subcode** — a finer, kebab-case discriminator within the class
  (:data:`FAULT_SUBCODES` is the registry that API.md documents);
* a **detail** string for humans.

This module is deliberately import-free (stdlib only): the SOAP codec,
the contract registry and the gateway all depend on it, so it must sit
below all of them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class FaultCode:
    """Top-level fault classes (the wire-visible ``code`` attribute)."""

    #: The envelope or payload could not be decoded at all.
    MALFORMED = "MALFORMED"
    #: The operation name is not in the contract registry.
    UNKNOWN_OP = "UNKNOWN_OP"
    #: The payload decoded but does not satisfy the operation's schema.
    VALIDATION = "VALIDATION"
    #: The request is well-formed but conflicts with current state
    #: (missing tuple, illegal state transition).
    CONFLICT = "CONFLICT"
    #: Anything else: server-side failure, transport failure, a handler
    #: response that failed its own response schema.
    INTERNAL = "INTERNAL"


#: All top-level codes, in severity-ish order.
FAULT_CODES: Tuple[str, ...] = (
    FaultCode.MALFORMED,
    FaultCode.UNKNOWN_OP,
    FaultCode.VALIDATION,
    FaultCode.CONFLICT,
    FaultCode.INTERNAL,
)

#: The per-fault subcode registry: every subcode the system emits, with a
#: one-line meaning.  API.md renders this table; tests pin emitted
#: subcodes against it so new fault paths cannot ship undocumented.
FAULT_SUBCODES: Dict[str, Dict[str, str]] = {
    FaultCode.MALFORMED: {
        "bad-envelope": "the SOAP envelope does not parse",
        "bad-element": "an element inside the envelope does not decode",
        "non-string-key": "a struct payload carries a non-string key",
        "unserialisable": "a payload value has no wire representation",
        "missing-operation": "the request names no operation",
        "too-deep": "elements nest deeper than the codec's fixed bound",
    },
    FaultCode.UNKNOWN_OP: {
        "unregistered": "no contract is registered under this name",
    },
    FaultCode.VALIDATION: {
        "missing-field": "a required request field is absent",
        "wrong-type": "a field value has the wrong type",
        "unknown-field": "the payload carries an undeclared field",
        "bad-value": "a field value is outside its declared domain",
        "not-a-struct": "the payload is not the struct the schema expects",
        "not-batchable": "the operation may not ride a batch envelope",
    },
    FaultCode.CONFLICT: {
        "not-found": "a referenced tuple does not exist",
        "illegal-state": "the request implies an illegal state transition",
    },
    FaultCode.INTERNAL: {
        "server-error": "unclassified server-side failure",
        "transport": "the RPC transport failed",
        "response-validation": "a handler response failed its own schema "
                               "or has no wire form",
        "budget-exceeded": "observed statement dispatches exceeded the "
                           "operation's declared budget",
    },
}


class ServiceFault(Exception):
    """Base class for every fault the service tier raises.

    ``str(fault)`` renders ``CODE/subcode: detail`` so legacy callers
    that match on the message keep working; structured callers read
    :attr:`code` and :attr:`subcode` instead.
    """

    code: str = FaultCode.INTERNAL
    default_subcode: str = "server-error"

    def __init__(self, detail: str = "", *, subcode: str = "",
                 operation: str = ""):
        self.detail = detail
        self.subcode = subcode or self.default_subcode
        self.operation = operation
        super().__init__(detail)

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return f"{self.code}/{self.subcode}: {self.detail}"


class MalformedFault(ServiceFault):
    """The request could not be decoded (:data:`FaultCode.MALFORMED`)."""

    code = FaultCode.MALFORMED
    default_subcode = "bad-envelope"


class UnknownOperationFault(ServiceFault):
    """No contract registered under the requested operation name."""

    code = FaultCode.UNKNOWN_OP
    default_subcode = "unregistered"


class ValidationFault(ServiceFault):
    """The payload does not satisfy the operation's request schema."""

    code = FaultCode.VALIDATION
    default_subcode = "bad-value"


class ConflictFault(ServiceFault):
    """Well-formed request, but it conflicts with current store state."""

    code = FaultCode.CONFLICT
    default_subcode = "not-found"


class InternalFault(ServiceFault):
    """Server-side failure unrelated to the request's form."""

    code = FaultCode.INTERNAL
    default_subcode = "server-error"


_FAULT_CLASSES = {
    FaultCode.MALFORMED: MalformedFault,
    FaultCode.UNKNOWN_OP: UnknownOperationFault,
    FaultCode.VALIDATION: ValidationFault,
    FaultCode.CONFLICT: ConflictFault,
    FaultCode.INTERNAL: InternalFault,
}


def fault_from_code(code: str, detail: str, subcode: str = "",
                    operation: str = "") -> ServiceFault:
    """Reconstruct the typed fault a wire-level (code, subcode) names.

    Unknown codes collapse to :class:`InternalFault` rather than raising:
    a *decoder* must never turn a reply it can read into a crash just
    because the server is newer than the client.
    """
    cls = _FAULT_CLASSES.get(code, InternalFault)
    fault = cls(detail, operation=operation)
    if subcode:
        fault.subcode = subcode
    return fault
