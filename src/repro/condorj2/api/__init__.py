"""Typed, versioned service contracts for the CAS web-services tier.

The package splits the old name->handler dict into layers:

* :mod:`repro.condorj2.api.faults` — the structured fault taxonomy
  (``MALFORMED``, ``UNKNOWN_OP``, ``VALIDATION``, ``CONFLICT``,
  ``INTERNAL`` + per-fault subcodes);
* :mod:`repro.condorj2.api.fields` — typed field descriptors and
  message schemas (the ``TABLE_DEFS`` idiom applied to messages);
* :mod:`repro.condorj2.api.contracts` — one declarative
  :class:`OperationContract` per operation: name, version, side-effect
  class, request/response schemas, batchability, routing key;
* :mod:`repro.condorj2.api.gateway` — the dispatch pipeline
  (validate -> meter -> translate -> handler -> validate response) and
  the multiplexed batch executor;
* :mod:`repro.condorj2.api.docs` — API.md generated from the registry.
"""

from repro.condorj2.api.contracts import (
    CONTRACTS,
    ContractRegistry,
    OperationContract,
)
from repro.condorj2.api.faults import (
    FAULT_CODES,
    FAULT_SUBCODES,
    ConflictFault,
    FaultCode,
    InternalFault,
    MalformedFault,
    ServiceFault,
    UnknownOperationFault,
    ValidationFault,
    fault_from_code,
)
from repro.condorj2.api.fields import FieldDef, SchemaDef
from repro.condorj2.api.gateway import (
    BatchItem,
    OperationStats,
    ServiceGateway,
)

__all__ = [
    "BatchItem",
    "CONTRACTS",
    "ConflictFault",
    "ContractRegistry",
    "FAULT_CODES",
    "FAULT_SUBCODES",
    "FaultCode",
    "FieldDef",
    "InternalFault",
    "MalformedFault",
    "OperationContract",
    "OperationStats",
    "SchemaDef",
    "ServiceFault",
    "ServiceGateway",
    "UnknownOperationFault",
    "ValidationFault",
    "fault_from_code",
]
