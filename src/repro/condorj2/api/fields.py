"""Typed field descriptors for web-service request/response schemas.

The operational schema describes tables as data (``schema.TABLE_DEFS``);
this module does the same for the *messages* the web-services tier
exchanges.  A :class:`SchemaDef` is a tuple of :class:`FieldDef`
descriptors — name, kind, optionality, default, nested structure — and
``validate`` checks a JSON-like payload against it, raising
:class:`~repro.condorj2.api.faults.ValidationFault` with a precise path
and subcode on the first violation.

Validation also *normalises*: declared defaults are filled in for absent
optional fields, so handlers downstream read ``payload["owner"]``
instead of re-deriving defaults — the contract, not the handler, owns
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.condorj2.api.faults import ValidationFault

#: Field kinds: the part of the SOAP codec's value space the contracts use.
KINDS = ("int", "float", "str", "list", "struct")

_NO_DEFAULT = object()


@dataclass(frozen=True)
class FieldDef:
    """One field of a request or response message."""

    name: str
    #: One of :data:`KINDS`.  ``float`` accepts ints (numeric widening);
    #: ``int`` rejects bools.
    kind: str
    required: bool = True
    #: Default filled in when an optional field is absent.
    default: Any = _NO_DEFAULT
    #: May the value be None even though the kind says otherwise?
    nullable: bool = False
    #: Item descriptor for ``list`` kinds.
    item: Optional["FieldDef"] = None
    #: Nested fields for ``struct`` kinds.
    fields: Tuple["FieldDef", ...] = ()
    #: Permitted values for enumerated string fields.
    enum: Tuple[str, ...] = ()

    @property
    def has_default(self) -> bool:
        return self.default is not _NO_DEFAULT


@dataclass(frozen=True)
class SchemaDef:
    """A message schema: the payload is a struct of these fields.

    ``nullable`` permits the whole payload to be None (e.g. a lookup
    response for a missing tuple).
    """

    name: str
    fields: Tuple[FieldDef, ...] = ()
    #: Tolerate undeclared keys (row-shaped payloads whose exact column
    #: set is the storage schema's business, not the API's).
    allow_extra: bool = False
    nullable: bool = False
    #: When set, the payload is not a fixed struct but a map with
    #: arbitrary string keys whose values all match this descriptor
    #: (e.g. the per-state counters of ``queueSummary``).
    map_item: Optional[FieldDef] = None

    def validate(self, payload: Any, operation: str = "") -> Any:
        """Check ``payload`` against the schema; returns the normalised
        payload (defaults applied).  Raises :class:`ValidationFault`."""
        if payload is None:
            if self.nullable:
                return None
            raise ValidationFault(
                f"{self.name}: payload must not be null",
                subcode="not-a-struct", operation=operation,
            )
        if self.map_item is not None:
            if not isinstance(payload, dict):
                _fail("not-a-struct", self.name,
                      f"expected map, got {type(payload).__name__}",
                      operation)
            return {
                key: _validate_value(value, self.map_item,
                                     f"{self.name}[{key!r}]", operation)
                for key, value in payload.items()
            }
        return _validate_struct(
            payload, self.fields, self.allow_extra, self.name, operation
        )


def _fail(subcode: str, path: str, detail: str, operation: str) -> None:
    raise ValidationFault(f"{path}: {detail}", subcode=subcode,
                          operation=operation)


def _validate_struct(value: Any, fields: Tuple[FieldDef, ...],
                     allow_extra: bool, path: str, operation: str) -> Dict:
    if not isinstance(value, dict):
        _fail("not-a-struct", path,
              f"expected struct, got {type(value).__name__}", operation)
    declared = {f.name for f in fields}
    if not allow_extra:
        for key in value:
            if key not in declared:
                _fail("unknown-field", f"{path}.{key}",
                      "field is not part of the contract", operation)
    out = dict(value)
    for f in fields:
        if f.name not in value:
            if f.required:
                _fail("missing-field", f"{path}.{f.name}",
                      "required field is absent", operation)
            if f.has_default:
                out[f.name] = f.default
            continue
        out[f.name] = _validate_value(value[f.name], f, f"{path}.{f.name}",
                                      operation)
    return out


def _validate_value(value: Any, f: FieldDef, path: str, operation: str) -> Any:
    if value is None:
        if f.nullable:
            return None
        _fail("wrong-type", path, "value must not be null", operation)
    kind = f.kind
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            _fail("wrong-type", path,
                  f"expected int, got {type(value).__name__}", operation)
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail("wrong-type", path,
                  f"expected number, got {type(value).__name__}", operation)
        if isinstance(value, float) and not math.isfinite(value):
            # SQLite binds NaN as NULL and the simulation's clock cannot
            # schedule at NaN or infinity: refuse them at the edge.
            _fail("bad-value", path, f"{value!r} is not finite", operation)
        return value
    if kind == "str":
        if not isinstance(value, str):
            _fail("wrong-type", path,
                  f"expected string, got {type(value).__name__}", operation)
        if f.enum and value not in f.enum:
            _fail("bad-value", path,
                  f"{value!r} not in {sorted(f.enum)}", operation)
        return value
    if kind == "list":
        if not isinstance(value, list):
            _fail("wrong-type", path,
                  f"expected list, got {type(value).__name__}", operation)
        if f.item is None:
            return value
        return [
            _validate_value(item, f.item, f"{path}[{index}]", operation)
            for index, item in enumerate(value)
        ]
    if kind == "struct":
        return _validate_struct(value, f.fields, False, path, operation)
    raise AssertionError(f"unknown field kind {kind!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# declaration helpers (the TABLE_DEFS idiom: terse, data-only)
# ----------------------------------------------------------------------
def f_int(name, required=True, default=_NO_DEFAULT, nullable=False):
    return FieldDef(name, "int", required, default, nullable)


def f_float(name, required=True, default=_NO_DEFAULT, nullable=False):
    return FieldDef(name, "float", required, default, nullable)


def f_str(name, required=True, default=_NO_DEFAULT, nullable=False, enum=()):
    return FieldDef(name, "str", required, default, nullable, enum=tuple(enum))


def f_list(name, item, required=True, default=_NO_DEFAULT):
    return FieldDef(name, "list", required, default, item=item)


def f_struct(name, fields, required=True, default=_NO_DEFAULT,
             nullable=False):
    return FieldDef(name, "struct", required, default, nullable,
                    fields=tuple(fields))
