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

Each ``SchemaDef`` compiles its checker once, when it is declared: a
tree of small closures, one per field, with each struct's declared names
precomputed.  A field whose value has an exact type that needs no further
check (an ``int`` for an int or float field, a ``str`` for a string field
without an enum, ``None`` where null is allowed) is passed over inside its
struct's or list's own loop; every other value goes through its closure.
A check that passes formats nothing.  A check that fails raises a private
exception, each struct, list or map level adds its path segment
(``.name``, ``[i]``, ``[key!r]``) on the way out, and ``validate`` turns
it into the ``ValidationFault`` the contract documents.  Checks run in
one order: undeclared keys, then declared fields in declaration order,
then list items in order; the first failure is the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "_check", _compile_schema(self))

    def validate(self, payload: Any, operation: str = "") -> Any:
        """Check ``payload`` against the schema; returns the normalised
        payload (defaults applied).  Raises :class:`ValidationFault`."""
        try:
            return self._check(payload)
        except _Refused as refused:
            path = self.name + "".join(reversed(refused.path))
            raise ValidationFault(f"{path}: {refused.detail}",
                                  subcode=refused.subcode,
                                  operation=operation) from None


# ----------------------------------------------------------------------
# the compiled checkers
# ----------------------------------------------------------------------
class _Refused(Exception):
    """A failed check on its way out to :meth:`SchemaDef.validate`: each
    struct, list or map level it passes appends its path segment."""

    def __init__(self, subcode: str, detail: str, segment: str = ""):
        super().__init__(detail)
        self.subcode = subcode
        self.detail = detail
        self.path = [segment] if segment else []


#: A compiled field: ``(types, check)``.  A value whose exact type is in
#: ``types`` is valid as it stands; any other value goes through
#: ``check``, which returns what the normalised payload holds or raises
#: :class:`_Refused`.
Checker = Tuple[Tuple[type, ...], Callable[[Any], Any]]

_ABSENT = object()


def _refuse(value: Any, nullable: bool, expected: str,
            subcode: str = "wrong-type") -> None:
    """The answer to a value that is not of the ``expected`` kind."""
    if value is None:
        if nullable:
            return None
        raise _Refused("wrong-type", "value must not be null")
    raise _Refused(subcode, f"expected {expected}, got {type(value).__name__}")


def _compile_schema(schema: SchemaDef) -> Callable[[Any], Any]:
    nullable = schema.nullable
    if schema.map_item is None:
        body = _compile_struct(schema.fields, schema.allow_extra, False)
    else:
        body = _compile_items(schema.map_item, dict, False)

    def check(payload: Any) -> Any:
        if payload is None:
            if nullable:
                return None
            raise _Refused("not-a-struct", "payload must not be null")
        return body(payload)
    return check


def _compile_struct(fields: Tuple[FieldDef, ...], allow_extra: bool,
                    nullable: bool) -> Callable[[Any], Any]:
    declared = frozenset(f.name for f in fields)
    members = tuple(
        (f.name, *_compile(f), f.required,
         f.default if f.has_default else _ABSENT)
        for f in fields
    )

    def check(value: Any) -> Any:
        if not isinstance(value, dict):
            return _refuse(value, nullable, "struct", "not-a-struct")
        if not allow_extra and not value.keys() <= declared:
            for key in value:
                if key not in declared:
                    raise _Refused("unknown-field",
                                   "field is not part of the contract",
                                   f".{key}")
        out = dict(value)
        try:
            for name, types, check_member, required, default in members:
                member = value.get(name, _ABSENT)
                if type(member) in types:
                    continue
                if member is not _ABSENT:
                    out[name] = check_member(member)
                elif required:
                    raise _Refused("missing-field", "required field is absent")
                elif default is not _ABSENT:
                    out[name] = default
        except _Refused as refused:
            refused.path.append(f".{name}")
            raise
        return out
    return check


def _compile_items(item: FieldDef, container: type,
                   nullable: bool) -> Callable[[Any], Any]:
    """A list (``container`` is list) or map (dict) of ``item``s."""
    types, check_item = _compile(item)
    if container is dict:
        members, expected, subcode = dict.items, "map", "not-a-struct"
    else:
        members, expected, subcode = enumerate, "list", "wrong-type"

    def check(value: Any) -> Any:
        if not isinstance(value, container):
            return _refuse(value, nullable, expected, subcode)
        out = container(value)
        try:
            for key, member in members(out):
                if type(member) not in types:
                    out[key] = check_item(member)
        except _Refused as refused:
            refused.path.append(f"[{key!r}]")  # an index's repr is its str
            raise
        return out
    return check


def _compile(f: FieldDef) -> Checker:
    """The checker of one field, built once from its declaration."""
    kind, nullable, enum = f.kind, f.nullable, f.enum
    types: Tuple[type, ...] = ()
    if kind == "struct":
        check = _compile_struct(f.fields, False, nullable)
    elif kind == "list" and f.item is not None:
        check = _compile_items(f.item, list, nullable)
    elif kind == "list":
        types = (list,)

        def check(value: Any) -> Any:
            if isinstance(value, list):
                return value
            return _refuse(value, nullable, "list")
    elif kind == "int":
        types = (int,)

        def check(value: Any) -> Any:
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            return _refuse(value, nullable, "int")
    elif kind == "float":
        types = (int,)  # a float still has its finiteness checked

        def check(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return _refuse(value, nullable, "number")
            if isinstance(value, float) and not math.isfinite(value):
                # SQLite binds NaN as NULL and the simulation's clock
                # cannot schedule at NaN or infinity: refuse them at the
                # edge.
                raise _Refused("bad-value", f"{value!r} is not finite")
            return value
    elif kind == "str":
        types = () if enum else (str,)
        listed = sorted(enum)

        def check(value: Any) -> Any:
            if not isinstance(value, str):
                return _refuse(value, nullable, "string")
            if enum and value not in enum:
                raise _Refused("bad-value", f"{value!r} not in {listed}")
            return value
    else:
        raise ValueError(f"{f.name}: unknown field kind {kind!r}")
    if nullable:
        types += (type(None),)
    return types, check


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
