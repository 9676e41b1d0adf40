"""The compiled message validator against the walk it replaced.

``SchemaDef.validate`` runs a checker compiled once per schema.  The
recursive walk it replaced lives on here, and only here, as the oracle:
over every contract's request and response schema, on valid payloads and
on payloads with one point of damage, the compiled validator returns an
equal payload -- fresh containers where the walk made them, shared ones
where it did not -- or raises a fault with the walk's code, subcode,
detail and operation.
"""

import math
from typing import Any, Dict, Tuple

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.condorj2.api import CONTRACTS
from repro.condorj2.api.faults import ValidationFault
from repro.condorj2.api.fields import FieldDef, SchemaDef, f_float, f_int, f_str


# ----------------------------------------------------------------------
# the oracle: the recursive walk, building a path for every value
# ----------------------------------------------------------------------
def _fail(subcode, path, detail, operation):
    raise ValidationFault(f"{path}: {detail}", subcode=subcode,
                          operation=operation)


def _reference_validate(schema: SchemaDef, payload: Any,
                        operation: str = "") -> Any:
    if payload is None:
        if schema.nullable:
            return None
        raise ValidationFault(
            f"{schema.name}: payload must not be null",
            subcode="not-a-struct", operation=operation,
        )
    if schema.map_item is not None:
        if not isinstance(payload, dict):
            _fail("not-a-struct", schema.name,
                  f"expected map, got {type(payload).__name__}", operation)
        return {
            key: _validate_value(value, schema.map_item,
                                 f"{schema.name}[{key!r}]", operation)
            for key, value in payload.items()
        }
    return _validate_struct(payload, schema.fields, schema.allow_extra,
                            schema.name, operation)


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
    raise AssertionError(f"unknown field kind {kind!r}")


# ----------------------------------------------------------------------
# payloads: valid ones drawn from a schema, then one point of damage
# ----------------------------------------------------------------------
_TEXT = st.text(alphabet="abcdefgh_ .", max_size=6)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(),
                          st.integers(-2**40, 2**40),
                          st.floats(allow_nan=False, allow_infinity=False),
                          _TEXT)


def _field_values(f: FieldDef) -> st.SearchStrategy:
    """Values ``f`` accepts."""
    kind = f.kind
    if kind == "int":
        values = st.integers(-2**40, 2**40)
    elif kind == "float":
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-2**40, 2**40))
    elif kind == "str":
        values = st.sampled_from(f.enum) if f.enum else _TEXT
    elif kind == "list":
        items = _JSON_SCALARS if f.item is None else _field_values(f.item)
        values = st.lists(items, max_size=3)
    else:
        values = _struct_values(f.fields, allow_extra=False)
    return st.one_of(st.none(), values) if f.nullable else values


@st.composite
def _struct_values(draw, fields, allow_extra):
    out = {}
    for f in fields:
        if f.required or draw(st.booleans()):
            out[f.name] = draw(_field_values(f))
    if allow_extra:
        extras = draw(st.dictionaries(_TEXT, _JSON_SCALARS, max_size=2))
        for key, value in extras.items():
            out.setdefault(key, value)
    return out


def _schema_values(schema: SchemaDef) -> st.SearchStrategy:
    if schema.map_item is not None:
        values = st.dictionaries(_TEXT, _field_values(schema.map_item),
                                 max_size=4)
    else:
        values = _struct_values(schema.fields, schema.allow_extra)
    return st.one_of(st.none(), values) if schema.nullable else values


def _sites(value: Any, fields, allow_extra: bool, map_item, holder, key):
    """Every place one point of damage can go: ``(holder, key, what)``,
    where ``holder[key]`` is the value and ``what`` its declaration: a
    FieldDef, or ``("struct", fields, allow_extra, map_item)`` for the
    struct (or map) itself."""
    if isinstance(value, dict):
        yield holder, key, ("struct", fields, allow_extra, map_item)
        for f in fields:
            if f.name in value:
                yield from _field_sites(value, f.name, f)
        if map_item is not None:
            for name in value:
                yield from _field_sites(value, name, map_item)


def _field_sites(holder, key, f: FieldDef):
    value = holder[key]
    yield holder, key, f
    if f.kind == "struct" and isinstance(value, dict):
        yield from _sites(value, f.fields, False, None, holder, key)
    elif f.kind == "list" and isinstance(value, list) and f.item is not None:
        for index in range(len(value)):
            yield from _field_sites(value, index, f.item)


def _damages(site) -> list:
    """The ways to damage one site: functions of the site's value."""
    holder, key, what = site
    if isinstance(what, tuple):
        _, fields, allow_extra, map_item = what
        damages = [lambda value: 7, lambda value: [value]]
        if not isinstance(holder[key], dict):
            return damages
        required = [f.name for f in fields if f.required]
        for name in required:
            damages.append(lambda value, name=name: {
                k: v for k, v in value.items() if k != name})
        if not allow_extra and map_item is None:
            damages.append(lambda value: {**value, "zz_undeclared": 1})
            damages.append(lambda value: {"zz_undeclared": 1, **value})
        if map_item is not None:
            damages.append(lambda value: {**value, "zz": "not a value"})
            damages.append(lambda value: {**value, "zz": None})
        return damages
    f = what
    damages = [lambda value: {"not": "scalar"} if f.kind != "struct" else 3]
    if not f.nullable:
        damages.append(lambda value: None)
    if f.kind == "int":
        damages += [lambda value: True, lambda value: 1.5,
                    lambda value: "1"]
    elif f.kind == "float":
        damages += [lambda value: math.nan, lambda value: math.inf,
                    lambda value: -math.inf, lambda value: False,
                    lambda value: "1.5"]
    elif f.kind == "str":
        damages += [lambda value: 1, lambda value: b"bytes"]
        if f.enum:
            damages.append(lambda value: "not-in-the-enum")
    elif f.kind == "list":
        damages += [lambda value: (), lambda value: "[]"]
        if f.item is not None:
            damages.append(lambda value: [*value, {"bad": "item"}]
                           if f.item.kind != "struct" else [*value, 5])
    return damages


_SCHEMAS = [(contract.name, schema) for contract in CONTRACTS
            for schema in (contract.request, contract.response)]


def _outcome(validate, payload, operation):
    try:
        return "ok", validate(payload, operation)
    except ValidationFault as fault:
        return "fault", fault.code, fault.subcode, fault.detail, \
            fault.operation


def _fresh(out: Any, payload: Any) -> Any:
    """Which containers of ``out`` are new objects, as a tree that
    mirrors it (containers only)."""
    if isinstance(out, dict):
        return (out is not payload, {
            key: _fresh(value, payload.get(key) if isinstance(payload, dict)
                        else None)
            for key, value in out.items()
            if isinstance(value, (dict, list))})
    if isinstance(out, list):
        return (out is not payload, [
            _fresh(value, payload[index] if isinstance(payload, list)
                   and index < len(payload) else None)
            for index, value in enumerate(out)])
    return None


def _assert_validates_like_the_reference(operation, schema, payload):
    expected = _outcome(
        lambda p, op: _reference_validate(schema, p, op), payload, operation)
    actual = _outcome(schema.validate, payload, operation)
    assert actual == expected
    if expected[0] == "ok":
        assert _fresh(actual[1], payload) == _fresh(expected[1], payload)


@given(st.sampled_from(_SCHEMAS), st.data())
@settings(deadline=None)
def test_validate_equals_the_reference_validator(pair, data):
    """Property: on a valid payload of any contract's request or
    response schema, and on that payload with one point of damage, the
    compiled validator answers as the recursive walk does."""
    operation, schema = pair
    payload = data.draw(_schema_values(schema), label="payload")
    note(repr(payload))
    _assert_validates_like_the_reference(operation, schema, payload)
    root = [payload]
    if payload is None:
        sites = [(root, 0, ("struct", schema.fields, schema.allow_extra,
                            schema.map_item))]
    else:
        sites = list(_sites(payload, schema.fields, schema.allow_extra,
                            schema.map_item, root, 0))
    holder, key, what = data.draw(st.sampled_from(sites), label="site")
    damage = data.draw(st.sampled_from(_damages((holder, key, what))),
                       label="damage")
    holder[key] = damage(holder[key])
    note(repr(root[0]))
    _assert_validates_like_the_reference(operation, schema, root[0])


# ----------------------------------------------------------------------
# by hand: the cases the property reaches only by luck
# ----------------------------------------------------------------------
_NESTED = SchemaDef("Nested", (
    f_int("n", required=False, default=3),
    f_float("t", required=False),
    FieldDef("rows", "list", item=FieldDef("row", "struct", fields=(
        f_str("state", enum=("idle", "busy")),
        FieldDef("tags", "list", required=False),
        FieldDef("inner", "struct", required=False, nullable=True,
                 fields=(f_int("x"),)),
    ))),
))

_HAND_PAYLOADS = {
    "valid": {"rows": [{"state": "idle", "tags": ["a", 1]}]},
    "default-filled": {"rows": []},
    "second-row-enum-miss": {"rows": [{"state": "idle"}, {"state": "x"}]},
    "undeclared-before-missing": {"rows": [{"zz": 1}]},
    "non-string-key": {"rows": [{1: "x", "state": "idle"}]},
    "null-inner": {"rows": [{"state": "idle", "inner": None}]},
    "inner-missing": {"rows": [{"state": "busy", "inner": {}}]},
    "inner-not-a-struct": {"rows": [{"state": "busy", "inner": [1]}]},
    "rows-null": {"rows": None},
    "int-subclass-bool": {"n": False, "rows": []},
    "float-nan": {"t": math.nan, "rows": []},
    "float-minus-inf": {"t": -math.inf, "rows": []},
    "float-as-int": {"t": 2, "rows": []},
    "float-bool": {"t": True, "rows": []},
    "payload-list": [],
    "payload-null": None,
}


@pytest.mark.parametrize("name", sorted(_HAND_PAYLOADS))
def test_validate_equals_the_reference_validator_by_hand(name):
    _assert_validates_like_the_reference("op", _NESTED, _HAND_PAYLOADS[name])

