"""Value domain for the ClassAd language.

ClassAds [Raman, Livny, Solomon 1998] evaluate over a three-valued logic:
besides ordinary booleans, numbers, strings and lists, expressions may
produce UNDEFINED (an attribute was absent) or ERROR (a type error).  The
semantics of both sentinels follow the Condor implementation:

* Strict operators (arithmetic, comparison) propagate UNDEFINED/ERROR.
* ``&&`` and ``||`` are non-strict: ``False && UNDEFINED`` is ``False`` and
  ``True || UNDEFINED`` is ``True``.
* ``=?=`` (is) and ``=!=`` (isnt) are *meta* operators that never propagate:
  ``UNDEFINED =?= UNDEFINED`` is ``True``.
"""

from __future__ import annotations

from typing import Any, Union


class _Sentinel:
    """Base for the UNDEFINED/ERROR singletons."""

    _name = "sentinel"

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        raise TypeError(f"{self._name} has no boolean value; use is_true()")


class UndefinedType(_Sentinel):
    """Singleton marker for the UNDEFINED value."""

    _name = "UNDEFINED"


class ErrorType(_Sentinel):
    """Singleton marker for the ERROR value."""

    _name = "ERROR"


#: The UNDEFINED singleton.
UNDEFINED = UndefinedType()
#: The ERROR singleton.
ERROR = ErrorType()

#: Any value a ClassAd expression can produce.
Value = Union[bool, int, float, str, list, UndefinedType, ErrorType]


def is_undefined(value: Value) -> bool:
    """Whether ``value`` is the UNDEFINED sentinel."""
    return isinstance(value, UndefinedType)


def is_error(value: Value) -> bool:
    """Whether ``value`` is the ERROR sentinel."""
    return isinstance(value, ErrorType)


def is_abnormal(value: Value) -> bool:
    """Whether ``value`` is UNDEFINED or ERROR."""
    return isinstance(value, _Sentinel)


def as_number(value: Value) -> Union[int, float, ErrorType]:
    """Coerce to a number, with booleans as 0/1; non-numbers become ERROR."""
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, (int, float)):
        return value
    return ERROR


def is_true(value: Value) -> bool:
    """Condor's truth test: True, nonzero numbers are true; all else false."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return False


def value_repr(value: Value) -> str:
    """Render a value in ClassAd source syntax."""
    if isinstance(value, _Sentinel):
        return repr(value)
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, list):
        return "{" + ", ".join(value_repr(item) for item in value) + "}"
    return repr(value)


def values_identical(left: Value, right: Value) -> bool:
    """The ``=?=`` meta-comparison: same type and same value.

    Unlike ``==`` it never yields UNDEFINED/ERROR, and it distinguishes
    ``1`` from ``1.0`` only by numeric equality (Condor compares numbers
    across int/real), while UNDEFINED matches only UNDEFINED.
    """
    if is_abnormal(left) or is_abnormal(right):
        return type(left) is type(right)
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, bool) and isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            values_identical(a, b) for a, b in zip(left, right)
        )
    return False


def coerce_python(obj: Any) -> Value:
    """Convert a Python object into the ClassAd value domain."""
    if obj is None:
        return UNDEFINED
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [coerce_python(item) for item in obj]
    if isinstance(obj, _Sentinel):
        return obj
    return ERROR
