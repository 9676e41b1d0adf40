"""SQLite's scalar semantics, as the memory engine reproduces them.

What a value *is* once it is written, compared or sorted: column
affinity on write, the NULL < numbers < text ordering, three-valued
truth, the binary operators, and comparison affinity with the
coercions it implies.  Pure functions of their arguments — no table,
no plan, no engine — so the store (:mod:`.store`), the compiler
(:mod:`.expressions`, :mod:`.compiler`) and the executors
(:mod:`.plans`) share one statement of each rule, and the differential
fuzzer holds every one of them to what SQLite does.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple


def _numeric_from_text(text: str) -> Optional[float]:
    stripped = text.strip()
    try:
        return int(stripped)
    except ValueError:
        try:
            return float(stripped)
        except ValueError:
            return None


def apply_affinity(value: Any, affinity: str) -> Any:
    """Convert ``value`` as SQLite's column affinity would on write."""
    # Hot-path exits: text into a TEXT column and ints into numeric
    # columns (the shapes every indexed probe takes) pass unchanged.
    kind = type(value)
    if kind is str:
        if affinity == "TEXT":
            return value
    elif kind is int:
        if affinity == "INTEGER" or affinity == "NUMERIC":
            return value
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if affinity in ("INTEGER", "NUMERIC"):
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value) if value.is_integer() else value
        if isinstance(value, str):
            number = _numeric_from_text(value)
            if number is None:
                return value
            if isinstance(number, float) and number.is_integer():
                return int(number)
            return number
        return value
    if affinity == "REAL":
        if isinstance(value, int):
            return float(value)
        if isinstance(value, str):
            number = _numeric_from_text(value)
            return float(number) if number is not None else value
        return value
    if affinity == "TEXT":
        if isinstance(value, (int, float)):
            return str(value)
        return value
    return value


def _to_number(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        number = _numeric_from_text(value)
        return number if number is not None else 0
    return 0


def _to_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    return str(value)


def _int_truncdiv(a: int, b: int) -> int:
    """Integer division truncating toward zero (SQLite's `/`), exact for
    operands beyond float precision."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def sql_sort_key(value: Any) -> Tuple[int, Any]:
    """SQLite ordering: NULL < numbers < text."""
    kind = type(value)  # exact-type dispatch keeps the hot loop cheap
    if kind is int or kind is float:
        return (1, value)
    if kind is str:
        return (2, value)
    if value is None:
        return (0, 0)
    if kind is bool:
        return (1, int(value))
    return (3, repr(value))


def _is_true(value: Any) -> bool:
    if value is None:
        return False
    if isinstance(value, str):
        number = _numeric_from_text(value)
        return bool(number)
    return bool(value)


def _sql_eq(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    an, bn = isinstance(a, (int, float)), isinstance(b, (int, float))
    if an != bn:
        return False  # number never equals text in SQLite
    return a == b


def _sql_compare(a: Any, b: Any) -> Any:
    """-1/0/1 with SQLite's cross-type ordering; None when either NULL."""
    if a is None or b is None:
        return None
    ka, kb = sql_sort_key(a), sql_sort_key(b)
    if ka[0] != kb[0]:
        return -1 if ka[0] < kb[0] else 1
    if ka[1] == kb[1]:
        return 0
    return -1 if ka[1] < kb[1] else 1


_BIN_OPS: Dict[str, Callable[[Any, Any], Any]] = {}


def _register_bin_ops() -> None:
    def arith(fn):
        def op(a, b):
            a, b = _to_number(a), _to_number(b)
            if a is None or b is None:
                return None
            return fn(a, b)
        return op

    def divide(a, b):
        a, b = _to_number(a), _to_number(b)
        if a is None or b is None or b == 0:
            return None
        if isinstance(a, int) and isinstance(b, int):
            return _int_truncdiv(a, b)  # exact, truncating toward zero
        return a / b

    def modulo(a, b):
        a, b = _to_number(a), _to_number(b)
        if a is None or b is None or b == 0:
            return None
        ia, ib = int(a), int(b)
        if ib == 0:
            return None
        return ia - ib * _int_truncdiv(ia, ib)

    def concat(a, b):
        if a is None or b is None:
            return None
        return _to_text(a) + _to_text(b)

    def compare(want):
        def op(a, b):
            order = _sql_compare(a, b)
            return None if order is None else int(order in want)
        return op

    _BIN_OPS.update({
        "+": arith(lambda a, b: a + b),
        "-": arith(lambda a, b: a - b),
        "*": arith(lambda a, b: a * b),
        "/": divide,
        "%": modulo,
        "||": concat,
        "=": lambda a, b: (None if (eq := _sql_eq(a, b)) is None else int(eq)),
        "!=": lambda a, b: (None if (eq := _sql_eq(a, b)) is None
                            else int(not eq)),
        "<": compare((-1,)),
        "<=": compare((-1, 0)),
        ">": compare((1,)),
        ">=": compare((0, 1)),
    })


_register_bin_ops()


#: Affinities that pull text operands to numbers in comparisons.
_NUMERIC_AFFINITIES = ("INTEGER", "REAL", "NUMERIC")


def _comparison_coercions(left_aff: Optional[str],
                          right_aff: Optional[str]) -> Tuple:
    """SQLite comparison affinity as ``(coerce left, coerce right)``, at
    most one of them set: a numeric-affinity column pulls a text
    comparand to a number; a TEXT column pulls an affinity-less numeric
    comparand to text — affinity-less, not BLOB: ``json_each``'s columns
    are declared untyped, which is BLOB affinity, and meet a TEXT column
    unconverted."""
    if left_aff in _NUMERIC_AFFINITIES:
        if right_aff not in _NUMERIC_AFFINITIES:
            return None, _coerce_numeric
    elif right_aff in _NUMERIC_AFFINITIES:
        return _coerce_numeric, None
    elif left_aff == "TEXT" and right_aff is None:
        return None, _coerce_text
    elif right_aff == "TEXT" and left_aff is None:
        return _coerce_text, None
    return None, None


def _converts_left(left_aff: Optional[str], right_aff: Optional[str]) -> bool:
    """Would comparing convert the left operand?  Then an index over its
    stored values cannot answer the comparison."""
    return _comparison_coercions(left_aff, right_aff)[0] is not None


def _coerce_numeric(value: Any) -> Any:
    """SQLite comparison affinity: text compared to a numeric column is
    converted to a number when well-formed."""
    if isinstance(value, str):
        number = _numeric_from_text(value)
        return number if number is not None else value
    return value


def _coerce_text(value: Any) -> Any:
    """TEXT affinity applied to an affinity-less comparison operand."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return value


def _text_or_null(value: Any) -> Any:
    return value if isinstance(value, str) else None


def _probe_coercion(col_aff: str, other_aff: Optional[str]):
    """What an index probe owes its comparand beyond the column affinity
    :meth:`MemoryTable.probe` applies by itself — nothing, but for a
    TEXT column meeting a BLOB-affinity comparand: SQLite converts
    neither side, so a number there equals no stored text, while the
    probe's own TEXT affinity would find ``'2'`` for ``2``."""
    if col_aff == "TEXT" and other_aff == "BLOB":
        return _text_or_null
    return None


def _probe_norm(value: Any) -> Any:
    if isinstance(value, bool):
        return float(int(value))
    if isinstance(value, (int, float)):
        return float(value)
    return value
