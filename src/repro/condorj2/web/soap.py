"""A minimal SOAP envelope codec.

The paper's execute nodes talk to the CAS with gSOAP over HTTP.  The
reproduction serialises request/response payloads into an XML-ish envelope
for two reasons: the *size* of the message drives simulated transport
latency and the per-byte parse cost in the CAS cost model, and the codec
gives the protocol a concrete, testable wire format.

Payloads are restricted to JSON-like data (dicts with **string** keys,
lists, strings, numbers, booleans, None) — exactly what the web services
exchange.  Anything else is rejected loudly with a typed
``MALFORMED`` fault: the old codec silently coerced non-string dict keys
through ``str()``, so ``{1: "x"}`` decoded as ``{"1": "x"}`` and payloads
did not round-trip.

Two envelope families:

* **single-op** — one ``<op>`` per request, one ``<opResponse>`` (or one
  ``<soap:Fault>`` carrying the structured fault code) per response;
* **batch** — a multiplexed ``<batch>`` of N independent ``<op>``
  elements in one HTTP round-trip, answered by a ``<batchResponse>``
  with per-op ``<opResponse>``/``<opFault>`` children in request order.

Decoding reads the envelope text once, in one pass that builds the
payload as it reads (:func:`_scan`).  It cuts the text at each piece of
character data; between two pieces lies a *run* of tags, such as
``</value></entry><entry key="owner"><value type="string">``, which it
compiles once into a few actions and then recalls.  The actions fuse
the shapes structs and arrays of scalars are made of, so a scalar field
costs one step, not four tags.  It reads the canonical spelling the
encoders write, and where it stops it raises a typed ``MALFORMED``
fault, never a bare exception, so the CAS answers and meters it: its
subcode is ``too-deep`` at the depth bound, ``bad-element`` for a value
that does not decode, ``bad-envelope`` for anything else, and its detail
the offset of the run of tags the pass stopped in.  The tree path it
replaced is kept in the tests as the reference codec it is held to.
Faults ride the wire as ``(code, subcode, detail)`` triples from the
taxonomy in :mod:`repro.condorj2.api.faults`; the walk rebuilds the
typed exception.
The encoder writes a struct's or array's scalar children inside the
container's own loop and recurses only for nested containers (and for
subclass instances and children past the depth bound).

The protocol says the same few dozen things over and over -- ``<value
type="int">``, ``<entry key="vm_id">``, ``</entry>`` -- so the codec
remembers what it has already worked out, in small module memos that
are emptied when they reach their bound: the one pass keeps each run it
has read and each run it has compiled, the latter with its struct keys
cut out so that keys that never repeat still share compilations; the
encoder keeps each struct key it has escaped.  None changes a byte on
the wire or a value decoded.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.condorj2.api.faults import (
    MalformedFault,
    ServiceFault,
    fault_from_code,
)

Payload = Union[None, bool, int, float, str, List[Any], Dict[str, Any]]

_PROLOGUE = (
    '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
    "<soap:Body>"
)
_EPILOGUE = "</soap:Body></soap:Envelope>"


def escape(data: str) -> str:
    """``&``, ``>`` and ``<`` as entities.

    ``xml.sax.saxutils.escape`` and ``unescape``, replacement for
    replacement — spelled out because importing that module pulls in
    urllib, http, ssl and email: megabytes of resident memory in every
    process that touches the wire (3 MB of a pool's 27), for six
    ``str.replace`` calls."""
    return (data.replace("&", "&amp;")  # first: the others add "&"
            .replace(">", "&gt;").replace("<", "&lt;"))


def unescape(data: str, quoted: bool = False) -> str:
    """Inverse of :func:`escape` (of :func:`_escape_attr` when
    ``quoted``)."""
    data = data.replace("&lt;", "<").replace("&gt;", ">")
    if quoted:
        data = data.replace("&quot;", '"')
    return data.replace("&amp;", "&")  # last: "&amp;lt;" is "&lt;"


#: No element may sit deeper than this: five times what the protocol's
#: payloads need, and far from the interpreter's recursion limit.
MAX_DEPTH = 64


def _escape_attr(value: str) -> str:
    """Attribute values additionally escape ``"`` — they live inside
    double-quoted attributes, so a raw quote would truncate the value
    and silently corrupt the round-trip (struct keys, operation names)."""
    return escape(value).replace('"', "&quot;")


#: The types a payload value travels as.  An instance of a subclass
#: travels as its base (bool is its own, so it never reads as int).
_WIRE_TYPES = (str, int, dict, list, type(None), bool, float)

#: ``<entry key="...">`` for struct keys already escaped.  The protocol
#: has a few dozen; past the bound the memo is emptied, like ``_RUNS``.
_ENTRY_OPENINGS: Dict[str, str] = {}
_ENTRY_OPENINGS_BOUND = 256


def _wire_type(value: Any) -> type:
    for base in _WIRE_TYPES:
        if isinstance(value, base):
            return base
    raise MalformedFault(
        f"unserialisable value of type {type(value).__name__}",
        subcode="unserialisable",
    )


def _entry_opening(key: Any) -> str:
    if not isinstance(key, str):
        # str(key) here would break round-tripping: {1: "x"} would come
        # back as {"1": "x"}.  Reject loudly instead.
        raise MalformedFault(
            f"struct key {key!r} is {type(key).__name__}, not str",
            subcode="non-string-key",
        )
    if len(_ENTRY_OPENINGS) >= _ENTRY_OPENINGS_BOUND:
        _ENTRY_OPENINGS.clear()
    opening = _ENTRY_OPENINGS[key] = f'<entry key="{_escape_attr(key)}">'
    return opening


def _append_value(parts: List[str], value: Payload, tag: str,
                  depth: int) -> None:
    """Append ``value`` as a ``tag`` element, ``depth`` levels into the
    payload; Envelope/Body/batch/op are the four levels around it.

    A struct or array writes its children of an exact scalar type in its
    own loop; only containers, subclass instances and children past the
    depth bound are appended by a call of their own."""
    if depth + 4 > MAX_DEPTH:
        raise MalformedFault(f"elements nest deeper than {MAX_DEPTH}",
                             subcode="too-deep")
    exact = type(value)
    kind = exact if exact in _WIRE_TYPES else _wire_type(value)
    if kind is str:
        # escape() is also what makes a plain str of a subclass instance
        # (a str-mixin Enum would format as its member name).
        if exact is not str or "&" in value or "<" in value or ">" in value:
            value = escape(value)
        parts.append(f'<{tag} type="string">{value}</{tag}>')
    elif kind is int:
        parts.append(f'<{tag} type="int">{value}</{tag}>')
    elif kind is dict:
        parts.append(f'<{tag} type="struct">')
        openings = _ENTRY_OPENINGS.get
        inline = depth + 6 <= MAX_DEPTH  # may a child scalar sit here?
        append = parts.append
        for key, item in value.items():
            opening = openings(key) or _entry_opening(key)
            exact = type(item)
            if not inline:
                pass
            elif exact is str:
                if "&" in item or "<" in item or ">" in item:
                    item = escape(item)
                append(f'{opening}<value type="string">{item}</value></entry>')
                continue
            elif exact is int:
                append(f'{opening}<value type="int">{item}</value></entry>')
                continue
            elif item is None:
                append(f'{opening}<value xsi:nil="true"/></entry>')
                continue
            elif exact is float:
                append(f'{opening}<value type="double">{item!r}</value></entry>')
                continue
            elif exact is bool:
                append(f'{opening}<value type="boolean">'
                       f'{"true" if item else "false"}</value></entry>')
                continue
            append(opening)
            _append_value(parts, item, "value", depth + 2)
            append("</entry>")
        parts.append(f"</{tag}>")
    elif kind is list:
        parts.append(f'<{tag} type="array">')
        inline = depth + 5 <= MAX_DEPTH
        append = parts.append
        for item in value:
            exact = type(item)
            if not inline:
                pass
            elif exact is str:
                if "&" in item or "<" in item or ">" in item:
                    item = escape(item)
                append(f'<item type="string">{item}</item>')
                continue
            elif exact is int:
                append(f'<item type="int">{item}</item>')
                continue
            elif item is None:
                append('<item xsi:nil="true"/>')
                continue
            elif exact is float:
                append(f'<item type="double">{item!r}</item>')
                continue
            elif exact is bool:
                append(f'<item type="boolean">'
                       f'{"true" if item else "false"}</item>')
                continue
            _append_value(parts, item, "item", depth + 1)
        parts.append(f"</{tag}>")
    elif value is None:
        parts.append(f'<{tag} xsi:nil="true"/>')
    elif kind is bool:
        parts.append(
            f'<{tag} type="boolean">{"true" if value else "false"}</{tag}>')
    else:
        parts.append(f'<{tag} type="double">{value!r}</{tag}>')


def _encode_value(value: Payload, tag: str) -> str:
    parts: List[str] = []
    _append_value(parts, value, tag, 1)
    return "".join(parts)


def _encode_op(operation: str, payload: Payload) -> str:
    body = _encode_value(payload, "payload")
    return f'<op name="{_escape_attr(operation)}">{body}</op>'


def encode_request(operation: str, payload: Payload) -> str:
    """Build a single-op request envelope for ``operation``."""
    return _PROLOGUE + _encode_op(operation, payload) + _EPILOGUE


def encode_batch_request(calls: Sequence[Tuple[str, Payload]]) -> str:
    """Build a multiplexed batch envelope carrying N independent ops."""
    inner = "".join(_encode_op(operation, payload)
                    for operation, payload in calls)
    return f'{_PROLOGUE}<batch n="{len(calls)}">{inner}</batch>{_EPILOGUE}'


def _encode_fault(fault: Union[str, ServiceFault]) -> Tuple[str, str, str]:
    """Normalise a fault into its wire (code, subcode, detail) triple."""
    if isinstance(fault, ServiceFault):
        return fault.code, fault.subcode, fault.detail or str(fault)
    return ServiceFault.code, ServiceFault.default_subcode, str(fault)


def encode_response(operation: str, payload: Payload,
                    fault: Union[str, ServiceFault] = "") -> str:
    """Build a response envelope, optionally carrying a typed fault."""
    if fault:
        code, subcode, detail = _encode_fault(fault)
        return (
            f"{_PROLOGUE}<soap:Fault>"
            f"<faultcode>{escape(code)}</faultcode>"
            f"<faultsub>{escape(subcode)}</faultsub>"
            f"<faultstring>{escape(detail)}</faultstring>"
            f"</soap:Fault>{_EPILOGUE}"
        )
    body = _encode_value(payload, "payload")
    return (
        f'{_PROLOGUE}<opResponse name="{_escape_attr(operation)}">{body}'
        f"</opResponse>{_EPILOGUE}"
    )


def encode_batch_response(
    items: Sequence[Tuple[str, Payload, Optional[ServiceFault]]],
) -> str:
    """Build a batch response: per-op ``opResponse``/``opFault`` children.

    ``items`` are ``(operation, payload, fault)`` triples in request
    order; ``fault`` is None for successful ops.
    """
    parts = []
    for operation, payload, fault in items:
        if fault is not None:
            code, subcode, detail = _encode_fault(fault)
            parts.append(
                f'<opFault name="{_escape_attr(operation)}" '
                f'code="{_escape_attr(code)}" '
                f'subcode="{_escape_attr(subcode)}">'
                f"<faultstring>{escape(detail)}</faultstring></opFault>"
            )
        else:
            parts.append(
                f'<opResponse name="{_escape_attr(operation)}">'
                f'{_encode_value(payload, "payload")}</opResponse>'
            )
    return (
        f'{_PROLOGUE}<batchResponse n="{len(items)}">{"".join(parts)}'
        f"</batchResponse>{_EPILOGUE}"
    )


# ----------------------------------------------------------------------
# decoding: the tag syntax, then the one pass, then the walks that know
# the words
# ----------------------------------------------------------------------
#: One parsed element: ``(tag, attributes, child elements, text)``.  An
#: element holds children or text, never both; an empty one holds neither.
Node = Tuple[str, Dict[str, str], List[Any], str]

#: An element or attribute name.
_NAME = r'[^\s<>/="]+'
#: A start, end or empty-element tag with well-formed attributes, less
#: its ``<``.  The only place tag syntax is written down; a head of a run
#: this does not match condemns the envelope.
_TAG_RE = re.compile(
    rf'(/?)({_NAME})((?:\s+{_NAME}="[^"<]*")*)\s*(/?)>'
)
_ATTR_RE = re.compile(rf'({_NAME})="([^"<]*)"')


def _attrs(attr_text: str) -> Optional[Dict[str, str]]:
    """The attributes ``_TAG_RE`` matched in a start tag, entities
    decoded; None when a name repeats."""
    pairs = _ATTR_RE.findall(attr_text)
    if "&" in attr_text:
        pairs = [(name, unescape(raw, quoted=True)) for name, raw in pairs]
    attrs = dict(pairs)
    return attrs if len(attrs) == len(pairs) else None


_NIL = {"xsi:nil": "true"}
_SCALARS = {"string": str, "int": int, "double": float,
            "boolean": {"true": True, "false": False}.__getitem__}


# ----------------------------------------------------------------------
# the one pass: payloads built as the envelope is read
# ----------------------------------------------------------------------
#: Cuts an envelope (less its first ``<`` and last ``>``) at each piece of
#: character data.  The pieces alternate: a *run* of tags, such as
#: ``/value></entry><entry key="owner"><value type="string"``, then the
#: text after it, then the next run.  The first ``>`` after a ``<`` ends
#: the run, so a ``>`` inside an attribute value cuts a tag in two, and
#: the half before the cut, whose quotes do not pair, is not a tag.
_CUT = re.compile(r">([^<]+)<").split

#: Cuts the struct keys out of a run: ``_KEYED.join`` of the even pieces
#: is the run with every key emptied, the odd pieces are the keys.
_KEYS = re.compile(r'entry key="([^"<]*)"').split
_KEYED = 'entry key=""'

#: Each run read so far, as it is on the wire, with its actions and its
#: keys; and each run compiled so far, with its keys cut out, with its
#: actions.  The second lets the fields of a struct share one
#: compilation whatever their keys, so that a struct of keys that never
#: repeat costs a cut and a lookup per field, not a compilation.  An
#: episode of a workload reads 18-75 distinct runs; both memos are
#: emptied when full.
_Learned = Tuple[Tuple[tuple, ...], Tuple[str, ...]]  # actions, keys
_RUNS: Dict[str, _Learned] = {}
_COMPILED: Dict[str, Tuple[tuple, ...]] = {}
_RUNS_BOUND = 256

# What one action of a compiled run does.  The fused actions are the
# shapes structs and arrays of scalars are made of, so that a scalar field
# costs one step and not four tags.
_NEXT_LEAF = 0        # </value></entry><entry key="k"><value type="int">
_NEXT_ITEM_LEAF = 1   # </item><item type="int">
_FIELD_END = 2        # </value></entry>
_NEXT_FIELD = 3       # </value></entry><entry key="k"><value ...>
_FIELD = 4            # <entry key="k"><value ...>
_EMPTY_FIELD = 5      # <entry key="k"><value xsi:nil="true"/></entry>
_CLOSE_ELEMENTS = 6   # </op></soap:Body></soap:Envelope>
_OPEN_ELEMENTS = 7    # <soap:Envelope ...><soap:Body><op name="x">
_CLOSE = 8            # </payload>, </item>
_NEXT_ITEM = 9        # </item><item ...>
_OPEN = 10            # <payload ...>, <item ...>
_EMPTY = 11           # <payload .../>, <item .../>

#: Names that may be part of a payload.  An element with any other name
#: is a node, and one with these names is only ever part of a payload:
#: the one pass refuses a ``<value>``, say, inside a ``<soap:Fault>``.
_VALUE_NAMES = frozenset(("payload", "value", "item", "entry"))
#: The elements whose ``<payload>`` child the one pass decodes.
_CARRIERS = ("op", "opResponse")

# What the innermost open element is.  A container of the payload being
# decoded (a struct or an array) is a frame of its own; a scalar is not.
_ELEMENT = 0       # an element outside a payload: node is its children
_STRUCT = 1        # node is its dict
_ARRAY = 2         # node is its list
_FIELD_LEAF = 3    # node is its struct's dict
_ITEM_LEAF = 4     # node is its array's list
_PAYLOAD_LEAF = 5  # node is its carrier's children


class _Decoded:
    """A ``<payload>`` the one pass decoded as it read it, standing in
    its carrier's children."""

    __slots__ = ("payload",)

    def __init__(self, payload: Payload) -> None:
        self.payload = payload


def _nil(text: str) -> None:
    """The cast of a nil element's text: None, for no text only."""
    if text:
        raise ValueError(text)
    return None


def _kind(attrs: Dict[str, str]) -> Any:
    """What a value element with ``attrs`` decodes as: ``dict`` or
    ``list`` for a container, a cast of its text for a scalar or nil,
    None for nothing."""
    kind = attrs.get("type")
    if kind == "struct":
        return dict
    if kind == "array":
        return list
    if kind in _SCALARS:
        return _SCALARS[kind]
    return _nil if attrs == _NIL else None


#: What a refusal says, by subcode, before where the one pass stopped.
_REFUSALS = {
    "too-deep": f"elements nest deeper than {MAX_DEPTH}",
    "bad-element": "undecodable value",
    "bad-envelope": "envelope malformed",
}


def _refused(pieces: List[str], index: int, subcode: str) -> MalformedFault:
    """The fault of a refusal in the run of tags ``pieces[index]``,
    located by the offset of the run's ``<`` in the envelope."""
    offset = sum(map(len, pieces[:index])) + index  # and each text's > <
    return MalformedFault(
        f"{_REFUSALS[subcode]} in the run of tags at offset {offset}",
        subcode=subcode)


def _misplaced(mode: int, tag: Any, name: str, text: str,
               too_deep: bool) -> str:
    """The subcode of a refused opening tag ``name`` in the innermost
    open ``tag``: text before it, the depth bound, a value element
    outside a payload and an ``<entry>`` not written ``<entry key="``
    are the envelope's fault; any other tag where a value is, the
    value's."""
    if text:
        return "bad-envelope"
    if too_deep:
        return "too-deep"
    if (mode == _ELEMENT and tag not in _CARRIERS) or name == "entry":
        return "bad-envelope"
    return "bad-element"


def _compile_run(run: str) -> Union[Tuple[tuple, ...], str]:
    """The actions of one run of tags with its keys cut out, ``(code,
    name, attrs, kind, slot)`` each: ``kind`` what a value element
    decodes as, ``slot`` the index of a field's key among the run's keys,
    and ``name``, for the two group actions, the names closed or the
    ``(name, attrs)`` pairs opened.  The subcode of the refusal instead
    when a head is not one whole tag, an attribute repeats, a keyed tag
    is not a field, a ``</value>`` is not followed by its ``</entry>``,
    or ``entry key="`` stands anywhere but at the start of a tag."""
    tags = []
    for head in run.split("><"):
        match = _TAG_RE.fullmatch(head + ">")
        if match is None:
            return "bad-envelope"
        closing, name, attr_text, empty = match.groups()
        if closing:
            if attr_text or empty:
                return "bad-envelope"
            shape, attrs = "/" + name, None
        else:
            attrs = _attrs(attr_text)
            if attrs is None:
                return "bad-envelope"
            if head.startswith(_KEYED):
                shape = "entry#/" if empty else "entry#"
            elif name not in _VALUE_NAMES:
                shape = "<"
                if empty:  # read as opened and closed: <b></b>
                    tags.append((shape, name, attrs))
                    shape, attrs = "/" + name, None
            else:
                shape = name + "/" if empty else name
        tags.append((shape, name, attrs))
    shapes = [shape for shape, _, _ in tags]
    actions = []
    index = slot = 0
    while index < len(tags):
        shape, name, attrs = tags[index]
        ahead = shapes[index:index + 4]
        if ahead == ["/value", "/entry", "entry#", "value"]:
            kind = _kind(tags[index + 3][2])
            fast = kind not in (dict, list, None)
            actions.append((_NEXT_LEAF if fast else _NEXT_FIELD, "value",
                            None, kind, slot))
            slot += 1
            index += 4
        elif ahead[:2] == ["/value", "/entry"]:
            actions.append((_FIELD_END, "value", None, None, None))
            index += 2
        elif shape == "/value":  # an entry holds its value and no more
            return "bad-element" if ahead[1:2] and ahead[1][0] != "/" \
                else "bad-envelope"
        elif ahead[:2] == ["entry#", "value"]:
            actions.append((_FIELD, "value", None, _kind(tags[index + 1][2]),
                            slot))
            slot += 1
            index += 2
        elif ahead[:3] == ["entry#", "value/", "/entry"]:
            actions.append((_EMPTY_FIELD, "value", None,
                            _kind(tags[index + 1][2]), slot))
            slot += 1
            index += 3
        elif shape.startswith("entry#"):
            return "bad-element"
        elif ahead[:2] == ["/item", "item"]:
            kind = _kind(tags[index + 1][2])
            fast = kind not in (dict, list, None)
            actions.append((_NEXT_ITEM_LEAF if fast else _NEXT_ITEM, "item",
                            None, kind, None))
            index += 2
        elif shape == "<" or (shape[0] == "/" and name not in _VALUE_NAMES):
            # Elements that can only be nodes, opened or closed together.
            end = index + 1
            while end < len(tags) and shapes[end][0] == shape[0] \
                    and (shape == "<" or tags[end][1] not in _VALUE_NAMES):
                end += 1
            group = tuple((tag[1], tag[2]) if shape == "<" else tag[1]
                          for tag in tags[index:end])
            actions.append((_OPEN_ELEMENTS if shape == "<"
                            else _CLOSE_ELEMENTS, group, None, None, None))
            index = end
        elif shape[0] == "/":
            actions.append((_CLOSE, name, None, None, None))
            index += 1
        else:
            actions.append((_EMPTY if shape[-1] == "/" else _OPEN, name,
                            attrs, _kind(attrs), None))
            index += 1
    if run.count('entry key="') != slot:
        return "bad-envelope"  # entry key=" inside another attribute
    return tuple(actions)


def _learn_run(pieces: List[str], index: int) -> _Learned:
    """The actions and keys of the run ``pieces[index]``, which ``_RUNS``
    does not hold; raises the refusal where it does not compile."""
    run = pieces[index]
    cut = _KEYS(run)
    keyless = _KEYED.join(cut[::2])
    compiled = _COMPILED.get(keyless)
    if compiled is None:
        compiled = _compile_run(keyless)
        if isinstance(compiled, str):
            raise _refused(pieces, index, compiled)
        if len(_COMPILED) >= _RUNS_BOUND:
            _COMPILED.clear()
        _COMPILED[keyless] = compiled
    keys = tuple(unescape(key, quoted=True) if "&" in key else key
                 for key in cut[1::2])
    if len(_RUNS) >= _RUNS_BOUND:
        _RUNS.clear()
    learned = _RUNS[run] = compiled, keys
    return learned


def _scan(envelope: str) -> Node:
    """Read ``envelope`` in one pass into its element tree, in which each
    ``<payload>`` directly inside an ``<op>`` or ``<opResponse>`` is
    already decoded: a :class:`_Decoded` stands where its node would.

    Raises :class:`MalformedFault` where it stops: ``too-deep`` at the
    depth bound, ``bad-element`` for a value that does not decode (a
    cast that fails, a repeated key, an unknown type, text or an element
    where a value is), ``bad-envelope`` for any other text that is not
    what the encoders write.  It names the first fault it meets.
    """
    if envelope[:1] != "<" or envelope[-1:] != ">":
        raise MalformedFault("envelope is not one complete element")
    pieces = _CUT(envelope[1:-1])
    runs = _RUNS
    top: List[Any] = []
    stack: List[tuple] = []  # the enclosing frames, innermost last
    push, pop = stack.append, stack.pop
    mode, node, tag, aux = _ELEMENT, top, None, None
    key: Any = None
    cast: Any = None
    depth = 0  # elements open
    text = ""
    for index in range(0, len(pieces), 2):
        if index:
            text = pieces[index - 1]
            if "&" in text:
                text = unescape(text)
        learned = runs.get(pieces[index]) or _learn_run(pieces, index)
        actions, keys = learned
        for code, name, attrs, kind, slot in actions:
            if code == _NEXT_LEAF:
                if mode == _FIELD_LEAF:
                    try:
                        node[key] = cast(text)
                    except (KeyError, ValueError):
                        raise _refused(pieces, index, "bad-element") from None
                    key, cast, text = keys[slot], kind, ""
                    if key in node:
                        raise _refused(pieces, index, "bad-element")
                    continue
                code = _NEXT_FIELD
            elif code == _NEXT_ITEM_LEAF:
                if mode == _ITEM_LEAF:
                    try:
                        node.append(cast(text))
                    except (KeyError, ValueError):
                        raise _refused(pieces, index, "bad-element") from None
                    cast, text = kind, ""
                    continue
                code = _NEXT_ITEM
            if code <= _NEXT_FIELD:  # </value></entry>
                if mode == _FIELD_LEAF:
                    try:
                        node[key] = cast(text)
                    except (KeyError, ValueError):
                        raise _refused(pieces, index, "bad-element") from None
                    mode = _STRUCT
                elif (mode == _STRUCT or mode == _ARRAY) and tag == "value" \
                        and not text:
                    value, field = node, aux
                    mode, node, tag, aux = pop()
                    node[field] = value
                else:  # text in an empty container is the value's fault
                    raise _refused(pieces, index, "bad-element" if (
                        mode == _STRUCT or mode == _ARRAY) and tag == "value"
                        and not node else "bad-envelope")
                depth -= 2
                text = ""
                if code == _FIELD_END:
                    continue
            if code <= _EMPTY_FIELD:  # <entry key="..."><value ...>
                if mode != _STRUCT or text or depth + 1 >= MAX_DEPTH \
                        or kind is None or keys[slot] in node:
                    raise _refused(pieces, index, _misplaced(
                        mode, tag, name, text, depth + 1 >= MAX_DEPTH))
                if code == _EMPTY_FIELD:
                    if kind is dict or kind is list:
                        node[keys[slot]] = kind()
                        continue
                    try:
                        node[keys[slot]] = kind("")
                    except (KeyError, ValueError):
                        raise _refused(pieces, index, "bad-element") from None
                elif kind is dict or kind is list:
                    push((mode, node, tag, aux))
                    mode = _STRUCT if kind is dict else _ARRAY
                    node, tag, aux = kind(), "value", keys[slot]
                    depth += 2
                else:
                    mode, key, cast = _FIELD_LEAF, keys[slot], kind
                    depth += 2
                continue
            if code == _CLOSE_ELEMENTS:
                if mode != _ELEMENT:
                    raise _refused(pieces, index, "bad-envelope")
                for closing in name:
                    if closing != tag or (text and node):
                        raise _refused(pieces, index, "bad-envelope")
                    element = (tag, aux, node, text)
                    mode, node, tag, aux = pop()
                    node.append(element)
                    text = ""
                depth -= len(name)
                continue
            if code == _OPEN_ELEMENTS:
                if mode != _ELEMENT or text or depth + len(name) > MAX_DEPTH:
                    raise _refused(pieces, index, _misplaced(
                        mode, tag, "", text, depth + len(name) > MAX_DEPTH))
                for opening, attributes in name:
                    push((mode, node, tag, aux))
                    node, tag, aux = [], opening, attributes
                depth += len(name)
                continue
            if code <= _NEXT_ITEM:  # </payload> or </item>
                if mode == _ITEM_LEAF or mode == _PAYLOAD_LEAF:
                    leaf = mode == _ITEM_LEAF
                    if name != ("item" if leaf else "payload"):
                        raise _refused(pieces, index, "bad-envelope")
                    try:
                        value = cast(text)
                    except (KeyError, ValueError):
                        raise _refused(pieces, index, "bad-element") from None
                    if leaf:
                        node.append(value)
                        mode = _ARRAY
                    else:
                        node.append(_Decoded(value))
                        mode = _ELEMENT
                elif (mode == _STRUCT or mode == _ARRAY) and name == tag \
                        and not text:
                    value = node
                    mode, node, tag, aux = pop()
                    node.append(value if mode == _ARRAY else _Decoded(value))
                else:  # text in an empty container is the value's fault
                    raise _refused(pieces, index, "bad-element" if (
                        mode == _STRUCT or mode == _ARRAY) and name == tag
                        and not node else "bad-envelope")
                depth -= 1
                text = ""
                if code == _CLOSE:
                    continue
            # <payload ...> in a carrier, <item ...> in an array
            if text or depth >= MAX_DEPTH or kind is None:
                raise _refused(pieces, index, _misplaced(
                    mode, tag, name, text, depth >= MAX_DEPTH))
            if mode == _ELEMENT:
                if name != "payload" or tag not in _CARRIERS:
                    raise _refused(pieces, index, _misplaced(
                        mode, tag, name, "", False))
            elif mode != _ARRAY or name != "item":
                raise _refused(pieces, index, _misplaced(
                    mode, tag, name, "", False))
            if code == _EMPTY:
                try:
                    value = kind() if kind is dict or kind is list \
                        else kind("")
                except (KeyError, ValueError):
                    raise _refused(pieces, index, "bad-element") from None
                node.append(value if mode == _ARRAY else _Decoded(value))
            elif kind is dict or kind is list:
                push((mode, node, tag, aux))
                mode = _STRUCT if kind is dict else _ARRAY
                node, tag, aux = kind(), name, None
                depth += 1
            else:
                mode = _ITEM_LEAF if mode == _ARRAY else _PAYLOAD_LEAF
                cast = kind
                depth += 1
    if depth or len(top) != 1:
        raise MalformedFault("envelope is not one complete element")
    return top[0]


def _body(envelope: str) -> Node:
    """Read ``envelope`` in one pass and return the single element inside
    ``soap:Envelope/soap:Body``."""
    node = _scan(envelope)
    for wrapper in ("soap:Envelope", "soap:Body"):
        tag, _, children, _ = node
        if tag != wrapper or len(children) != 1:
            raise MalformedFault(f"<{tag}> is not <{wrapper}> around a child")
        node = children[0]
    return node


def _decode_carrier(node: Node, expected: str) -> Tuple[str, Payload]:
    """Decode an ``<op>`` or ``<opResponse>`` into (name, payload)."""
    tag, attrs, children, text = node
    if tag != expected or text or len(children) > 1:
        raise MalformedFault(
            f"<{tag}> is not <{expected}> holding at most one <payload>"
        )
    if not children:
        payload = None
    elif isinstance(children[0], _Decoded):
        payload = children[0].payload
    else:  # an element, which the one pass never reads as a payload
        raise MalformedFault(f"undecodable <{children[0][0]}> element "
                             f"{children[0][1]!r}", subcode="bad-element")
    return attrs.get("name", ""), payload


def _decode_op(node: Node) -> Tuple[str, Payload]:
    operation, payload = _decode_carrier(node, "op")
    if not operation:
        raise MalformedFault("request missing operation name",
                             subcode="missing-operation")
    return operation, payload


def _batch_items(node: Node, expected: str) -> List[Node]:
    """The children of a ``<batch>``/``<batchResponse>``, count checked."""
    tag, attrs, children, text = node
    if tag != expected or text or attrs.get("n") != str(len(children)):
        raise MalformedFault(f"<{tag}> {attrs!r} is not <{expected}> "
                             f"counting its {len(children)} children")
    return children


def decode_envelope(envelope: str) -> Tuple[bool, List[Tuple[str, Payload]]]:
    """Decode a request envelope of either family.

    Returns ``(is_batch, calls)`` where ``calls`` is a list of
    ``(operation, payload)`` pairs — length 1 for single-op envelopes.
    """
    body = _body(envelope)
    if body[0] != "batch":
        return False, [_decode_op(body)]
    calls = [_decode_op(child) for child in _batch_items(body, "batch")]
    if not calls:
        raise MalformedFault("batch envelope carries no operations")
    return True, calls


def decode_request(envelope: str) -> Tuple[str, Payload]:
    """Extract (operation, payload) from a single-op request envelope."""
    is_batch, calls = decode_envelope(envelope)
    if is_batch:
        raise MalformedFault("batch envelope where one operation was expected")
    return calls[0]


def _decode_fault(node: Node) -> ServiceFault:
    """Rebuild the typed fault of a ``<soap:Fault>`` (code and subcode in
    child elements) or an ``<opFault>`` (code and subcode in attributes).

    A fault without a structured code collapses to ``INTERNAL``.
    """
    _, attrs, children, _ = node
    fields = {tag: text for tag, _, _, text in children}
    if "faultstring" not in fields:
        raise MalformedFault("fault element carries no <faultstring>")
    return fault_from_code(
        fields.get("faultcode", attrs.get("code", "")),
        fields["faultstring"],
        fields.get("faultsub", attrs.get("subcode", "")),
        operation=attrs.get("name", ""),
    )


def decode_response(envelope: str) -> Payload:
    """Extract the payload from a response envelope, raising on faults."""
    body = _body(envelope)
    if body[0] == "soap:Fault":
        raise _decode_fault(body)
    return _decode_carrier(body, "opResponse")[1]


def decode_batch_response(envelope: str) -> List[Union[Payload, ServiceFault]]:
    """Decode a batch response into per-op payloads and fault objects.

    Per-op faults are *returned*, not raised: each op in the batch failed
    or succeeded independently and the caller decides per item.  An
    envelope-level ``<soap:Fault>`` (the whole batch was rejected) is
    raised, as in :func:`decode_response`.
    """
    body = _body(envelope)
    if body[0] == "soap:Fault":
        raise _decode_fault(body)
    return [
        _decode_fault(child) if child[0] == "opFault"
        else _decode_carrier(child, "opResponse")[1]
        for child in _batch_items(body, "batchResponse")
    ]


def envelope_size(envelope: str) -> int:
    """Wire size in bytes (drives latency and parse-cost models)."""
    return len(envelope.encode("utf-8"))
