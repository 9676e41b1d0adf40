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

Decoding reads the envelope text exactly once.  :func:`_read` alone
knows the grammar (tags, attributes, entities, nesting, the depth bound)
and returns a small element tree; every public decoder is a walk over
that tree that knows only the vocabulary.  Both the walk and the encoder
handle a struct's or array's scalar children inside the container's own
loop and recurse only for nested containers (and, when encoding, for
subclass instances and children past the depth bound), so a payload of
a hundred flat structs costs a hundred calls, not several hundred.  Whatever either refuses is a
typed ``MALFORMED`` fault, never a bare exception, so the CAS answers
and meters it.  Faults ride the wire as ``(code, subcode, detail)``
triples from the taxonomy in :mod:`repro.condorj2.api.faults`; the walk
rebuilds the typed exception.

The protocol says the same few dozen things over and over -- ``<value
type="int">``, ``<entry key="vm_id">``, ``</entry>`` -- so both halves
remember what they have already worked out, in two small module memos
that are emptied when they reach their bound: the reader keeps each tag
head it has parsed (the tag regex, the one statement of tag syntax,
reads only heads it has not seen), the encoder each struct key it has
escaped.  Neither changes a byte on the wire or a node in the tree.
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
#: has a few dozen; past the bound the memo is emptied, like ``_HEADS``.
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
# decoding: one reader that knows the grammar, walks that know the words
# ----------------------------------------------------------------------
#: One parsed element: ``(tag, attributes, child elements, text)``.  An
#: element holds children or text, never both; an empty one holds neither.
Node = Tuple[str, Dict[str, str], List[Any], str]

#: An element or attribute name.
_NAME = r'[^\s<>/="]+'
#: What may follow a ``<``: a start, end or empty-element tag with
#: well-formed attributes, through its ``>``.  The only place tag syntax
#: is written down; a ``<`` this does not match condemns the envelope.
_TAG_RE = re.compile(
    rf'(/?)({_NAME})((?:\s+{_NAME}="[^"<]*")*)\s*(/?)>'
)
_ATTR_RE = re.compile(rf'({_NAME})="([^"<]*)"')

#: Tag heads ``_TAG_RE`` has already read -- the text between a ``<`` and
#: the first ``>`` after it, such as ``value type="int"`` or ``/entry`` --
#: each with its ``(closing, tag, attrs, empty)``.  The protocol has a
#: few dozen; a client that invents more than the bound empties the memo
#: and is read at the regex's speed.  The ``attrs`` dicts are shared by
#: every element with that head: read them, never hand them out.
_HEADS: Dict[str, Tuple[str, str, Optional[Dict[str, str]], str]] = {}
_HEADS_BOUND = 256


def _read_tag(chunk: str, head: str) -> Optional[tuple]:
    """Parse the tag that opens ``chunk`` (envelope text from just after
    a ``<`` up to the next one): ``(closing, tag, attrs, empty, text
    after the tag)``, or None when no tag does.  ``attrs`` is None for
    an end tag, and for a start tag that repeats an attribute name."""
    match = _TAG_RE.match(chunk)
    if match is None:
        return None
    closing, tag, attr_text, empty = match.groups()
    attrs = None
    if closing:
        if attr_text or empty:
            return None
    else:
        pairs = _ATTR_RE.findall(attr_text)
        if "&" in attr_text:
            pairs = [(name, unescape(raw, quoted=True))
                     for name, raw in pairs]
        attrs = dict(pairs)
        if len(attrs) != len(pairs):
            attrs = None
    end = match.end()
    # Remember the head only when the tag is exactly ``<head>``: a ">"
    # inside an attribute value ends ``head`` early.
    if end == len(head) + 1 and (closing or attrs is not None):
        if len(_HEADS) >= _HEADS_BOUND:
            _HEADS.clear()
        _HEADS[head] = (closing, tag, attrs, empty)
    return closing, tag, attrs, empty, chunk[end:]


def _read(envelope: str) -> Node:
    """Scan ``envelope`` once, left to right, into its element tree.

    The only function that looks at envelope text.  It checks nesting,
    close-tag names, attribute syntax and depth as it goes, and raises
    :class:`MalformedFault` unless the text is exactly one element.
    """
    top: List[Node] = []
    siblings = top  # the children of the innermost open element
    open_elements: List[Tuple[str, Dict[str, str], List[Node]]] = []
    known = _HEADS.get
    chunks = iter(envelope.split("<"))
    text = next(chunks)  # whatever precedes the first "<"
    for chunk in chunks:
        head, found, tail = chunk.partition(">")
        parsed = known(head) if found else None
        if parsed is not None:
            closing, tag, attrs, empty = parsed
        else:
            parsed = _read_tag(chunk, head)
            if parsed is None:
                break  # no tag opens at this "<"
            closing, tag, attrs, empty, tail = parsed
        if closing:
            if not open_elements:
                break
            open_tag, attrs, parent = open_elements.pop()
            if open_tag != tag or (text and siblings):
                break
            parent.append((tag, attrs, siblings, text))
            siblings = parent
        elif text:
            break  # text beside a child or outside the root
        elif len(open_elements) >= MAX_DEPTH:
            raise MalformedFault(f"elements nest deeper than {MAX_DEPTH}",
                                 subcode="too-deep")
        elif attrs is None:
            break  # an attribute name repeats
        elif empty:
            siblings.append((tag, attrs, [], ""))
        else:
            open_elements.append((tag, attrs, siblings))
            siblings = []
        text = unescape(tail) if "&" in tail else tail
    else:
        if len(top) == 1 and not open_elements and not text:
            return top[0]
        raise MalformedFault("envelope is not one complete element")
    offset = len(envelope) - len(chunk) - 1 - sum(
        len(rest) + 1 for rest in chunks)
    raise MalformedFault(f"envelope malformed at offset {offset}")


def _body(envelope: str) -> Node:
    """Read ``envelope`` -- the one call to the reader a decoder makes --
    and return the single element inside ``soap:Envelope/soap:Body``."""
    node = _read(envelope)
    for wrapper in ("soap:Envelope", "soap:Body"):
        tag, _, children, _ = node
        if tag != wrapper or len(children) != 1:
            raise MalformedFault(f"<{tag}> is not <{wrapper}> around a child")
        node = children[0]
    return node


_NIL = {"xsi:nil": "true"}
_SCALARS = {"string": str, "int": int, "double": float,
            "boolean": {"true": True, "false": False}.__getitem__}


def _decode_value(node: Node, expected: str) -> Payload:
    """Decode the value element ``node``, which must be tagged ``expected``.

    A struct or array decodes its scalar and nil children in its own
    loop; any other child, and any child that does not decode there, is
    decoded (or refused) by a call of its own."""
    tag, attrs, children, text = node
    kind = attrs.get("type")
    if tag != expected:
        pass
    elif kind == "struct":
        result: Dict[str, Payload] = {}
        for entry, keyed, values, _ in children:
            if entry != "entry" or "key" not in keyed or len(values) != 1:
                break
            child = values[0]
            child_tag, child_attrs, grandchildren, child_text = child
            if child_tag == "value" and not grandchildren:
                cast = _SCALARS.get(child_attrs.get("type"))
                try:
                    if cast is not None:
                        result[keyed["key"]] = cast(child_text)
                        continue
                    if child_attrs == _NIL and not child_text:
                        result[keyed["key"]] = None
                        continue
                except (KeyError, ValueError):
                    pass
            result[keyed["key"]] = _decode_value(child, "value")
        else:
            if not text and len(result) == len(children):
                return result
    elif kind == "array":
        if not text:
            items: List[Payload] = []
            for child in children:
                child_tag, child_attrs, grandchildren, child_text = child
                if child_tag == "item" and not grandchildren:
                    cast = _SCALARS.get(child_attrs.get("type"))
                    try:
                        if cast is not None:
                            items.append(cast(child_text))
                            continue
                        if child_attrs == _NIL and not child_text:
                            items.append(None)
                            continue
                    except (KeyError, ValueError):
                        pass
                items.append(_decode_value(child, "item"))
            return items
    elif kind in _SCALARS and not children:
        try:
            return _SCALARS[kind](text)
        except (KeyError, ValueError):
            pass
    elif attrs == _NIL and not (children or text):
        return None
    raise MalformedFault(f"undecodable <{tag}> element {attrs!r}",
                         subcode="bad-element")


def _decode_carrier(node: Node, expected: str) -> Tuple[str, Payload]:
    """Decode an ``<op>`` or ``<opResponse>`` into (name, payload)."""
    tag, attrs, children, text = node
    if tag != expected or text or len(children) > 1:
        raise MalformedFault(
            f"<{tag}> is not <{expected}> holding at most one <payload>"
        )
    payload = _decode_value(children[0], "payload") if children else None
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


def is_batch_request(envelope: str) -> bool:
    """Does the envelope carry a multiplexed batch?"""
    return _body(envelope)[0] == "batch"


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
