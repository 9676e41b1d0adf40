"""The reference envelope decoder: the tree path ``web/soap.py`` read
every envelope by before its one pass became the only decoder.

``_read`` states the whole grammar (tags, attributes, entities, nesting,
the depth bound) and reads one ``_TOKEN_RE`` token per tag or run of
text into a small element tree; the walks decode that tree.  It carries
no traffic; it is kept here, and only here, as the oracle the one pass
(``soap._scan``) is held to by ``test_soap.py`` and
``benchmarks/bench_codec.py``, which loads this file by path.  It shares
the tag syntax (``_TAG_RE``, ``_attrs``), the entities and the value
types with the codec, so that the two differ only in how they read.

It accepts a wider language than the one pass: a raw ``>`` inside an
attribute value, an ``<entry>`` whose ``key`` is not its first
attribute after one space, ``entry key="`` inside another attribute's
value, and a ``<payload>``, ``<value>``, ``<item>`` or ``<entry>``
outside an ``<op>`` / ``<opResponse>`` payload.  No encoder writes any
of them.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple, Union

from repro.condorj2.api.faults import (
    MalformedFault,
    ServiceFault,
    fault_from_code,
)
from repro.condorj2.web.soap import (
    MAX_DEPTH,
    _NIL,
    _SCALARS,
    _TAG_RE,
    Node,
    Payload,
    _attrs,
    unescape,
)

#: One token of envelope text: a tag (``_TAG_RE``'s four groups), a run
#: of character data, or a ``<`` that opens no tag.
_TOKEN_RE = re.compile(rf"<{_TAG_RE.pattern}|([^<]+)|<")


def _read(envelope: str) -> Node:
    """Read ``envelope``, one token per tag or run of text, into its
    element tree.

    The only function that states the whole grammar.  It checks nesting,
    close-tag names, attribute syntax and depth as it goes, and raises
    :class:`MalformedFault` unless the text is exactly one element.
    """
    top: List[Node] = []
    siblings = top  # the children of the innermost open element
    open_elements: List[Tuple[str, Dict[str, str], List[Node]]] = []
    text = ""
    for token in _TOKEN_RE.finditer(envelope):
        closing, tag, attr_text, empty, run = token.groups()
        if run is not None:
            text = unescape(run) if "&" in run else run
        elif closing:
            if attr_text or empty or not open_elements:
                break
            open_tag, attrs, parent = open_elements.pop()
            if open_tag != tag or (text and siblings):
                break
            parent.append((tag, attrs, siblings, text))
            siblings, text = parent, ""
        elif tag is None or text:
            break  # no tag opens at this "<", or text beside a child
        elif len(open_elements) >= MAX_DEPTH:
            raise MalformedFault(f"elements nest deeper than {MAX_DEPTH}",
                                 subcode="too-deep")
        else:
            attrs = _attrs(attr_text)
            if attrs is None:
                break  # an attribute name repeats
            if empty:
                siblings.append((tag, attrs, [], ""))
            else:
                open_elements.append((tag, attrs, siblings))
                siblings = []
    else:
        if len(top) == 1 and not open_elements and not text:
            return top[0]
        raise MalformedFault("envelope is not one complete element")
    raise MalformedFault(f"envelope malformed at offset {token.start()}")


def _body(envelope: str) -> Node:
    """Read ``envelope`` with :func:`_read` and return the single element
    inside ``soap:Envelope/soap:Body``."""
    node = _read(envelope)
    for wrapper in ("soap:Envelope", "soap:Body"):
        tag, _, children, _ = node
        if tag != wrapper or len(children) != 1:
            raise MalformedFault(f"<{tag}> is not <{wrapper}> around a child")
        node = children[0]
    return node


def _decode_value(node: Node, expected: str) -> Payload:
    """Decode the value element ``node``, which must be tagged ``expected``."""
    tag, attrs, children, text = node
    kind = attrs.get("type")
    if tag != expected:
        pass
    elif kind == "struct":
        result: Dict[str, Payload] = {}
        for entry, keyed, values, _ in children:
            if entry != "entry" or "key" not in keyed or len(values) != 1:
                break
            result[keyed["key"]] = _decode_value(values[0], "value")
        else:
            if not text and len(result) == len(children):
                return result
    elif kind == "array":
        if not text:
            return [_decode_value(child, "item") for child in children]
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


def decode_envelope(envelope: str) -> Tuple[bool, List[Tuple[str, Payload]]]:
    """Decode a request envelope of either family."""
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
    """Rebuild the typed fault of a ``<soap:Fault>`` or an ``<opFault>``."""
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
    """Decode a batch response into per-op payloads and fault objects."""
    body = _body(envelope)
    if body[0] == "soap:Fault":
        raise _decode_fault(body)
    return [
        _decode_fault(child) if child[0] == "opFault"
        else _decode_carrier(child, "opResponse")[1]
        for child in _batch_items(body, "batchResponse")
    ]

