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

Faults ride the wire as ``(code, subcode, detail)`` triples from the
structured taxonomy in :mod:`repro.condorj2.api.faults`; the decoder
reconstructs the typed exception.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from xml.sax.saxutils import escape, unescape

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

#: Attribute values additionally escape ``"`` — they live inside
#: double-quoted attributes, so a raw quote would truncate the value
#: and silently corrupt the round-trip (struct keys, operation names).
_ATTR_ENTITIES = {'"': "&quot;"}
_ATTR_UNENTITIES = {"&quot;": '"'}
_ATTR_RE = re.compile(r'([^\s=]+)="([^"]*)"')


def _escape_attr(value: str) -> str:
    return escape(value, _ATTR_ENTITIES)


def _unescape_attr(value: str) -> str:
    return unescape(value, _ATTR_UNENTITIES)


def _encode_value(value: Payload, tag: str) -> str:
    if value is None:
        return f'<{tag} xsi:nil="true"/>'
    if isinstance(value, bool):
        return f'<{tag} type="boolean">{"true" if value else "false"}</{tag}>'
    if isinstance(value, int):
        return f'<{tag} type="int">{value}</{tag}>'
    if isinstance(value, float):
        return f'<{tag} type="double">{value!r}</{tag}>'
    if isinstance(value, str):
        return f'<{tag} type="string">{escape(value)}</{tag}>'
    if isinstance(value, list):
        inner = "".join(_encode_value(item, "item") for item in value)
        return f'<{tag} type="array">{inner}</{tag}>'
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                # str(key) here would break round-tripping: {1: "x"}
                # would come back as {"1": "x"}.  Reject loudly instead.
                raise MalformedFault(
                    f"struct key {key!r} is {type(key).__name__}, not str",
                    subcode="non-string-key",
                )
            parts.append(
                f'<entry key="{_escape_attr(key)}">'
                f'{_encode_value(item, "value")}</entry>'
            )
        return f'<{tag} type="struct">{"".join(parts)}</{tag}>'
    raise MalformedFault(
        f"unserialisable value of type {type(value).__name__}",
        subcode="unserialisable",
    )


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
# decoding: a tiny recursive-descent scan over the envelope text
# ----------------------------------------------------------------------
def _tag_at(text: str, tag: str, position: int) -> bool:
    """Does an element named exactly ``tag`` open at ``position``?"""
    if not text.startswith(f"<{tag}", position):
        return False
    follower = position + 1 + len(tag)
    return follower < len(text) and text[follower] in " />\t\n"


def _find_open(text: str, tag: str, start: int = 0) -> int:
    """Index of the next ``<tag``, matching the tag name exactly."""
    cursor = start
    needle = f"<{tag}"
    while True:
        open_at = text.find(needle, cursor)
        if open_at < 0:
            return -1
        if _tag_at(text, tag, open_at):
            return open_at
        cursor = open_at + 1


def _find_tag(text: str, tag: str, start: int = 0) -> Tuple[int, int, Dict[str, str]]:
    """Locate ``<tag ...>``; returns (content_start, content_end, attrs)."""
    open_at = _find_open(text, tag, start)
    if open_at < 0:
        raise MalformedFault(f"missing <{tag}> element")
    head_end = text.find(">", open_at)
    if head_end < 0:
        raise MalformedFault("malformed envelope")
    head = text[open_at + 1 + len(tag):head_end]
    attrs: Dict[str, str] = {
        name: _unescape_attr(raw)
        for name, raw in _ATTR_RE.findall(head)
    }
    if text[head_end - 1] == "/":  # self-closing
        return head_end + 1, head_end + 1, attrs
    close = _matching_close(text, tag, head_end + 1)
    return head_end + 1, close, attrs


def _matching_close(text: str, tag: str, start: int) -> int:
    """Index of the matching ``</tag>`` handling nested same-name tags."""
    depth = 1
    cursor = start
    while depth > 0:
        next_open = _find_open(text, tag, cursor)
        next_close = text.find(f"</{tag}>", cursor)
        if next_close < 0:
            raise MalformedFault(f"unbalanced <{tag}>")
        if 0 <= next_open < next_close:
            head_end = text.find(">", next_open)
            if text[head_end - 1] != "/":
                depth += 1
            cursor = head_end + 1
        else:
            depth -= 1
            if depth == 0:
                return next_close
            cursor = next_close + len(tag) + 3
    raise MalformedFault(f"unbalanced <{tag}>")  # pragma: no cover


def _decode_value(text: str) -> Payload:
    head_end = text.find(">")
    head = text[1:head_end]
    if 'xsi:nil="true"' in head:
        return None
    if 'type="boolean"' in head:
        return text[head_end + 1:text.rfind("<")] == "true"
    if 'type="int"' in head:
        return int(text[head_end + 1:text.rfind("<")])
    if 'type="double"' in head:
        return float(text[head_end + 1:text.rfind("<")])
    if 'type="string"' in head:
        return unescape(text[head_end + 1:text.rfind("<")])
    if 'type="array"' in head:
        inner = text[head_end + 1:text.rfind("<")]
        return [_decode_value(chunk) for chunk in _split_elements(inner, "item")]
    if 'type="struct"' in head:
        inner = text[head_end + 1:text.rfind("<")]
        result: Dict[str, Payload] = {}
        for entry in _split_elements(inner, "entry"):
            key_start = entry.find('key="') + 5
            key = _unescape_attr(entry[key_start:entry.find('"', key_start)])
            value_start, value_end, _ = _find_tag(entry, "value")
            open_at = entry.rfind("<value", 0, value_start)
            result[key] = _decode_value(entry[open_at:value_end + len("</value>")])
        return result
    raise MalformedFault(f"undecodable element head {head!r}",
                         subcode="bad-element")


def _split_elements(text: str, tag: str) -> List[str]:
    """Split concatenated sibling elements named ``tag``."""
    return [element for _, element in _split_multi(text, (tag,))]


def _split_multi(text: str, tags: Sequence[str]) -> List[Tuple[str, str]]:
    """Split ordered sibling elements drawn from several tag names.

    Returns ``(tag, element_text)`` pairs in document order — the shape
    of a batch response's mixed ``opResponse``/``opFault`` children.
    """
    chunks: List[Tuple[str, str]] = []
    cursor = 0
    while True:
        candidates = [
            (open_at, tag)
            for tag in tags
            if (open_at := _find_open(text, tag, cursor)) >= 0
        ]
        if not candidates:
            return chunks
        open_at, tag = min(candidates)
        head_end = text.find(">", open_at)
        if text[head_end - 1] == "/":
            chunks.append((tag, text[open_at:head_end + 1]))
            cursor = head_end + 1
            continue
        close = _matching_close(text, tag, head_end + 1)
        end = close + len(tag) + 3
        chunks.append((tag, text[open_at:end]))
        cursor = end


def _decode_op(element: str) -> Tuple[str, Payload]:
    """Decode one ``<op>`` element into (operation, payload)."""
    start, end, attrs = _find_tag(element, "op")
    operation = attrs.get("name", "")
    if not operation:
        raise MalformedFault("request missing operation name",
                             subcode="missing-operation")
    inner = element[start:end]
    payload_start = inner.find("<payload")
    payload = _decode_value(inner[payload_start:]) if payload_start >= 0 else None
    return operation, payload


def is_batch_request(envelope: str) -> bool:
    """Does the envelope carry a multiplexed batch?"""
    return _find_open(envelope, "batch") >= 0


def decode_envelope(envelope: str) -> Tuple[bool, List[Tuple[str, Payload]]]:
    """Decode a request envelope of either family.

    Returns ``(is_batch, calls)`` where ``calls`` is a list of
    ``(operation, payload)`` pairs — length 1 for single-op envelopes.
    """
    _, _, _ = _find_tag(envelope, "soap:Body")
    if not is_batch_request(envelope):
        return False, [_decode_op(envelope)]
    start, end, _ = _find_tag(envelope, "batch")
    inner = envelope[start:end]
    calls = [_decode_op(element) for element in _split_elements(inner, "op")]
    if not calls:
        raise MalformedFault("batch envelope carries no operations")
    return True, calls


def decode_request(envelope: str) -> Tuple[str, Payload]:
    """Extract (operation, payload) from a single-op request envelope."""
    is_batch, calls = decode_envelope(envelope)
    if is_batch:
        raise MalformedFault(
            "batch envelope where a single operation was expected"
        )
    return calls[0]


def _decode_fault(element: str) -> ServiceFault:
    """Rebuild the typed fault a ``<soap:Fault>``-style element carries."""
    start, end, _ = _find_tag(element, "faultstring")
    detail = unescape(element[start:end])
    try:
        code_start, code_end, _ = _find_tag(element, "faultcode")
        code = unescape(element[code_start:code_end])
        sub_start, sub_end, _ = _find_tag(element, "faultsub")
        subcode = unescape(element[sub_start:sub_end])
    except ServiceFault:
        # Legacy envelope: no structured code; collapse to INTERNAL.
        return ServiceFault(detail)
    return fault_from_code(code, detail, subcode)


def decode_response(envelope: str) -> Payload:
    """Extract the payload from a response envelope, raising on faults."""
    if "<soap:Fault>" in envelope:
        raise _decode_fault(envelope)
    start, end, _ = _find_tag(envelope, "opResponse")
    inner = envelope[start:end]
    payload_start = inner.find("<payload")
    if payload_start < 0:
        return None
    return _decode_value(inner[payload_start:])


def decode_batch_response(envelope: str) -> List[Union[Payload, ServiceFault]]:
    """Decode a batch response into per-op payloads and fault objects.

    Per-op faults are *returned*, not raised: each op in the batch failed
    or succeeded independently and the caller decides per item.  An
    envelope-level ``<soap:Fault>`` (the whole batch was rejected) is
    raised, as in :func:`decode_response`.
    """
    if "<soap:Fault>" in envelope:
        raise _decode_fault(envelope)
    start, end, _ = _find_tag(envelope, "batchResponse")
    inner = envelope[start:end]
    results: List[Union[Payload, ServiceFault]] = []
    for tag, element in _split_multi(inner, ("opResponse", "opFault")):
        if tag == "opFault":
            _, _, attrs = _find_tag(element, "opFault")
            detail_start, detail_end, _ = _find_tag(element, "faultstring")
            results.append(fault_from_code(
                attrs.get("code", ""),
                unescape(element[detail_start:detail_end]),
                attrs.get("subcode", ""),
                operation=attrs.get("name", ""),
            ))
        else:
            payload_start = element.find("<payload")
            results.append(
                _decode_value(element[payload_start:element.rfind("</opResponse>")])
                if payload_start >= 0 else None
            )
    return results


def envelope_size(envelope: str) -> int:
    """Wire size in bytes (drives latency and parse-cost models)."""
    return len(envelope.encode("utf-8"))
