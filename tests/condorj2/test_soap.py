"""Unit tests for the SOAP envelope codec.

``reference_codec.py`` (next to this file) is the tree path the codec
decoded by before its one pass became the only decoder: the oracle the
one pass is held to here.
"""

import enum
import importlib.util
import pathlib
import sys
import types

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.condorj2.api.faults import (
    ConflictFault,
    FaultCode,
    MalformedFault,
    ServiceFault,
    ValidationFault,
)
from repro.condorj2.web import soap
from repro.condorj2.web.soap import (
    MAX_DEPTH,
    decode_batch_response,
    decode_envelope,
    decode_request,
    decode_response,
    encode_batch_request,
    encode_batch_response,
    encode_request,
    encode_response,
    envelope_size,
)

_REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference_codec.py"


def _load_reference():
    name = "condorj2_reference_codec"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _REFERENCE_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


reference = _load_reference()


def round_trip_request(payload):
    operation, decoded = decode_request(encode_request("op", payload))
    assert operation == "op"
    return decoded


def test_scalar_round_trips():
    assert round_trip_request(None) is None
    assert round_trip_request(True) is True
    assert round_trip_request(False) is False
    assert round_trip_request(42) == 42
    assert round_trip_request(3.5) == 3.5
    assert round_trip_request("hello") == "hello"


def test_string_escaping():
    assert round_trip_request('a <b> & "c"') == 'a <b> & "c"'


def test_list_round_trip():
    assert round_trip_request([1, "two", 3.0]) == [1, "two", 3.0]
    assert round_trip_request([]) == []


def test_dict_round_trip():
    payload = {"machine": "node1", "vms": [{"vm_id": "vm0", "state": "idle"}]}
    assert round_trip_request(payload) == payload


def test_nested_structures():
    payload = {"a": {"b": {"c": [1, {"d": None}]}}}
    assert round_trip_request(payload) == payload


def test_heartbeat_shaped_payload():
    payload = {
        "machine": "node007",
        "vms": [{"vm_id": f"vm{i}@node007", "state": "idle"} for i in range(4)],
        "events": [{"kind": "completed", "job_id": 12, "vm_id": "vm0@node007"}],
    }
    assert round_trip_request(payload) == payload


def test_operation_name_decoded():
    operation, _ = decode_request(encode_request("acceptMatch", {"job_id": 1}))
    assert operation == "acceptMatch"


def test_response_round_trip():
    envelope = encode_response("heartbeat", {"status": "OK", "matches": []})
    assert decode_response(envelope) == {"status": "OK", "matches": []}


def test_response_fault_raises():
    envelope = encode_response("op", None, fault="something broke")
    with pytest.raises(ServiceFault, match="something broke"):
        decode_response(envelope)


def test_decode_garbage_raises():
    with pytest.raises(ServiceFault):
        decode_request("<not-soap/>")


_HEAD, _TAIL = soap._PROLOGUE, soap._EPILOGUE


def _op_envelope(inner):
    return f'{_HEAD}<op name="x">{inner}</op>{_TAIL}'


#: Envelopes the rescanning decoder accepted (or crashed on untyped),
#: with the subcode each is refused with now; the comment on each row is
#: what it used to produce.
MALFORMED_ENVELOPES = {
    # bare ValueError out of decode_envelope
    "int-text": (_op_envelope('<payload type="int">abc</payload>'),
                 "bad-element"),
    "double-text": (_op_envelope('<payload type="double">zz</payload>'),
                    "bad-element"),
    # ('x', 'a</payload><payload type="int">2')
    "second-payload": (
        _op_envelope('<payload type="string">a</payload>'
                     '<payload type="int">2</payload>'),
        "bad-envelope"),
    # ('x', 1)
    "mismatched-close": (_op_envelope('<payload type="int">1</wrong>'),
                         "bad-envelope"),
    # ('x', False)
    "boolean-text": (_op_envelope('<payload type="boolean">maybe</payload>'),
                     "bad-element"),
    # a one-op batch
    "batch-count": (
        f'{_HEAD}<batch n="2"><op name="x"><payload type="int">1'
        f'</payload></op></batch>{_TAIL}',
        "bad-envelope"),
    # ('x', 1)
    "valueless-attribute": (
        _op_envelope('<payload type="int" junk>1</payload>'),
        "bad-envelope"),
    # ('y', 1)
    "duplicate-attribute": (
        f'{_HEAD}<op name="x" name="y"><payload type="int">1</payload>'
        f'</op>{_TAIL}',
        "bad-envelope"),
    # ('x', [1])
    "text-beside-child": (
        _op_envelope('<payload type="array">stray'
                     '<item type="int">1</item></payload>'),
        "bad-envelope"),
    # ('x', 1)
    "text-after-root": (_op_envelope('<payload type="int">1</payload>')
                        + "trailing", "bad-envelope"),
    # ('x', {'k': 2})
    "duplicate-key": (
        _op_envelope('<payload type="struct">'
                     '<entry key="k"><value type="int">1</value></entry>'
                     '<entry key="k"><value type="int">2</value></entry>'
                     '</payload>'),
        "bad-element"),
    # RecursionError
    "deep-nesting": (
        _op_envelope('<payload type="array">' + '<item type="array">' * 1200
                     + '</item>' * 1200 + '</payload>'),
        "too-deep"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ENVELOPES))
def test_malformed_envelopes_raise_typed_faults(name):
    """Every public decoder refuses each text with the pinned subcode, and
    so does the reference's request decoder.  (Its response decoders
    name the ``<op>`` that is not an ``<opResponse>`` where the payload
    holds a value fault: they find the structural fault by reading the
    whole tree, the one pass meets the value fault first.)"""
    envelope, subcode = MALFORMED_ENVELOPES[name]
    assert [_outcome(soap, decode, envelope) for decode in DECODERS] \
        == [subcode] * len(DECODERS)
    assert _outcome(reference, "decode_envelope", envelope) == subcode


def _nested_list(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_depth_bound_is_shared_by_encoder_and_decoder():
    """A 1,200-deep array used to crash both halves with RecursionError.
    Both now refuse with the typed fault, and whatever the encoders
    accept -- in either envelope family -- the decoders read back."""
    with pytest.raises(MalformedFault) as excinfo:
        encode_request("op", _nested_list(1200))
    assert excinfo.value.subcode == "too-deep"
    accepted = 0
    for depth in range(MAX_DEPTH - 8, MAX_DEPTH + 2):
        payload = _nested_list(depth)
        try:
            single = encode_request("op", payload)
            batch = encode_batch_request([("op", payload)])
            response = encode_batch_response([("op", payload, None)])
        except MalformedFault:
            continue
        accepted += 1
        assert decode_request(single) == ("op", payload)
        assert decode_envelope(batch) == (True, [("op", payload)])
        assert decode_batch_response(response) == [payload]
    assert 0 < accepted < 10  # the bound falls inside the sampled range


def test_unserialisable_payload_raises():
    with pytest.raises(ServiceFault):
        encode_request("op", object())


def test_envelope_size_counts_bytes():
    envelope = encode_request("op", {"k": "v"})
    assert envelope_size(envelope) == len(envelope.encode("utf-8"))
    assert envelope_size(envelope) > 50


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2**31, max_value=2**31),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            # Full printable-ASCII keys, including '"', '&', '<', '>' and
            # spaces — attribute escaping must round-trip all of them.
            st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    min_size=1, max_size=8),
            children, max_size=4,
        ),
    ),
    max_leaves=20,
)


@given(json_like)
@settings(max_examples=200)
def test_codec_round_trips_arbitrary_payloads(payload):
    """Property: encode/decode is the identity on JSON-like payloads."""
    assert round_trip_request(payload) == payload


@given(json_like)
@settings(max_examples=100)
def test_response_codec_round_trips(payload):
    assert decode_response(encode_response("op", payload)) == payload


# ----------------------------------------------------------------------
# the non-string-key bugfix: payloads must round-trip or fail loudly
# ----------------------------------------------------------------------
def test_non_string_dict_key_is_rejected_loudly():
    """{1: "x"} used to decode as {"1": "x"}; now it is a typed fault."""
    with pytest.raises(MalformedFault) as excinfo:
        encode_request("op", {1: "x"})
    assert excinfo.value.code == FaultCode.MALFORMED
    assert excinfo.value.subcode == "non-string-key"


def test_non_string_key_rejected_in_nested_structures():
    with pytest.raises(MalformedFault):
        encode_request("op", {"outer": [{"ok": 1, (1, 2): "x"}]})
    with pytest.raises(MalformedFault):
        encode_response("op", {"outer": {None: "x"}})


def test_quote_bearing_struct_keys_round_trip():
    """A '"' in a key used to truncate the attribute and corrupt the
    key silently; attribute escaping must round-trip it exactly."""
    payload = {'k="x': 1, 'a b': 2, "amp&quot;": 3, "<tag>": 4}
    assert round_trip_request(payload) == payload


def test_quote_bearing_operation_names_round_trip():
    operation, _ = decode_request(encode_request('odd "op" name', {"a": 1}))
    assert operation == 'odd "op" name'


# ----------------------------------------------------------------------
# typed fault codes on the wire
# ----------------------------------------------------------------------
def test_fault_codes_round_trip():
    fault = ValidationFault("vm_id is missing", subcode="missing-field",
                            operation="acceptMatch")
    envelope = encode_response("acceptMatch", None, fault=fault)
    with pytest.raises(ValidationFault) as excinfo:
        decode_response(envelope)
    decoded = excinfo.value
    assert decoded.code == FaultCode.VALIDATION
    assert decoded.subcode == "missing-field"
    assert "vm_id" in decoded.detail


def test_legacy_string_fault_decodes_as_internal():
    envelope = encode_response("op", None, fault="something broke")
    with pytest.raises(ServiceFault) as excinfo:
        decode_response(envelope)
    assert excinfo.value.code == FaultCode.INTERNAL


# ----------------------------------------------------------------------
# the multiplexed batch envelope
# ----------------------------------------------------------------------
def test_batch_request_round_trip():
    calls = [
        ("acceptMatch", {"job_id": 1, "vm_id": "vm0@n"}),
        ("beginExecute", {"machine": "n", "job_id": 1, "vm_id": "vm0@n"}),
        ("heartbeat", {"machine": "n", "vms": [], "events": []}),
    ]
    envelope = encode_batch_request(calls)
    is_batch, decoded = decode_envelope(envelope)
    assert is_batch
    assert decoded == calls


def test_single_envelope_is_not_a_batch():
    envelope = encode_request("heartbeat", {"machine": "n"})
    is_batch, calls = decode_envelope(envelope)
    assert not is_batch
    assert calls == [("heartbeat", {"machine": "n"})]


def test_decode_request_refuses_batch_envelopes():
    envelope = encode_batch_request([("a", None), ("b", None)])
    with pytest.raises(MalformedFault):
        decode_request(envelope)


def test_empty_batch_is_malformed():
    with pytest.raises(MalformedFault):
        decode_envelope(encode_batch_request([]))


def test_batch_response_round_trips_results_and_faults():
    items = [
        ("acceptMatch", {"status": "OK", "job_id": 1, "vm_id": "v"}, None),
        ("acceptMatch", None,
         ConflictFault("no match for job 2", subcode="not-found",
                       operation="acceptMatch")),
        ("queueSummary", {"idle": 3}, None),
    ]
    decoded = decode_batch_response(encode_batch_response(items))
    assert decoded[0] == {"status": "OK", "job_id": 1, "vm_id": "v"}
    assert isinstance(decoded[1], ConflictFault)
    assert decoded[1].subcode == "not-found"
    assert decoded[1].operation == "acceptMatch"
    assert "job 2" in decoded[1].detail
    assert decoded[2] == {"idle": 3}


def test_batch_response_raises_envelope_level_faults():
    envelope = encode_response("", None,
                               fault=MalformedFault("bad envelope"))
    with pytest.raises(MalformedFault):
        decode_batch_response(envelope)


operation_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=12,
)


@given(st.lists(st.tuples(operation_names, json_like), min_size=1,
                max_size=5))
@settings(max_examples=100)
def test_batch_codec_round_trips_arbitrary_payloads(calls):
    """Property: the batch envelope is the identity on (op, payload)
    sequences — the satellite round-trip guarantee, batch included."""
    is_batch, decoded = decode_envelope(encode_batch_request(calls))
    assert is_batch
    assert decoded == calls


@given(st.lists(json_like, min_size=1, max_size=4))
@settings(max_examples=100)
def test_batch_response_codec_round_trips(payloads):
    items = [(f"op{index}", payload, None)
             for index, payload in enumerate(payloads)]
    decoded = decode_batch_response(encode_batch_response(items))
    assert decoded == payloads


# ----------------------------------------------------------------------
# decoder totality: damaged envelopes decode or raise a typed fault
# ----------------------------------------------------------------------
def _fault_items(calls):
    return [
        (operation, payload,
         ConflictFault("no <such> job", operation=operation)
         if index % 2 else None)
        for index, (operation, payload) in enumerate(calls)
    ]


#: (encoder over a list of (operation, payload) calls, its decoder).
CODEC_PAIRS = [
    (lambda calls: encode_request(*calls[0]), decode_envelope),
    (lambda calls: encode_response(*calls[0]), decode_response),
    (lambda calls: encode_response(calls[0][0], None,
                                   fault=ValidationFault("bad & wrong")),
     decode_response),
    (encode_batch_request, decode_envelope),
    (lambda calls: encode_batch_response(_fault_items(calls)),
     decode_batch_response),
]


@given(
    st.sampled_from(CODEC_PAIRS),
    st.lists(st.tuples(operation_names, json_like), min_size=1, max_size=3),
    st.data(),
)
@settings(deadline=None)
def test_damaged_envelopes_decode_or_raise_typed_faults(pair, calls, data):
    """Property: every proper prefix and every single-character
    substitution of a valid envelope of any family either decodes or
    raises a ServiceFault -- never ValueError, IndexError, KeyError,
    RecursionError or anything else the CAS does not catch."""
    encode, decode = pair
    envelope = encode(calls)
    cut = data.draw(st.integers(0, len(envelope) - 1), label="cut")
    replacement = data.draw(
        st.sampled_from('<>/="& \'x0-\n\u00e9'), label="replacement")
    for damaged in (
        envelope[:cut],
        envelope[:cut] + replacement + envelope[cut + 1:],
    ):
        note(damaged)
        try:
            decode(damaged)
        except ServiceFault:
            pass


# ----------------------------------------------------------------------
# the reference codec's reader by hand: what it makes of each odd text
# ----------------------------------------------------------------------
def _read_outcome(envelope):
    """The tree the reference's ``_read`` returns, or the fault it raises."""
    try:
        return reference._read(envelope)
    except MalformedFault as fault:
        return fault.subcode, fault.detail


def _at(offset):
    return "bad-envelope", f"envelope malformed at offset {offset}"


_INCOMPLETE = ("bad-envelope", "envelope is not one complete element")
_TOO_DEEP = ("too-deep", f"elements nest deeper than {MAX_DEPTH}")
_DEEP = 1200


def _a_nest(depth):
    """The tree of ``depth`` nested empty ``<a>`` elements."""
    node = ("a", {}, [], "")
    for _ in range(depth - 1):
        node = ("a", {}, [node], "")
    return node


#: Odd texts, each with the tree the reference's ``_read`` makes of it or
#: the fault it raises (subcode, detail): the token loop's answers, pinned.
HAND_ENVELOPES = {
    "gt-in-attribute": ('<a b="x>y">t</a>', ("a", {"b": "x>y"}, [], "t")),
    "gt-in-attribute-then-text-gt": (
        '<a b="x>y" c=">">t>u</a>', ("a", {"b": "x>y", "c": ">"}, [], "t>u")),
    "gt-in-text": ("<a>x>y</a>", ("a", {}, [], "x>y")),
    "gt-after-close": ("<a><b/>></a>", _at(8)),
    "space-before-gt": ('<a b="c" >t</a >', ("a", {"b": "c"}, [], "t")),
    "space-before-empty": ('<a b="c" /><a\n/>', _INCOMPLETE),
    "newline-between-attributes": (
        '<a b="c"\n\td="e"/>', ("a", {"b": "c", "d": "e"}, [], "")),
    "entity-attributes": (
        '<a b="&quot;q&quot;" c="&amp;lt;" d="&gt;&amp;"/>',
        ("a", {"b": '"q"', "c": "&lt;", "d": ">&"}, [], "")),
    "entity-text": ("<a>&amp;lt; &lt;b&gt; &quot;</a>",
                    ("a", {}, [], "&lt; <b> &quot;")),
    "duplicate-attribute": ('<a b="1" b="2"/>', _at(0)),
    "duplicate-attribute-open": ('<a b="1" b="2">t</a>', _at(0)),
    "valueless-attribute": ("<a b/>", _at(0)),
    "unquoted-attribute": ("<a b=c/>", _at(0)),
    "close-with-attributes": ('<a></a b="c">', _at(3)),
    "close-and-empty": ("<a></a/>", _at(3)),
    "close-with-space": ("<a></ a>", _at(3)),
    "close-without-open": ("</a>", _at(0)),
    "close-of-another": ("<a><b></a></b>", _at(6)),
    "text-before-root": ("x<a/>", _at(1)),
    "text-after-root": ("<a/>x", _INCOMPLETE),
    "space-after-root": ("<a/> ", _INCOMPLETE),
    "text-before-child": ("<a>x<b/></a>", _at(4)),
    "text-after-child": ("<a><b/>x</a>", _at(8)),
    "text-between-children": ("<a><b/>x<c/></a>", _at(8)),
    "two-roots": ("<a/><b/>", _INCOMPLETE),
    "unclosed-root": ("<a><b/>", _INCOMPLETE),
    "empty": ("", _INCOMPLETE),
    "no-tag-at-all": ("plain text & more", _INCOMPLETE),
    "lone-lt": ("<a><</a>", _at(3)),
    "lt-then-space": ("<a>< b></a>", _at(3)),
    "tag-cut-short": ("<a></a", _at(3)),
    "tag-cut-short-after-its-twin": ("<a><a></a></a", _at(10)),
    "open-cut-short": ('<a b="c"', _at(0)),
    "open-cut-short-after-its-twin": ('<a b="c"><a b="c"', _at(9)),
    "quote-in-name": ('<a"b/>', _at(0)),
    # Depth is judged before a tag's own attributes, after stray text.
    # (The one pass compiles a run of tags before it reads any of them,
    # so it names the repeated attribute: bad-envelope.)
    "deep": ("<a>" * _DEEP + "</a>" * _DEEP, _TOO_DEEP),
    "deep-empty-element": ("<a>" * MAX_DEPTH + "<b/>", _TOO_DEEP),
    "deep-duplicate-attribute": (
        "<a>" * MAX_DEPTH + '<b c="1" c="2">', _TOO_DEEP),
    "deep-text-first": ("<a>" * MAX_DEPTH + "x<b>", _at(3 * MAX_DEPTH + 1)),
    "deepest-allowed": ("<a>" * MAX_DEPTH + "</a>" * MAX_DEPTH,
                        _a_nest(MAX_DEPTH)),
}


@pytest.mark.parametrize("name", sorted(HAND_ENVELOPES))
def test_every_hand_envelope_reads_as_pinned(name):
    text, expected = HAND_ENVELOPES[name]
    assert _read_outcome(text) == expected


def test_decodes_of_one_envelope_share_no_payload_object():
    """A second decode of the same text is equal to the first and shares
    no payload object with it, although both are read by the same
    memoised runs."""
    keys = [f"key{index}" for index in range(300)]
    payload = {key: {"n": index, "tags": [key]}
               for index, key in enumerate(keys)}
    envelope = encode_request("op", payload)
    first = decode_request(envelope)
    second = decode_request(envelope)
    assert first == second == ("op", payload)
    first[1]["key0"]["tags"].append("mine")
    first[1]["extra"] = 1
    assert second == ("op", payload)
    assert decode_request(envelope) == ("op", payload)


def test_a_hundred_op_batch_is_read_once(monkeypatch):
    """Each decoder makes exactly one pass over an envelope, however many
    operations it carries: a slice-and-reparse decoder cannot come back
    unnoticed."""
    passes = []
    scan = soap._scan

    def counting_scan(envelope):
        passes.append(len(envelope))
        return scan(envelope)

    monkeypatch.setattr(soap, "_scan", counting_scan)
    calls = [("acceptMatch", {"job_id": index, "vm_id": f"vm{index}@n"})
             for index in range(100)]
    request = encode_batch_request(calls)
    response = encode_batch_response(_fault_items(calls))
    assert decode_envelope(request) == (True, calls)
    assert len(decode_batch_response(response)) == 100
    assert passes == [len(request), len(response)]


# ----------------------------------------------------------------------
# encoder identity: the loop-inlined encoder against the recursive one
# ----------------------------------------------------------------------
def _reference_append_value(parts, value, tag, depth):
    """The encoder ``soap._append_value`` replaced: one recursive call
    per value, scalars included.  Kept here, and only here, as the
    oracle for the bytes every payload is written as."""
    if depth + 4 > MAX_DEPTH:
        raise MalformedFault(f"elements nest deeper than {MAX_DEPTH}",
                             subcode="too-deep")
    exact = type(value)
    kind = exact if exact in soap._WIRE_TYPES else soap._wire_type(value)
    if kind is str:
        if exact is not str or "&" in value or "<" in value or ">" in value:
            value = soap.escape(value)
        parts.append(f'<{tag} type="string">{value}</{tag}>')
    elif kind is int:
        parts.append(f'<{tag} type="int">{value}</{tag}>')
    elif kind is dict:
        parts.append(f'<{tag} type="struct">')
        for key, item in value.items():
            parts.append(soap._ENTRY_OPENINGS.get(key)
                         or soap._entry_opening(key))
            _reference_append_value(parts, item, "value", depth + 2)
            parts.append("</entry>")
        parts.append(f"</{tag}>")
    elif kind is list:
        parts.append(f'<{tag} type="array">')
        for item in value:
            _reference_append_value(parts, item, "item", depth + 1)
        parts.append(f"</{tag}>")
    elif value is None:
        parts.append(f'<{tag} xsi:nil="true"/>')
    elif kind is bool:
        parts.append(
            f'<{tag} type="boolean">{"true" if value else "false"}</{tag}>')
    else:
        parts.append(f'<{tag} type="double">{value!r}</{tag}>')


class _Text(str):
    """A str subclass that formats as something else: only the
    subclass path, which writes ``escape(value)``, writes its text."""

    def __format__(self, spec):
        return "<formatted>"

    __str__ = __repr__ = lambda self: "<formatted>"


class _Colour(str, enum.Enum):
    RED = "r<e>d & co"
    PLAIN = "plain"


class _Level(enum.IntEnum):
    HIGH = 3


class _Real(float):
    pass


#: Scalars of every wire type, exact and subclassed, and values the
#: encoder must refuse (no wire type; a key that is not a string).
_odd_scalars = st.one_of(
    st.sampled_from([True, False, _Colour.RED, _Colour.PLAIN, _Level.HIGH,
                     _Real(2.5), b"bytes", (1, 2), {1: "x"}, {"k": object()},
                     float("nan"), float("-inf")]),
    st.text(max_size=6).map(_Text),
)

_encodable = st.recursive(
    st.one_of(json_like, _odd_scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def _near_the_depth_bound(draw):
    """A scalar (or an empty container) nested in lists and structs, with
    siblings on the way, so that it sits just above or below the bound:
    an array adds one level, a struct two (``<entry>`` and ``<value>``)."""
    value = draw(st.one_of(json_like.filter(
        lambda leaf: not isinstance(leaf, (list, dict)) or not leaf),
        _odd_scalars))
    # The payload element is level 1 and four levels wrap it.
    level, target = 1, draw(st.integers(MAX_DEPTH - 12, MAX_DEPTH - 2))
    while level < target:
        sibling = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3)))
        if draw(st.booleans()):
            value = [value, sibling] if draw(st.booleans()) else [value]
            level += 1
        else:
            value = {"k": value, "s": sibling}
            level += 2
    return value


#: Every envelope family, each over a list of (operation, payload) calls.
ENCODERS = {
    "request": lambda calls: encode_request(*calls[0]),
    "batch-request": encode_batch_request,
    "response": lambda calls: encode_response(*calls[0]),
    "batch-response": lambda calls: encode_batch_response(
        _fault_items(calls)),
}


def _encoded(encode, calls, append):
    """The envelope ``encode`` writes with ``append`` as the value
    encoder, or the fault it raises."""
    real = soap._append_value
    soap._append_value = append
    try:
        return encode(calls)
    except MalformedFault as fault:
        return fault.code, fault.subcode, fault.detail
    finally:
        soap._append_value = real


def _assert_encodes_like_the_reference(family, calls):
    encode = ENCODERS[family]
    expected = _encoded(encode, calls, _reference_append_value)
    assert _encoded(encode, calls, soap._append_value) == expected


@given(
    st.sampled_from(sorted(ENCODERS)),
    st.lists(st.tuples(operation_names,
                       st.one_of(_encodable, _near_the_depth_bound())),
             min_size=1, max_size=3),
)
@settings(deadline=None)
def test_encoders_equal_the_reference_encoder(family, calls):
    """Property: every envelope family writes the reference's bytes, or
    raises the reference's fault, over JSON-like payloads, subclass
    instances, unencodable values and depths around the bound."""
    note(repr(calls))
    _assert_encodes_like_the_reference(family, calls)


@pytest.mark.parametrize("leaf", [1, "s&<>", None, 2.5, True, _Colour.RED,
                                  (1,), [], {}])
def test_encoders_equal_the_reference_at_the_depth_bound(leaf):
    """Each scalar, subclass and container as the deepest value of a
    list nest and of a struct nest, on both sides of the bound, in
    every envelope family."""
    nests = [(lambda value: [value], range(MAX_DEPTH - 8, MAX_DEPTH - 1)),
             (lambda value: {"k": value},
              range(MAX_DEPTH // 2 - 4, MAX_DEPTH // 2 + 1))]
    for wrap, depths in nests:
        for depth in depths:
            value = leaf
            for _ in range(depth):
                value = wrap(value)
            for family in ENCODERS:
                _assert_encodes_like_the_reference(family, [("op", value)])


# ----------------------------------------------------------------------
# the one pass against the reference codec
# ----------------------------------------------------------------------
DECODERS = ("decode_envelope", "decode_request", "decode_response",
            "decode_batch_response")


def _fault_outcome(fault):
    return (type(fault).__name__, fault.code, fault.subcode, fault.detail,
            fault.operation)


def _decoded(module, decode, envelope):
    """What ``module``'s decoder ``decode`` makes of ``envelope``: the
    payload as its repr (per-op faults as tuples), or the fault raised."""
    try:
        result = getattr(module, decode)(envelope)
    except ServiceFault as fault:
        return ("raised",) + _fault_outcome(fault)
    if decode == "decode_batch_response":
        result = [_fault_outcome(item) if isinstance(item, ServiceFault)
                  else item for item in result]
    return repr(result)  # repr: 1, 1.0 and True differ; nan equals nan


def _narrowed(envelope):
    """Whether ``envelope`` uses a spelling the reference reads and no
    encoder writes, which the one pass refuses: a raw ``>`` inside an
    attribute value, an ``<entry>`` not written ``<entry key="…"``,
    ``entry key="`` inside another attribute's value, or a value element
    outside an ``<op>`` / ``<opResponse>`` payload."""
    names = []  # the open elements, outermost first
    for token in reference._TOKEN_RE.finditer(envelope):
        closing, tag, attr_text, empty, _ = token.groups()
        if tag is None:
            continue
        if closing:
            if names:
                names.pop()
            continue
        keyed = tag == "entry" and attr_text.startswith(' key="')
        values = [raw for _, raw in soap._ATTR_RE.findall(attr_text)]
        if ">" in attr_text or (tag == "entry" and not keyed) or any(
                raw.endswith("entry key=") for raw in values[keyed:]):
            return True
        if tag in ("payload", "value", "item", "entry") \
                and "payload" not in names and not (
                    tag == "payload" and names
                    and names[-1] in ("op", "opResponse")):
            return True
        if not empty:
            names.append(tag)
    return False


def _decodes_a_fault(envelope):
    """Whether the reference's response decoders raise a fault decoded
    from the envelope's ``<soap:Fault>``, not a refusal of the text."""
    try:
        body = reference._body(envelope)
        if body[0] != "soap:Fault":
            return False
        reference._decode_fault(body)
    except MalformedFault:
        return False
    return True


def _assert_decodes_like_the_reference(envelope):
    """Every public decoder reads ``envelope`` as the reference codec
    does, with the run memos cold and then warm.

    Where the reference decodes a payload, or a fault the envelope
    carries, the one pass returns or raises the same; on a narrowed
    spelling it raises MALFORMED; where the reference refuses the text,
    it refuses it too, with the same fault type and code, and with the
    same subcode unless it met a value fault (``bad-element``) before
    the structural one the reference found by reading the whole tree, or
    a tag that does not parse (``bad-envelope``) in a run of tags that
    opens past the depth bound before it: a run is compiled before any of
    its tags is read, the reference reads tag by tag."""
    narrowed = _narrowed(envelope)
    carried = _decodes_a_fault(envelope)
    for decode in DECODERS:
        expected = _decoded(reference, decode, envelope)
        soap._RUNS.clear()
        soap._COMPILED.clear()
        for memos in ("cold", "warm"):
            got = _decoded(soap, decode, envelope)
            if narrowed:
                assert got[:3] == ("raised", "MalformedFault",
                                   FaultCode.MALFORMED), (decode, memos)
            elif isinstance(expected, str) or (
                    carried and decode in DECODERS[2:]):
                assert got == expected, (decode, memos)
            else:
                assert got[:3] == expected[:3], (decode, memos)
                assert got[3] in (expected[3], "bad-element") or (
                    got[3], expected[3]) == ("bad-envelope", "too-deep"), (
                    decode, memos)
        assert len(soap._RUNS) <= soap._RUNS_BOUND
        assert len(soap._COMPILED) <= soap._RUNS_BOUND


#: The decoder that reads each envelope family.
READERS = {"request": "decode_request", "batch-request": "decode_envelope",
           "response": "decode_response",
           "batch-response": "decode_batch_response"}


def _assert_reads_what_an_encoder_wrote(envelope, family):
    """``envelope`` is canonical, every decoder reads it as the reference
    does, and the one pass decodes it for its family's decoder."""
    assert not _narrowed(envelope)
    _assert_decodes_like_the_reference(envelope)
    assert isinstance(_decoded(soap, READERS[family], envelope), str)


@given(
    st.sampled_from(CODEC_PAIRS),
    st.lists(st.tuples(operation_names, json_like), min_size=1, max_size=3),
    st.data(),
)
@settings(deadline=None)
def test_one_pass_equals_the_reference_codec(pair, calls, data):
    """Property: over every family of encoded envelope, intact, cut short
    and with one character replaced, each public decoder returns the
    payload the reference codec returns, raises the fault the envelope
    carries with its code, subcode, detail and operation, and refuses
    what the reference refuses with the same fault type and code."""
    envelope = pair[0](calls)
    note(envelope)
    assert not _narrowed(envelope)
    _assert_decodes_like_the_reference(envelope)
    cut = data.draw(st.integers(0, len(envelope) - 1), label="cut")
    replacement = data.draw(
        st.sampled_from('<>/="& \'x0-\né'), label="replacement")
    for text in (
        envelope[:cut],
        envelope[:cut] + replacement + envelope[cut + 1:],
    ):
        note(text)
        _assert_decodes_like_the_reference(text)


@given(
    st.sampled_from(sorted(ENCODERS)),
    st.lists(st.tuples(operation_names,
                       st.one_of(_encodable, _near_the_depth_bound())),
             min_size=1, max_size=3),
)
@settings(deadline=None)
def test_encoder_output_decodes_like_the_reference(family, calls):
    """Property: whatever any encoder writes -- subclass instances and
    depths up to the bound included -- is canonical, and the one pass
    decodes it as the reference codec does."""
    try:
        envelope = ENCODERS[family](calls)
    except MalformedFault:
        return
    note(envelope)
    _assert_reads_what_an_encoder_wrote(envelope, family)


#: Payloads at the edges of what the one pass must read.
EDGE_PAYLOADS = {
    "key-characters": {'&': 1, '"': 2, '>': 3, '<': 4, 'a&quot;b': 5,
                       ' key="x': 6, "entry key=\"": 7, "": 8,
                       "entry key=": 9, "x entry key=": 10},
    "empty-strings": {"s": "", "t": ["", ""], "": ""},
    "empty-containers": {"d": {}, "l": [], "n": [[], {}], "e": {"": {}}},
    "text-characters": ["a>b", "<tag>", "&amp;", "x > y < z & w", '"q"'],
    "nil-everywhere": {"a": None, "b": [None, {"c": None}], "d": [None]},
    "scalars-of-every-type": {"i": -7, "f": 2.5, "t": True, "f2": False,
                              "e": 1e-300, "s": "v"},
    "deepest-list": _nested_list(MAX_DEPTH - 4),
    "deepest-struct": {"k": _nested_list(MAX_DEPTH - 6)},
    "distinct-keys": {f"key{index}": index for index in range(3000)},
}


@pytest.mark.parametrize("name", sorted(EDGE_PAYLOADS))
def test_edge_payloads_decode_like_the_reference(name):
    payload = EDGE_PAYLOADS[name]
    for family, encode in ENCODERS.items():
        _assert_reads_what_an_encoder_wrote(encode([("op", payload)]),
                                            family)
    if name.startswith("deepest"):  # one level more does not encode
        with pytest.raises(MalformedFault):
            encode_request("op", [payload])


def test_more_distinct_runs_than_the_memo_holds():
    """A batch whose operation names make more distinct runs than
    ``_RUNS_BOUND`` empties the memo on the way and reads as the
    reference reads it."""
    calls = [(f"op{index}", {"n": index, "s": [str(index)]})
             for index in range(soap._RUNS_BOUND + 40)]
    for family in ("batch-request", "batch-response"):
        _assert_reads_what_an_encoder_wrote(ENCODERS[family](calls), family)
        assert len(soap._RUNS) < soap._RUNS_BOUND  # it was emptied


@pytest.mark.parametrize("name", sorted(HAND_ENVELOPES))
def test_hand_envelopes_decode_like_the_reference(name):
    text = HAND_ENVELOPES[name][0]
    _assert_decodes_like_the_reference(text)
    _assert_decodes_like_the_reference(_op_envelope(text))
    _assert_decodes_like_the_reference(
        _op_envelope(f'<payload type="struct"><entry key="k">{text}'
                     f'</entry></payload>'))


def test_an_empty_element_reads_as_opened_and_closed():
    """``<faultsub/>`` in a fault is read as ``<faultsub></faultsub>``."""
    envelope = (f"{_HEAD}<soap:Fault><faultcode>CONFLICT</faultcode>"
                f"<faultsub/><faultstring>gone</faultstring></soap:Fault>"
                f"{_TAIL}")
    with pytest.raises(ConflictFault, match="gone"):
        decode_response(envelope)
    _assert_decodes_like_the_reference(envelope)


# ----------------------------------------------------------------------
# the one pass's refusals, pinned
# ----------------------------------------------------------------------
_ENVELOPE, _ELEMENT = "bad-envelope", "bad-element"


def _outcome(module, decode, envelope, pick=None):
    """What ``module``'s decoder makes of ``envelope``: the repr of the
    payload (``pick`` of the result), or the subcode it refuses with."""
    try:
        result = getattr(module, decode)(envelope)
    except MalformedFault as fault:
        return fault.subcode
    return repr(pick(result) if pick else result)


def _carried(payload):
    """(decoder, envelope, pick) for each public decoder, with the
    ``payload`` element where that decoder reads one: ``pick`` finds its
    value in the decoder's result."""
    request, response = _op_envelope(payload), (
        f'{_HEAD}<opResponse name="x">{payload}</opResponse>{_TAIL}')
    return [
        ("decode_envelope", request, lambda result: result[1][0][1]),
        ("decode_request", request, lambda result: result[1]),
        ("decode_response", response, None),
        ("decode_envelope", f'{_HEAD}<batch n="2"><op name="x">{payload}'
                            f'</op><op name="y"></op></batch>{_TAIL}',
         lambda result: result[1][0][1]),
        ("decode_batch_response",
         f'{_HEAD}<batchResponse n="2"><opResponse name="x">{payload}'
         f'</opResponse><opResponse name="y"></opResponse></batchResponse>'
         f'{_TAIL}', lambda result: result[0]),
    ]


#: Payloads no encoder writes, each against one check of the one pass,
#: with what every public decoder makes of it: the payload's repr, or
#: the subcode of its refusal.
ODD_PAYLOADS = {
    "leaf-closed-as-item": ('<payload type="int">1</item>', _ENVELOPE),
    "item-closed-as-payload": (
        '<payload type="array"><item type="int">1</payload></item>',
        _ENVELOPE),
    "field-closed-as-item": (
        '<payload type="struct"><entry key="k"><value type="int">1</item>'
        '</entry></payload>', _ENVELOPE),
    "struct-with-text": ('<payload type="struct">x</payload>', _ELEMENT),
    "array-with-text": ('<payload type="array">x</payload>', _ELEMENT),
    "field-struct-with-text": (
        '<payload type="struct"><entry key="k"><value type="struct">x'
        '</value></entry></payload>', _ELEMENT),
    "item-array-with-text": (
        '<payload type="array"><item type="array">x</item></payload>',
        _ELEMENT),
    "entry-without-value": (
        '<payload type="struct"><entry key="k"></entry></payload>',
        _ELEMENT),
    "two-values": (
        '<payload type="struct"><entry key="k"><value type="int">1</value>'
        '<value type="int">2</value></entry></payload>', _ELEMENT),
    "value-then-text": (
        '<payload type="struct"><entry key="k"><value type="int">1</value>'
        'x</entry></payload>', _ENVELOPE),
    "nil-with-text": ('<payload xsi:nil="true">x</payload>', _ELEMENT),
    "nil-opened-and-closed": ('<payload xsi:nil="true"></payload>', "None"),
    "nil-field-with-text": (
        '<payload type="struct"><entry key="k"><value xsi:nil="true">x'
        '</value></entry></payload>', _ELEMENT),
    "empty-int": ('<payload type="int"/>', _ELEMENT),
    "empty-string": ('<payload type="string"/>', "''"),
    "empty-struct": ('<payload type="struct"/>', "{}"),
    "empty-array-item": (
        '<payload type="array"><item type="array"/></payload>', "[[]]"),
    "empty-int-field": (
        '<payload type="struct"><entry key="k"><value type="int"/></entry>'
        '</payload>', _ELEMENT),
    "empty-struct-field": (
        '<payload type="struct"><entry key="k"><value type="struct"/>'
        '</entry></payload>', "{'k': {}}"),
    "unknown-type": ('<payload type="date">1</payload>', _ELEMENT),
    "unknown-field-type": (
        '<payload type="struct"><entry key="k"><value type="date">1'
        '</value></entry></payload>', _ELEMENT),
    "entry-extra-attribute": (
        '<payload type="struct"><entry key="k" x="y"><value type="int">1'
        '</value></entry></payload>', "{'k': 1}"),
    "entry-empty": (
        '<payload type="struct"><entry key="k"/></payload>', _ELEMENT),
    "entry-empty-then-value": (
        '<payload type="struct"><entry key="k"/><value type="int">1</value>'
        '</entry></payload>', _ELEMENT),
    "duplicate-nil-key": (
        '<payload type="struct"><entry key="k"><value xsi:nil="true"/>'
        '</entry><entry key="k"><value xsi:nil="true"/></entry></payload>',
        _ELEMENT),
    "duplicate-container-key": (
        '<payload type="struct"><entry key="k"><value type="array"></value>'
        '</entry><entry key="k"><value type="int">1</value></entry>'
        '</payload>', _ELEMENT),
    "duplicate-key-after-container": (
        '<payload type="struct"><entry key="k"><value type="int">1</value>'
        '</entry><entry key="k"><value type="array"></value></entry>'
        '</payload>', _ELEMENT),
    "item-in-struct": (
        '<payload type="struct"><item type="int">1</item></payload>',
        _ELEMENT),
    "value-in-array": (
        '<payload type="array"><value type="int">1</value></payload>',
        _ELEMENT),
    "element-for-payload": ("<b/>", _ELEMENT),
    "element-in-leaf": ('<payload type="int"><b/></payload>', _ELEMENT),
    "element-in-struct": ('<payload type="struct"><b/></payload>', _ELEMENT),
    "int-with-spaces": ('<payload type="int"> 7 </payload>', "7"),
    "boolean-field-maybe": (
        '<payload type="struct"><entry key="k"><value type="boolean">maybe'
        '</value></entry></payload>', _ELEMENT),
    "double-item-zz": (
        '<payload type="array"><item type="int">1</item>'
        '<item type="double">zz</item></payload>', _ELEMENT),
    "entity-key": (
        '<payload type="struct"><entry key="a&amp;b&quot;"><value '
        'type="string">&lt;x&gt;</value></entry></payload>',
        repr({'a&b"': "<x>"})),
    "key-with-lt": (
        '<payload type="struct"><entry key="a<b"><value type="int">1'
        '</value></entry></payload>', _ENVELOPE),
    "cast-fails-before-a-mismatched-close": (
        '<payload type="struct"><entry key="k"><value type="int">x</value>'
        '</entry></item>', _ELEMENT),
}

#: The rows whose envelope holds a value fault before a structural one:
#: the one pass names the value fault it meets first, the reference the
#: structural fault it finds on reading the whole tree (its subcode here).
VALUE_FAULT_FIRST = {
    "entry-empty-then-value": _ENVELOPE,  # then a stray </entry>
    "cast-fails-before-a-mismatched-close": _ENVELOPE,  # then </item>
}


@pytest.mark.parametrize("name", sorted(ODD_PAYLOADS))
def test_odd_payloads_decode_as_pinned(name):
    payload, expected = ODD_PAYLOADS[name]
    for decode, envelope, pick in _carried(payload):
        assert _outcome(soap, decode, envelope, pick) == expected
        assert _outcome(reference, decode, envelope, pick) \
            == VALUE_FAULT_FIRST.get(name, expected)
        _assert_decodes_like_the_reference(envelope)


#: Envelopes whose shape, not payload, is odd: every public decoder
#: refuses each of them, as the reference does, with ``bad-envelope``.
ODD_ENVELOPES = {
    "payload-in-body": f'{_HEAD}<payload type="int">1</payload>{_TAIL}',
    "op-outside-body":
        '<soap:Envelope><op name="x"><payload type="int">1</payload></op>'
        '</soap:Envelope>',
    "unclosed-element-after-root": encode_request("x", 1) + "<x>",
    "root-after-root": encode_request("x", 1) + "<x/>",
    "op-with-text-after-payload":
        _op_envelope('<payload type="int">1</payload>x'),
    "value-closed-as-item-outside-payload":
        f'{_HEAD}<soap:Fault><value>1</item><faultstring>x</faultstring>'
        f'</soap:Fault>{_TAIL}',
    "payload-closed-as-op": _op_envelope('<payload type="int">1</op>'),
    "text-before-envelope": "x" + encode_request("x", 1),
}


@pytest.mark.parametrize("name", sorted(ODD_ENVELOPES))
def test_odd_envelopes_are_refused_as_pinned(name):
    envelope = ODD_ENVELOPES[name]
    for module in (soap, reference):
        assert [_outcome(module, decode, envelope) for decode in DECODERS] \
            == [_ENVELOPE] * len(DECODERS)
    _assert_decodes_like_the_reference(envelope)


@pytest.mark.parametrize("name", sorted(MALFORMED_ENVELOPES))
def test_malformed_envelopes_decode_like_the_reference(name):
    _assert_decodes_like_the_reference(MALFORMED_ENVELOPES[name][0])


#: Spellings the reference reads and no encoder writes, each with the
#: decoder that reads its family and what the reference's makes of it:
#: the one pass refuses every one as ``bad-envelope``.
NARROWED_SPELLINGS = {
    "gt-in-operation-name": (
        "decode_request",
        f'{_HEAD}<op name="a>b"><payload type="int">1</payload></op>{_TAIL}',
        repr(("a>b", 1))),
    "gt-in-struct-key": (
        "decode_request",
        _op_envelope('<payload type="struct"><entry key="a>b"><value '
                     'type="int">1</value></entry></payload>'),
        repr(("x", {"a>b": 1}))),
    "gt-in-op-fault-name": (
        "decode_batch_response",
        f'{_HEAD}<batchResponse n="1"><opFault name="a>b" code="CONFLICT" '
        f'subcode="y"><faultstring>x</faultstring></opFault></batchResponse>'
        f'{_TAIL}',
        repr([("ConflictFault", FaultCode.CONFLICT, "y", "x", "a>b")])),
    "gt-in-namespace-of-a-fault": (
        "decode_response",
        '<soap:Envelope xmlns:soap="a>b"><soap:Body><soap:Fault>'
        '<faultcode>VALIDATION</faultcode><faultsub>bad-value</faultsub>'
        f'<faultstring>no</faultstring></soap:Fault>{_TAIL}',
        ("raised", "ValidationFault", FaultCode.VALIDATION, "bad-value",
         "no", "")),
    "entry-key-second": (
        "decode_request",
        _op_envelope('<payload type="struct"><entry x="y" key="k"><value '
                     'type="int">1</value></entry></payload>'),
        repr(("x", {"k": 1}))),
    "entry-two-spaces-before-key": (
        "decode_request",
        _op_envelope('<payload type="struct"><entry  key="k"><value '
                     'type="int">1</value></entry></payload>'),
        repr(("x", {"k": 1}))),
    "entry-newline-before-key": (
        "decode_request",
        _op_envelope('<payload type="struct"><entry\nkey="k"><value '
                     'type="int">1</value></entry></payload>'),
        repr(("x", {"k": 1}))),
    "entry-key-in-operation-name": (
        "decode_request",
        f'{_HEAD}<op name="entry key=" x="1"><payload type="int">1'
        f'</payload></op>{_TAIL}',
        repr(("entry key=", 1))),
    "entry-key-closing-an-attribute": (
        "decode_request",
        f'{_HEAD}<op name="x" y="entry key="></op>{_TAIL}',
        repr(("x", None))),
    "payload-in-fault": (
        "decode_response",
        f'{_HEAD}<soap:Fault><payload type="int">1</payload><faultstring>'
        f'x</faultstring></soap:Fault>{_TAIL}',
        ("raised", "InternalFault", FaultCode.INTERNAL, "server-error", "x",
         "")),
    "payload-in-op-fault": (
        "decode_batch_response",
        f'{_HEAD}<batchResponse n="1"><opFault name="x" code="CONFLICT" '
        f'subcode="y"><payload type="int">1</payload><faultstring>x'
        f'</faultstring></opFault></batchResponse>{_TAIL}',
        repr([("ConflictFault", FaultCode.CONFLICT, "y", "x", "x")])),
    "field-in-fault-string": (
        "decode_response",
        f'{_HEAD}<soap:Fault><faultstring><entry key="k"><value type="int">'
        f'1</value></entry></faultstring></soap:Fault>{_TAIL}',
        ("raised", "InternalFault", FaultCode.INTERNAL, "server-error", "",
         "")),
}


@pytest.mark.parametrize("name", sorted(NARROWED_SPELLINGS))
def test_narrowed_spellings_are_refused(name):
    """Each row is read by the reference and refused by the one pass."""
    decode, envelope, expected = NARROWED_SPELLINGS[name]
    assert _narrowed(envelope)
    assert _decoded(reference, decode, envelope) == expected
    assert _outcome(soap, decode, envelope) == _ENVELOPE
    _assert_decodes_like_the_reference(envelope)


#: One element of each shape the one pass fuses, opened at a depth, with
#: the fewest enclosing levels at which it is too deep.
DEEP_SHAPES = {
    "scalar-field": ('<item type="struct"><entry key="a"><value type="int">'
                     '1</value></entry></item>', MAX_DEPTH - 6),
    "nil-field": ('<item type="struct"><entry key="a"><value xsi:nil="true"'
                  '/></entry></item>', MAX_DEPTH - 6),
    "struct-field": ('<item type="struct"><entry key="a"><value '
                     'type="struct"></value></entry></item>', MAX_DEPTH - 6),
    "scalar-item": ('<item type="int">1</item>', MAX_DEPTH - 4),
    "nil-item": ('<item xsi:nil="true"/>', MAX_DEPTH - 4),
    "array-item": ('<item type="array"></item>', MAX_DEPTH - 4),
    "elements": ("<a><b></b></a>", MAX_DEPTH - 1),
}


def _deep_envelope(shape, levels):
    inner = DEEP_SHAPES[shape][0]
    if shape == "elements":
        return "<r>" * levels + inner + "</r>" * levels
    return _op_envelope('<payload type="array">' + '<item type="array">'
                        * levels + inner + "</item>" * levels + "</payload>")


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_the_depth_bound_decides_alike(shape):
    """Each shape at every depth from well inside the bound to past it
    reads as the reference reads it, and every public decoder refuses it
    as too deep from the pinned depth on."""
    for levels in range(MAX_DEPTH - 10, MAX_DEPTH):
        envelope = _deep_envelope(shape, levels)
        _assert_decodes_like_the_reference(envelope)
        too_deep = levels >= DEEP_SHAPES[shape][1]
        assert [_outcome(soap, decode, envelope) == "too-deep"
                for decode in DECODERS] == [too_deep] * len(DECODERS)


def test_a_refusal_locates_the_run_it_stopped_in():
    """The detail of a refusal is the offset of the ``<`` that opens the
    run of tags the one pass stopped in."""
    for envelope, run in [
        (MALFORMED_ENVELOPES["int-text"][0], "</payload></op>"),
        (MALFORMED_ENVELOPES["duplicate-key"][0],
         '</value></entry><entry key="k">'),
        (_op_envelope(ODD_PAYLOADS["value-then-text"][0]), "</value>x"),
    ]:
        with pytest.raises(MalformedFault) as excinfo:
            decode_request(envelope)
        offset = int(excinfo.value.detail.rsplit(" ", 1)[1])
        assert envelope.startswith(run, offset)


# ----------------------------------------------------------------------
# seeded mutants: a refusal given the wrong subcode is caught
# ----------------------------------------------------------------------
def _pinned_rows():
    """(row, decoder, envelope, pick, pinned outcome) for every row of
    the pinned tables; None pins "anything but too-deep"."""
    for name, (envelope, subcode) in MALFORMED_ENVELOPES.items():
        for decode in DECODERS:
            yield f"malformed:{name}", decode, envelope, None, subcode
    for name, (payload, expected) in ODD_PAYLOADS.items():
        for decode, envelope, pick in _carried(payload):
            yield f"odd-payload:{name}", decode, envelope, pick, expected
    for name, envelope in ODD_ENVELOPES.items():
        for decode in DECODERS:
            yield f"odd-envelope:{name}", decode, envelope, None, _ENVELOPE
    for name, (decode, envelope, _) in NARROWED_SPELLINGS.items():
        yield f"narrowed:{name}", decode, envelope, None, _ENVELOPE
    for shape, (_, too_deep_from) in DEEP_SHAPES.items():
        for levels in (too_deep_from - 1, too_deep_from):
            envelope = _deep_envelope(shape, levels)
            for decode in DECODERS:
                yield (f"deep:{shape}", decode, envelope, None,
                       "too-deep" if levels >= too_deep_from else None)


def _mismatched_rows(module):
    """The rows of the pinned tables ``module``'s decoders disagree with."""
    rows = set()
    for row, decode, envelope, pick, expected in _pinned_rows():
        outcome = _outcome(module, decode, envelope, pick)
        if outcome != expected if expected else outcome == "too-deep":
            rows.add(row)
    return sorted(rows)


#: Seeded defects, each one refusal of the one pass given another
#: subcode: (the text in ``web/soap.py``, what the mutant has instead).
SUBCODE_MUTANTS = {
    "depth-as-envelope": ('        return "too-deep"',
                          '        return "bad-envelope"'),
    "failed-cast-as-envelope": (
        '                        value = cast(text)\n'
        '                    except (KeyError, ValueError):\n'
        '                        raise _refused(pieces, index, "bad-element")'
        ' from None',
        '                        value = cast(text)\n'
        '                    except (KeyError, ValueError):\n'
        '                        raise _refused(pieces, index, "bad-envelope")'
        ' from None'),
    "repeated-key-as-envelope": (
        '                    if key in node:\n'
        '                        raise _refused(pieces, index, "bad-element")',
        '                    if key in node:\n'
        '                        raise _refused(pieces, index, '
        '"bad-envelope")'),
    "text-in-a-field-container-as-envelope": (
        'and tag == "value"\n                        and not node else',
        'and tag == "value"\n                        and not node and 0 else'),
    "value-outside-a-payload-as-element": (
        "tag not in _CARRIERS) or name ==", "tag is None) or name =="),
    "field-without-value-as-envelope": (
        '        elif shape.startswith("entry#"):\n'
        '            return "bad-element"',
        '        elif shape.startswith("entry#"):\n'
        '            return "bad-envelope"'),
    "mismatched-close-as-element": (
        "                if mode != _ELEMENT:\n"
        '                    raise _refused(pieces, index, "bad-envelope")',
        "                if mode != _ELEMENT:\n"
        '                    raise _refused(pieces, index, "bad-element")'),
}


def _mutant(old, new):
    """A copy of ``web/soap.py`` with ``old`` replaced by ``new``."""
    source = pathlib.Path(soap.__file__).read_text()
    assert source.count(old) == 1, f"mutation anchor not unique: {old!r}"
    module = types.ModuleType("soap_mutant")
    exec(compile(source.replace(old, new), soap.__file__, "exec"),
         module.__dict__)
    return module


def test_the_one_pass_meets_every_pinned_row():
    assert _mismatched_rows(soap) == []


@pytest.mark.parametrize("name", sorted(SUBCODE_MUTANTS))
def test_a_refusal_given_the_wrong_subcode_is_caught(name):
    assert _mismatched_rows(_mutant(*SUBCODE_MUTANTS[name]))
