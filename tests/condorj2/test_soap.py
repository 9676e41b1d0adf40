"""Unit tests for the SOAP envelope codec."""

import enum

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


#: Envelopes the rescanning decoder accepted (or crashed on untyped);
#: the comment on each row is what it used to produce.
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
    envelope, subcode = MALFORMED_ENVELOPES[name]
    with pytest.raises(MalformedFault) as excinfo:
        decode_envelope(envelope)
    assert excinfo.value.subcode == subcode


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
# the tree reader by hand: what it makes of each odd text
# ----------------------------------------------------------------------
def _outcome(envelope):
    """The tree ``_read`` returns, or the fault it raises."""
    try:
        return soap._read(envelope)
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


#: Odd texts, each with the tree ``_read`` makes of it or the fault it
#: raises (subcode, detail): the token loop's answers, pinned.
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
    assert _outcome(text) == expected


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
    operations it carries, and an encoder's envelope never reaches the
    tree reader: a slice-and-reparse decoder, or a one pass that declines
    what it should read, cannot come back unnoticed."""
    passes = []
    scan = soap._scan

    def counting_scan(envelope):
        passes.append(len(envelope))
        return scan(envelope)

    def no_read(envelope):
        raise AssertionError("an encoder's envelope reached _read")

    monkeypatch.setattr(soap, "_scan", counting_scan)
    monkeypatch.setattr(soap, "_read", no_read)
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
# one-pass equivalence: each decoder against itself down the tree path
# ----------------------------------------------------------------------
DECODERS = (decode_envelope, decode_request, decode_response,
            decode_batch_response)


def _fault_outcome(fault):
    return (type(fault).__name__, fault.code, fault.subcode, fault.detail,
            fault.operation)


def _decoded(decode, envelope):
    """What ``decode`` makes of ``envelope``, as a comparable text: the
    payload (per-op faults as tuples), or the fault it raises."""
    try:
        result = decode(envelope)
    except ServiceFault as fault:
        return repr(("raised",) + _fault_outcome(fault))
    if decode is decode_batch_response:
        result = [_fault_outcome(item) if isinstance(item, ServiceFault)
                  else item for item in result]
    return repr(result)  # repr: 1, 1.0 and True differ; nan equals nan


def _tree_path(decode, envelope):
    """``decode`` with the one pass declining: ``_read`` and the walk."""
    scan = soap._scan
    soap._scan = lambda envelope: None
    try:
        return _decoded(decode, envelope)
    finally:
        soap._scan = scan


def _one_pass_only(decode, envelope):
    """``decode`` with ``_read`` out of reach: the one pass must read it."""
    read = soap._read

    def refuse(envelope):
        raise AssertionError("the one pass declined an encoder's envelope")

    soap._read = refuse
    try:
        return _decoded(decode, envelope)
    finally:
        soap._read = read


def _assert_decodes_like_the_tree_path(envelope, complete=False):
    """Every public decoder reads ``envelope`` as the tree path does,
    with the run memos cold and then warm; when ``complete``, the one
    pass reads it alone."""
    decode_once = _one_pass_only if complete else _decoded
    for decode in DECODERS:
        expected = _tree_path(decode, envelope)
        soap._RUNS.clear()
        soap._COMPILED.clear()
        assert decode_once(decode, envelope) == expected  # runs compiled
        assert decode_once(decode, envelope) == expected  # runs recalled
        assert len(soap._RUNS) <= soap._RUNS_BOUND
        assert len(soap._COMPILED) <= soap._RUNS_BOUND


@given(
    st.sampled_from(CODEC_PAIRS),
    st.lists(st.tuples(operation_names, json_like), min_size=1, max_size=3),
    st.data(),
)
@settings(deadline=None)
def test_one_pass_equals_the_tree_path(pair, calls, data):
    """Property: over every family of encoded envelope, intact, cut short
    and with one character replaced, each public decoder returns the
    payload -- or raises the fault, code, subcode, detail and operation
    -- that it does when ``_read`` and the walk read the envelope; and
    the one pass reads every intact envelope without the tree reader."""
    envelope = pair[0](calls)
    note(envelope)
    _assert_decodes_like_the_tree_path(envelope, complete=True)
    cut = data.draw(st.integers(0, len(envelope) - 1), label="cut")
    replacement = data.draw(
        st.sampled_from('<>/="& \'x0-\né'), label="replacement")
    for text in (
        envelope[:cut],
        envelope[:cut] + replacement + envelope[cut + 1:],
    ):
        note(text)
        _assert_decodes_like_the_tree_path(text)


@given(
    st.sampled_from(sorted(ENCODERS)),
    st.lists(st.tuples(operation_names,
                       st.one_of(_encodable, _near_the_depth_bound())),
             min_size=1, max_size=3),
)
@settings(deadline=None)
def test_encoder_output_never_reaches_the_tree_reader(family, calls):
    """Property: whatever any encoder writes -- subclass instances and
    depths up to the bound included -- the one pass reads by itself, as
    the tree path reads it."""
    try:
        envelope = ENCODERS[family](calls)
    except MalformedFault:
        return
    note(envelope)
    _assert_decodes_like_the_tree_path(envelope, complete=True)


#: Payloads at the edges of what the one pass must read by itself.
EDGE_PAYLOADS = {
    "key-characters": {'&': 1, '"': 2, '>': 3, '<': 4, 'a&quot;b': 5,
                       ' key="x': 6, "entry key=\"": 7, "": 8},
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
def test_edge_payloads_never_reach_the_tree_reader(name):
    payload = EDGE_PAYLOADS[name]
    for encode in ENCODERS.values():
        _assert_decodes_like_the_tree_path(encode([("op", payload)]),
                                           complete=True)
    if name.startswith("deepest"):  # one level more does not encode
        with pytest.raises(MalformedFault):
            encode_request("op", [payload])


def test_more_distinct_runs_than_the_memo_holds():
    """A batch whose operation names make more distinct runs than
    ``_RUNS_BOUND`` empties the memo on the way, is read by the one pass
    alone, and reads as the tree path reads it."""
    calls = [(f"op{index}", {"n": index, "s": [str(index)]})
             for index in range(soap._RUNS_BOUND + 40)]
    for encode in (encode_batch_request,
                   lambda calls: encode_batch_response(_fault_items(calls))):
        envelope = encode(calls)
        _assert_decodes_like_the_tree_path(envelope, complete=True)
        assert len(soap._RUNS) < soap._RUNS_BOUND  # it was emptied


@pytest.mark.parametrize("name", sorted(HAND_ENVELOPES))
def test_hand_envelopes_decode_like_the_tree_path(name):
    text = HAND_ENVELOPES[name][0]
    _assert_decodes_like_the_tree_path(text)
    _assert_decodes_like_the_tree_path(_op_envelope(text))
    _assert_decodes_like_the_tree_path(
        _op_envelope(f'<payload type="struct"><entry key="k">{text}'
                     f'</entry></payload>'))


@pytest.mark.parametrize("name", sorted(MALFORMED_ENVELOPES))
def test_malformed_envelopes_decode_like_the_tree_path(name):
    _assert_decodes_like_the_tree_path(MALFORMED_ENVELOPES[name][0])


#: Payloads no encoder writes, each against one check of the one pass:
#: read inside an <op>, an <opResponse> and a batch's <op>.
ODD_PAYLOADS = {
    "leaf-closed-as-item": '<payload type="int">1</item>',
    "item-closed-as-payload":
        '<payload type="array"><item type="int">1</payload></item>',
    "field-closed-as-item":
        '<payload type="struct"><entry key="k"><value type="int">1</item>'
        '</entry></payload>',
    "struct-with-text": '<payload type="struct">x</payload>',
    "array-with-text": '<payload type="array">x</payload>',
    "field-struct-with-text":
        '<payload type="struct"><entry key="k"><value type="struct">x'
        '</value></entry></payload>',
    "item-array-with-text":
        '<payload type="array"><item type="array">x</item></payload>',
    "entry-without-value":
        '<payload type="struct"><entry key="k"></entry></payload>',
    "two-values":
        '<payload type="struct"><entry key="k"><value type="int">1</value>'
        '<value type="int">2</value></entry></payload>',
    "value-then-text":
        '<payload type="struct"><entry key="k"><value type="int">1</value>'
        'x</entry></payload>',
    "nil-with-text": '<payload xsi:nil="true">x</payload>',
    "nil-opened-and-closed": '<payload xsi:nil="true"></payload>',
    "nil-field-with-text":
        '<payload type="struct"><entry key="k"><value xsi:nil="true">x'
        '</value></entry></payload>',
    "empty-int": '<payload type="int"/>',
    "empty-string": '<payload type="string"/>',
    "empty-struct": '<payload type="struct"/>',
    "empty-array-item": '<payload type="array"><item type="array"/></payload>',
    "empty-int-field":
        '<payload type="struct"><entry key="k"><value type="int"/></entry>'
        '</payload>',
    "empty-struct-field":
        '<payload type="struct"><entry key="k"><value type="struct"/>'
        '</entry></payload>',
    "unknown-type": '<payload type="date">1</payload>',
    "unknown-field-type":
        '<payload type="struct"><entry key="k"><value type="date">1'
        '</value></entry></payload>',
    "entry-extra-attribute":
        '<payload type="struct"><entry key="k" x="y"><value type="int">1'
        '</value></entry></payload>',
    "entry-key-second":
        '<payload type="struct"><entry x="y" key="k"><value type="int">1'
        '</value></entry></payload>',
    "entry-empty":
        '<payload type="struct"><entry key="k"/></payload>',
    "entry-empty-then-value":
        '<payload type="struct"><entry key="k"/><value type="int">1</value>'
        '</entry></payload>',
    "duplicate-nil-key":
        '<payload type="struct"><entry key="k"><value xsi:nil="true"/>'
        '</entry><entry key="k"><value xsi:nil="true"/></entry></payload>',
    "duplicate-container-key":
        '<payload type="struct"><entry key="k"><value type="array"></value>'
        '</entry><entry key="k"><value type="int">1</value></entry>'
        '</payload>',
    "duplicate-key-after-container":
        '<payload type="struct"><entry key="k"><value type="int">1</value>'
        '</entry><entry key="k"><value type="array"></value></entry>'
        '</payload>',
    "item-in-struct": '<payload type="struct"><item type="int">1</item>'
                      '</payload>',
    "value-in-array": '<payload type="array"><value type="int">1</value>'
                      '</payload>',
    "element-in-leaf": '<payload type="int"><b/></payload>',
    "element-in-struct": '<payload type="struct"><b/></payload>',
    "int-with-spaces": '<payload type="int"> 7 </payload>',
    "boolean-field-maybe":
        '<payload type="struct"><entry key="k"><value type="boolean">maybe'
        '</value></entry></payload>',
    "double-item-zz": '<payload type="array"><item type="int">1</item>'
                      '<item type="double">zz</item></payload>',
    "entity-key": '<payload type="struct"><entry key="a&amp;b&quot;"><value '
                  'type="string">&lt;x&gt;</value></entry></payload>',
    "key-with-lt": '<payload type="struct"><entry key="a<b"><value '
                   'type="int">1</value></entry></payload>',
}

#: Envelopes whose shape, not payload, is odd.
ODD_ENVELOPES = {
    "payload-in-fault":
        f'{_HEAD}<soap:Fault><payload type="int">1</payload><faultstring>'
        f'x</faultstring></soap:Fault>{_TAIL}',
    "payload-in-op-fault":
        f'{_HEAD}<batchResponse n="1"><opFault name="x" code="CONFLICT" '
        f'subcode="y"><payload type="int">1</payload><faultstring>x'
        f'</faultstring></opFault></batchResponse>{_TAIL}',
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
    "op-name-with-entry-key":
        f'{_HEAD}<op name="entry key=" x="1"><payload type="int">1'
        f'</payload></op>{_TAIL}',
}


@pytest.mark.parametrize("name", sorted(ODD_PAYLOADS))
def test_odd_payloads_decode_like_the_tree_path(name):
    payload = ODD_PAYLOADS[name]
    for envelope in (
        _op_envelope(payload),
        f'{_HEAD}<opResponse name="x">{payload}</opResponse>{_TAIL}',
        f'{_HEAD}<batch n="2"><op name="x">{payload}</op><op name="y">'
        f'</op></batch>{_TAIL}',
    ):
        _assert_decodes_like_the_tree_path(envelope)


@pytest.mark.parametrize("name", sorted(ODD_ENVELOPES))
def test_odd_envelopes_decode_like_the_tree_path(name):
    _assert_decodes_like_the_tree_path(ODD_ENVELOPES[name])


#: One element of each shape the one pass fuses, opened at a depth.
DEEP_SHAPES = {
    "scalar-field": '<item type="struct"><entry key="a"><value type="int">'
                    '1</value></entry></item>',
    "nil-field": '<item type="struct"><entry key="a"><value xsi:nil="true"'
                 '/></entry></item>',
    "struct-field": '<item type="struct"><entry key="a"><value '
                    'type="struct"></value></entry></item>',
    "scalar-item": '<item type="int">1</item>',
    "nil-item": '<item xsi:nil="true"/>',
    "array-item": '<item type="array"></item>',
    "elements": "<a><b></b></a>",
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_the_depth_bound_decides_alike(shape):
    """Each shape at every depth from well inside the bound to past it
    reads as the tree path reads it: decoded, or refused as too deep."""
    outcomes = set()
    for levels in range(MAX_DEPTH - 10, MAX_DEPTH):
        inner = ('<item type="array">' * levels + DEEP_SHAPES[shape]
                 + "</item>" * levels)
        envelope = _op_envelope(f'<payload type="array">{inner}</payload>')
        if shape == "elements":
            envelope = "<r>" * levels + DEEP_SHAPES[shape] + "</r>" * levels
        _assert_decodes_like_the_tree_path(envelope)
        outcomes.add("too-deep" in _decoded(decode_envelope, envelope))
    assert outcomes == {True, False}
