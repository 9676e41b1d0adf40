"""Unit tests for the SOAP envelope codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.condorj2.api.faults import (
    ConflictFault,
    FaultCode,
    MalformedFault,
    ServiceFault,
    ValidationFault,
)
from repro.condorj2.web.soap import (
    decode_batch_response,
    decode_envelope,
    decode_request,
    decode_response,
    encode_batch_request,
    encode_batch_response,
    encode_request,
    encode_response,
    envelope_size,
    is_batch_request,
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
    assert is_batch_request(envelope)
    is_batch, decoded = decode_envelope(envelope)
    assert is_batch
    assert decoded == calls


def test_single_envelope_is_not_a_batch():
    envelope = encode_request("heartbeat", {"machine": "n"})
    assert not is_batch_request(envelope)
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
