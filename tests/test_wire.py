import re
import socket
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from cct import wire
from cct.errors import WireError

HEX16 = "00" * 16
HEX32 = "11" * 32
HEX64 = "22" * 64
HEX12 = "33" * 12

SAMPLE_MESSAGES = [
    {"type": "attest_req"},
    {
        "type": "attest_resp",
        "enclave_session_pub": HEX32,
        "measurement": HEX32,
        "platform_signature": HEX64,
    },
    {"type": "session_req", "client_session_pub": HEX32, "enclave_session_pub": HEX32},
    {"type": "session_resp", "session_id": HEX16},
    {
        "type": "report_req",
        "interval": 7,
        "result": "positive",
        "signature": HEX64,
        "token_hash": HEX32,
    },
    {"type": "result_req", "token": HEX32},
    {"type": "result_resp", "result": "unknown"},
    {
        "type": "upload_req",
        "token": HEX32,
        "tuples": [{"interval": 0, "received": "aa" * 16, "sent": "bb" * 16}],
    },
    {
        "type": "secret_upload_req",
        "from_interval": 0,
        "secret": HEX32,
        "to_interval": 5,
        "token": HEX32,
    },
    {"type": "poll_req", "tuples": []},
    {"type": "poll_resp", "matched": True, "matched_intervals": [0, 2]},
    {
        "type": "gps_upload_req",
        "token": HEX32,
        "trace": [{"lat": 0.0, "lon": 0.0, "t": 100}],
    },
    {
        "type": "gps_poll_req",
        "d_max": 10.0,
        "tau": 900.0,
        "trace": [{"lat": 1.5, "lon": -2.25, "t": 100}],
    },
    {"type": "gps_poll_resp", "events": [{"t_infected": 100, "t_poller": 150.0}]},
    {"type": "ack"},
    {"type": "error", "reason": "nope"},
    {
        "type": "envelope",
        "ciphertext": "ab" * 40,
        "nonce": HEX12,
        "sequence": 1,
        "session_id": HEX16,
    },
]


@pytest.mark.parametrize("msg", SAMPLE_MESSAGES, ids=lambda m: m["type"])
def test_round_trip_every_type(msg):
    raw = wire.encode(msg)
    assert wire.decode(raw) == msg
    assert wire.encode(msg) == raw


# the exact bytes of each sample, frozen from the codec before it was compiled
WIRE_BYTES = {
    "attest_req": b'{"type":"attest_req"}',
    "attest_resp": (
        b'{"enclave_session_pub":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"measurement":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"platform_signature":"22222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222",'
        b'"type":"attest_resp"}'
    ),
    "session_req": (
        b'{"client_session_pub":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"enclave_session_pub":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"type":"session_req"}'
    ),
    "session_resp": b'{"session_id":"00000000000000000000000000000000","type":"session_resp"}',
    "report_req": (
        b'{"interval":7,'
        b'"result":"positive",'
        b'"signature":"22222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222",'
        b'"token_hash":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"type":"report_req"}'
    ),
    "result_req": (
        b'{"token":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"type":"result_req"}'
    ),
    "result_resp": b'{"result":"unknown","type":"result_resp"}',
    "upload_req": (
        b'{"token":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"tuples":[{"interval":0,'
        b'"received":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",'
        b'"sent":"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"}],'
        b'"type":"upload_req"}'
    ),
    "secret_upload_req": (
        b'{"from_interval":0,'
        b'"secret":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"to_interval":5,'
        b'"token":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"type":"secret_upload_req"}'
    ),
    "poll_req": b'{"tuples":[],"type":"poll_req"}',
    "poll_resp": b'{"matched":true,"matched_intervals":[0,2],"type":"poll_resp"}',
    "gps_upload_req": (
        b'{"token":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"trace":[{"lat":0.0,'
        b'"lon":0.0,'
        b'"t":100}],'
        b'"type":"gps_upload_req"}'
    ),
    "gps_poll_req": (
        b'{"d_max":10.0,'
        b'"tau":900.0,'
        b'"trace":[{"lat":1.5,'
        b'"lon":-2.25,'
        b'"t":100}],'
        b'"type":"gps_poll_req"}'
    ),
    "gps_poll_resp": b'{"events":[{"t_infected":100,"t_poller":150.0}],"type":"gps_poll_resp"}',
    "ack": b'{"type":"ack"}',
    "error": b'{"reason":"nope","type":"error"}',
    "envelope": (
        b'{"ciphertext":"abababababababababababababababababababababababababababababababababababababababab",'
        b'"nonce":"333333333333333333333333",'
        b'"sequence":1,'
        b'"session_id":"00000000000000000000000000000000",'
        b'"type":"envelope"}'
    ),
}


def test_every_type_has_a_sample():
    assert [m["type"] for m in SAMPLE_MESSAGES] == list(wire.MESSAGE_SCHEMAS) == list(WIRE_BYTES)


@pytest.mark.parametrize("msg", SAMPLE_MESSAGES, ids=lambda m: m["type"])
def test_known_answer_bytes_every_type(msg):
    assert wire.encode(msg) == WIRE_BYTES[msg["type"]]


def test_canonical_form_is_sorted_and_compact():
    raw = wire.encode({"type": "session_resp", "session_id": HEX16})
    assert raw == b'{"session_id":"%s","type":"session_resp"}' % HEX16.encode()


def test_reordered_keys_rejected():
    raw = b'{"type":"session_resp","session_id":"%s"}' % HEX16.encode()
    with pytest.raises(WireError, match="non-canonical"):
        wire.decode(raw)


def test_whitespace_rejected():
    with pytest.raises(WireError, match="non-canonical"):
        wire.decode(b'{"type": "ack"}')


def test_unknown_type_rejected():
    with pytest.raises(WireError):
        wire.decode(b'{"type":"bogus"}')


def test_missing_field_rejected():
    with pytest.raises(WireError):
        wire.decode(b'{"type":"result_req"}')


def test_extra_field_rejected():
    with pytest.raises(WireError):
        wire.decode(b'{"extra":1,"type":"ack"}')


def test_wrong_hex_length_rejected():
    with pytest.raises(WireError):
        wire.decode(b'{"token":"abcd","type":"result_req"}')


def test_uppercase_hex_rejected():
    token = "AB" * 32
    with pytest.raises(WireError):
        wire.decode(b'{"token":"%s","type":"result_req"}' % token.encode())


@pytest.mark.parametrize(
    "ciphertext",
    # "abc\n" has even length, so only a full match refuses it: "$" also
    # matches just before a final newline
    ["ABCD", "abc", "abc\n", "ab\u0660\u0661", "\u0660\u0661"],
    ids=["uppercase", "odd-length", "trailing-newline", "arabic-indic-digits", "only-arabic-indic"],
)
def test_non_hex_ciphertext_rejected(ciphertext):
    envelope = {
        "type": "envelope",
        "ciphertext": ciphertext,
        "nonce": HEX12,
        "sequence": 1,
        "session_id": HEX16,
    }
    with pytest.raises(WireError, match="not lowercase hex"):
        wire.encode(envelope)


def test_non_ascii_digits_rejected_at_fixed_length():
    # right length, so only the character check can refuse it
    with pytest.raises(WireError, match="not lowercase hex"):
        wire.encode({"type": "session_resp", "session_id": "\u0660" * 32})


def test_non_finite_rejected():
    with pytest.raises(WireError):
        wire.encode({"type": "gps_poll_req", "d_max": float("nan"), "tau": 1.0, "trace": []})
    with pytest.raises(WireError):
        wire.decode(b'{"d_max":NaN,"tau":1.0,"trace":[],"type":"gps_poll_req"}')


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1.5e999"])
def test_overflowing_literal_rejected(literal):
    # json turns these into inf without consulting parse_constant
    raw = ('{"d_max":%s,"tau":1.0,"trace":[],"type":"gps_poll_req"}' % literal).encode()
    with pytest.raises(WireError, match=f"number out of range: {literal}"):
        wire.lenient_decode(raw)
    with pytest.raises(WireError, match="number out of range"):
        wire.decode(raw)


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "-" + "9" * 309], ids=["1e400", "-(1e309-1)"])
def test_integer_too_large_for_a_float_rejected(literal):
    # every number field is used as a float, which these ints cannot become
    raw = (
        '{"d_max":1.0,"tau":1.0,"trace":[{"lat":0.0,"lon":0.0,"t":%s}],"type":"gps_poll_req"}'
        % literal
    ).encode()
    with pytest.raises(WireError, match="^gps_poll_req.trace: number out of range$"):
        wire.decode(raw)
    with pytest.raises(WireError, match="^number out of range$"):
        wire.validate_gps_point({"lat": 0.0, "lon": 0.0, "t": int(literal)})
    with pytest.raises(ValueError, match="^scenario field rate: number out of range$"):
        wire.read_object({"rate": int(literal)}, {"rate": 0.0}, (), "scenario")


def test_largest_float_integer_accepted():
    largest = int(sys.float_info.max)
    wire.validate_gps_point({"lat": 0.0, "lon": 0.0, "t": -largest})
    assert wire.read_object({"rate": largest}, {"rate": 0.0}, (), "scenario") == {"rate": largest}


def test_deep_nesting_rejected():
    # far past any stack: the result does not depend on the caller's depth
    deep = b"[" * 100_000 + b"]" * 100_000
    for decode in (wire.lenient_decode, wire.canonical_decode, wire.decode):
        with pytest.raises(WireError, match="^invalid JSON: nested too deeply$"):
            decode(deep)
    value: list = []
    for _ in range(100_000):
        value = [value]
    with pytest.raises(WireError, match="nested too deeply"):
        wire.canonical_encode(value)


def test_large_finite_literal_accepted():
    assert wire.lenient_decode(b'{"a":1.5e308,"b":-2e-400}') == {"a": 1.5e308, "b": -0.0}


def test_bool_is_not_uint():
    with pytest.raises(WireError):
        wire.encode(
            {"type": "poll_resp", "matched": True, "matched_intervals": [True]}
        )


def test_negative_interval_rejected():
    with pytest.raises(WireError):
        wire.encode(
            {
                "type": "report_req",
                "interval": -1,
                "result": "positive",
                "signature": HEX64,
                "token_hash": HEX32,
            }
        )


# -- injectivity --------------------------------------------------------------

hex16_st = st.binary(min_size=16, max_size=16).map(bytes.hex)
hex32_st = st.binary(min_size=32, max_size=32).map(bytes.hex)

message_st = st.one_of(
    st.builds(
        lambda t, s: {"type": "secret_upload_req", "from_interval": 0, "secret": s, "to_interval": 3, "token": t},
        hex32_st,
        hex32_st,
    ),
    st.builds(
        lambda m, i: {"type": "poll_resp", "matched": m, "matched_intervals": i},
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=5),
    ),
    st.builds(lambda r: {"type": "error", "reason": r}, st.text(max_size=30)),
    st.builds(
        lambda sent, received, k: {
            "type": "poll_req",
            "tuples": [{"interval": k, "received": received, "sent": sent}],
        },
        hex16_st,
        hex16_st,
        st.integers(min_value=0, max_value=2**32),
    ),
)


@given(message_st, message_st)
def test_encode_injective(a, b):
    try:
        raw_a, raw_b = wire.encode(a), wire.encode(b)
    except WireError:
        return  # e.g. text with unencodable content; injectivity is about encodable values
    assert (raw_a == raw_b) == (a == b)


@given(message_st)
def test_decode_inverts_encode(msg):
    try:
        raw = wire.encode(msg)
    except WireError:
        return
    assert wire.decode(raw) == msg


# -- compiled path --------------------------------------------------------------
#
# decode and encode first try a grammar compiled from each fixed schema; a miss
# falls through to the generic path below. The two must agree on every input:
# the same value, or a WireError with the same text.

MAX_UINT = 2**64 - 1


def generic_decode(raw: bytes) -> dict:
    value = wire.canonical_decode(raw)
    wire.validate_message(value)
    return value


def generic_encode(msg: dict) -> bytes:
    wire.validate_message(msg)
    return wire.canonical_encode(msg)


def outcome(codec, arg):
    """("ok", repr of the result) or (exception type, text); repr tells 1 from True."""
    try:
        return ("ok", repr(codec(arg)))
    except Exception as exc:  # the generic path may raise more than WireError
        return (type(exc).__name__, str(exc))


def _ok(value):
    return ("ok", repr(value))


def _refused(reason: str):
    return ("WireError", reason)


def _not_uint(field: str):
    return _refused(f"{field}: expected unsigned 64-bit integer")


def _bad_fields(mtype: str, missing: list, extra: list):
    return _refused(f"bad fields for {mtype}: missing {missing}, extra {extra}")


_NON_CANONICAL = _refused("non-canonical encoding")
_MAX, _OVER = b"18446744073709551615", b"18446744073709551616"
_ENVELOPE = {
    "ciphertext": "abcd", "nonce": HEX12, "sequence": 1, "session_id": HEX16, "type": "envelope"
}
_REPORT = {
    "interval": 7, "result": "positive", "signature": HEX64, "token_hash": HEX32, "type": "report_req"
}
_UPLOAD = {
    "token": HEX32,
    "tuples": [{"interval": 1, "received": HEX16, "sent": HEX16}],
    "type": "upload_req",
}
_SECRET_UPLOAD = {
    "from_interval": 0, "secret": HEX32, "to_interval": 5, "token": HEX32, "type": "secret_upload_req"
}
_POLL_RESP = {"matched": True, "matched_intervals": [0], "type": "poll_resp"}


def _envelope_bytes(sequence=b"1", ciphertext=b"abcd", nonce=HEX12.encode(), session_id=HEX16.encode()):
    return b'{"ciphertext":"%s","nonce":"%s","sequence":%s,"session_id":"%s","type":"envelope"}' % (
        ciphertext, nonce, sequence, session_id
    )


def _report_bytes(interval):
    return b'{"interval":%s,"result":"positive","signature":"%s","token_hash":"%s",%s' % (
        interval, HEX64.encode(), HEX32.encode(), b'"type":"report_req"}'
    )


def _upload_bytes(interval=b"1", sent=HEX16.encode()):
    return b'{"token":"%s","tuples":[{"interval":%s,"received":"%s","sent":"%s"}],%s' % (
        HEX32.encode(), interval, HEX16.encode(), sent, b'"type":"upload_req"}'
    )


def _secret_upload_bytes(from_interval):
    return b'{"from_interval":%s,"secret":"%s","to_interval":5,"token":"%s",%s' % (
        from_interval, HEX32.encode(), HEX32.encode(), b'"type":"secret_upload_req"}'
    )


def _poll_resp_bytes(last):
    return b'{"matched":true,"matched_intervals":[0,%s],"type":"poll_resp"}' % last


# each expected result is the codec's before it was compiled
DECODE_EDGES = [
    pytest.param(_envelope_bytes(sequence=_MAX), _ok({**_ENVELOPE, "sequence": MAX_UINT}), id="sequence-max"),
    pytest.param(_envelope_bytes(sequence=_OVER), _not_uint("envelope.sequence"), id="sequence-2^64"),
    pytest.param(_report_bytes(_MAX), _ok({**_REPORT, "interval": MAX_UINT}), id="interval-max"),
    pytest.param(_report_bytes(_OVER), _not_uint("report_req.interval"), id="interval-2^64"),
    pytest.param(
        _upload_bytes(interval=_MAX),
        _ok({**_UPLOAD, "tuples": [{**_UPLOAD["tuples"][0], "interval": MAX_UINT}]}),
        id="tuple-interval-max",
    ),
    pytest.param(_upload_bytes(interval=_OVER), _not_uint("upload_req.tuples"), id="tuple-interval-2^64"),
    pytest.param(
        _secret_upload_bytes(_MAX), _ok({**_SECRET_UPLOAD, "from_interval": MAX_UINT}), id="from_interval-max"
    ),
    pytest.param(
        _secret_upload_bytes(_OVER), _not_uint("secret_upload_req.from_interval"), id="from_interval-2^64"
    ),
    pytest.param(
        _poll_resp_bytes(_MAX),
        _ok({**_POLL_RESP, "matched_intervals": [0, MAX_UINT]}),
        id="matched_intervals-max",
    ),
    pytest.param(
        _poll_resp_bytes(_OVER), _not_uint("poll_resp.matched_intervals"), id="matched_intervals-2^64"
    ),
    pytest.param(
        _envelope_bytes(ciphertext=b"abc"),
        _refused("envelope.ciphertext: not lowercase hex"),
        id="odd-ciphertext",
    ),
    pytest.param(
        _envelope_bytes(ciphertext=b"ABCD"),
        _refused("envelope.ciphertext: not lowercase hex"),
        id="uppercase-ciphertext",
    ),
    pytest.param(
        _envelope_bytes(nonce=b"AB" * 12), _refused("envelope.nonce: not lowercase hex"), id="uppercase-nonce"
    ),
    pytest.param(_envelope_bytes(ciphertext=b"ab\\u0030d"), _NON_CANONICAL, id="escape-ciphertext"),
    pytest.param(
        _envelope_bytes(session_id=b"\\u0030" + HEX16[1:].encode()), _NON_CANONICAL, id="escape-session_id"
    ),
    pytest.param(_upload_bytes(sent=b"\\u0030" + HEX16[1:].encode()), _NON_CANONICAL, id="escape-tuple-sent"),
    pytest.param(
        _envelope_bytes(sequence=b"01"),
        _refused("invalid JSON: Expecting ',' delimiter: line 1 column 69 (char 68)"),
        id="leading-zero-sequence",
    ),
    pytest.param(
        _report_bytes(b"007"),
        _refused("invalid JSON: Expecting ',' delimiter: line 1 column 14 (char 13)"),
        id="leading-zero-interval",
    ),
    pytest.param(
        _envelope_bytes().replace(b',"nonce"', b', "nonce"'), _NON_CANONICAL, id="whitespace-envelope"
    ),
    pytest.param(_envelope_bytes() + b"\n", _NON_CANONICAL, id="trailing-newline-envelope"),
    pytest.param(
        b'{"nonce":"%s","ciphertext":"abcd","sequence":1,"session_id":"%s","type":"envelope"}'
        % (HEX12.encode(), HEX16.encode()),
        _NON_CANONICAL,
        id="reordered-envelope",
    ),
    pytest.param(
        b'{"token":"%s","token":"%s","type":"result_req"}' % (HEX32.encode(), HEX32.encode()),
        _NON_CANONICAL,
        id="duplicate-token",
    ),
    pytest.param(
        _envelope_bytes().replace(b'"sequence":1,', b'"sequence":1,"sequence":2,'),
        _NON_CANONICAL,
        id="duplicate-sequence",
    ),
    pytest.param(
        b'{"ciphertext":"abcd","sequence":1,"session_id":"%s","type":"envelope"}' % HEX16.encode(),
        _bad_fields("envelope", ["nonce"], []),
        id="missing-nonce",
    ),
    pytest.param(
        _envelope_bytes().replace(b'"nonce"', b'"extra":1,"nonce"'),
        _bad_fields("envelope", [], ["extra"]),
        id="extra-envelope",
    ),
    pytest.param(
        b'{"token":"%s","type":"envelope"}' % HEX32.encode(),
        _bad_fields("envelope", ["ciphertext", "nonce", "sequence", "session_id"], ["token"]),
        id="envelope-suffix-on-result_req",
    ),
    pytest.param(bytearray(_envelope_bytes()), _ok(_ENVELOPE), id="bytearray-envelope"),
    pytest.param(bytearray(b'{"type":"ack"}'), _ok({"type": "ack"}), id="bytearray-ack"),
]

ENCODE_EDGES = [
    pytest.param({**_ENVELOPE, "sequence": MAX_UINT}, _ok(_envelope_bytes(sequence=_MAX)), id="sequence-max"),
    pytest.param({**_ENVELOPE, "sequence": MAX_UINT + 1}, _not_uint("envelope.sequence"), id="sequence-2^64"),
    pytest.param({**_ENVELOPE, "sequence": True}, _not_uint("envelope.sequence"), id="sequence-bool"),
    pytest.param({**_REPORT, "interval": MAX_UINT}, _ok(_report_bytes(_MAX)), id="interval-max"),
    pytest.param({**_REPORT, "interval": MAX_UINT + 1}, _not_uint("report_req.interval"), id="interval-2^64"),
    pytest.param(
        {**_SECRET_UPLOAD, "from_interval": MAX_UINT}, _ok(_secret_upload_bytes(_MAX)), id="from_interval-max"
    ),
    pytest.param(
        {**_SECRET_UPLOAD, "from_interval": MAX_UINT + 1},
        _not_uint("secret_upload_req.from_interval"),
        id="from_interval-2^64",
    ),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": [MAX_UINT + 1]},
        _not_uint("poll_resp.matched_intervals"),
        id="matched_intervals-2^64",
    ),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": (0, 1)},
        _refused("poll_resp.matched_intervals: expected array"),
        id="matched_intervals-tuple",
    ),
    pytest.param(
        {"token": "AB" * 32, "type": "result_req"},
        _refused("result_req.token: not lowercase hex"),
        id="uppercase-token",
    ),
    pytest.param(
        {k: v for k, v in _ENVELOPE.items() if k != "nonce"},
        _bad_fields("envelope", ["nonce"], []),
        id="missing-nonce",
    ),
    pytest.param({"extra": 1, "type": "ack"}, _bad_fields("ack", [], ["extra"]), id="extra-ack"),
]


@pytest.mark.parametrize("raw,expected", DECODE_EDGES)
def test_decode_edge_case(raw, expected):
    assert outcome(wire.decode, raw) == expected


@pytest.mark.parametrize("msg,expected", ENCODE_EDGES)
def test_encode_edge_case(msg, expected):
    assert outcome(wire.encode, msg) == expected


# -- differential: the compiled path against the generic one --------------------

def _hex(nbytes: int):
    return st.binary(min_size=nbytes, max_size=nbytes).map(bytes.hex)


uint_st = st.one_of(
    st.integers(min_value=0, max_value=MAX_UINT),
    st.sampled_from([0, 1, 10, 10**18, 10**19 - 1, 10**19, MAX_UINT]),
)
tuple_entry_st = st.fixed_dictionaries({"interval": uint_st, "received": _hex(16), "sent": _hex(16)})
gps_point_st = st.fixed_dictionaries(
    {"lat": st.floats(-90, 90), "lon": st.floats(-180, 180), "t": st.integers(0, 2**40)}
)


# the fields of a valid message of each type
FIELD_STRATEGIES = {
    "attest_req": {},
    "attest_resp": {"enclave_session_pub": _hex(32), "measurement": _hex(32), "platform_signature": _hex(64)},
    "session_req": {"client_session_pub": _hex(32), "enclave_session_pub": _hex(32)},
    "session_resp": {"session_id": _hex(16)},
    "report_req": {
        "interval": uint_st,
        "result": st.sampled_from(["positive", "negative"]),
        "signature": _hex(64),
        "token_hash": _hex(32),
    },
    "result_req": {"token": _hex(32)},
    "result_resp": {"result": st.sampled_from(["positive", "negative", "unknown"])},
    "upload_req": {"token": _hex(32), "tuples": st.lists(tuple_entry_st, max_size=4)},
    "secret_upload_req": {
        "from_interval": uint_st, "secret": _hex(32), "to_interval": uint_st, "token": _hex(32)
    },
    "poll_req": {"tuples": st.lists(tuple_entry_st, max_size=4)},
    "poll_resp": {"matched": st.booleans(), "matched_intervals": st.lists(uint_st, max_size=4)},
    "gps_upload_req": {"token": _hex(32), "trace": st.lists(gps_point_st, max_size=2)},
    "ack": {},
    "error": {"reason": st.text(max_size=8)},
    "envelope": {
        "ciphertext": st.binary(max_size=40).map(bytes.hex),
        "nonce": _hex(12),
        "sequence": uint_st,
        "session_id": _hex(16),
    },
}
# floats and free text have no grammar, so these take the generic path
GENERIC_TYPES = ("gps_upload_req", "gps_poll_req", "gps_poll_resp", "error")
# every compiled type, and two generic ones
FUZZ_TYPES = [t for t in wire.MESSAGE_SCHEMAS if t not in GENERIC_TYPES] + ["gps_upload_req", "error"]


def valid_message_st(mtype: str):
    return st.fixed_dictionaries(FIELD_STRATEGIES[mtype]).map(lambda fields: {**fields, "type": mtype})


# a string, number or literal value in canonical bytes (a key is followed by ":")
_SCALAR = re.compile(rb'(?<=[:\[,])(?:"(?:[^"\\]|\\.)*"|-?[0-9][0-9.eE+-]*|true|false|null)(?=[,}\]])')
# where a member starts: the byte before its key
_MEMBER = re.compile(rb'[{,]"[a-z_]+":')
_NUMBER_EDITS = [b"0%s", b"%s0", b"-%s", b"%s.0", b"%se0", b" %s", _MAX, _OVER, b"1" + b"0" * 19, b"true"]
_LITERALS = [b"true", b"false", b"null", b"0", b"1", b'"true"', b"[]", b"{}"]
_SPLICES = [
    b"", b" ", b"\n", b'"', b",", b":", b"\\", b"{", b"}", b"[", b"]", b"-", b"0", b"A", b"g",
    b'"x":1,', b'"type":"envelope"}', b'"type":"ack"}', b"\xff", b"\xc3\xa9",
]


def _scalar_variants(token: bytes) -> list[bytes]:
    """Spellings near one string, number or literal token."""
    if token[:1] == b'"':
        body = token[1:-1]
        bodies = [
            body.upper(),
            body[:-1] + body[-1:].upper(),
            b"\\u%04x" % body[0] + body[1:] if body else b"\\u0030",
            body[:-1] + b"\\u%04x" % body[-1] if body else b"\\u0061",
            body[1:],
            body[2:],
            body[:1] + body,
            body[:2] + body,
            b"g" + body[1:],
            b"00" + body,
            b"\xc3\xa9" + body[2:],
            body + b" ",
            b"",
        ]
        return [b'"%s"' % b for b in bodies]
    if token[:1].isdigit() or token[:1] == b"-":
        return [edit % token if b"%s" in edit else edit for edit in _NUMBER_EDITS]
    return _LITERALS


def single_edits(raw: bytes) -> list[bytes]:
    """raw with one value respelled, a comma or space beside a punctuation
    mark, or one member repeated, dropped or moved."""
    edited = [
        raw[: m.start()] + variant + raw[m.end() :]
        for m in _SCALAR.finditer(raw)
        for variant in _scalar_variants(m[0])
    ]
    edited += [
        raw[:at] + extra + raw[at:]
        for m in re.finditer(rb"[{}\[\],:]", raw)
        for at in (m.start(), m.end())
        for extra in (b",", b" ")
    ]
    starts = [m.start() + 1 for m in _MEMBER.finditer(raw)]
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else len(raw) - 1
        member, rest = raw[start:stop], raw[:start] + raw[stop:]
        edited.append(raw[:stop] + member + raw[stop:])
        edited.append(rest)
        edited.extend(rest[:at] + member + rest[at:] for at in starts[:i] + [len(rest) - 1])
    return edited


@st.composite
def mutated_bytes_st(draw, mtype: str):
    """A canonical message with up to three edits, each one of single_edits or a raw splice."""
    raw = wire.canonical_encode(draw(valid_message_st(mtype)))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2, 3]))):
        if draw(st.integers(min_value=0, max_value=4)):
            raw = draw(st.sampled_from(single_edits(raw) or [raw]))
        else:
            start = draw(st.integers(min_value=0, max_value=len(raw)))
            end = draw(st.integers(min_value=start, max_value=min(len(raw), start + 4)))
            raw = raw[:start] + draw(st.sampled_from(_SPLICES)) + raw[end:]
    return raw


class _Text(str):
    pass


class _Int(int):
    pass


# values that an edit puts in place of any field
_FIELD_VALUES = [None, True, 0, -1, 1.0, MAX_UINT + 1, "", "abc", "positive", [], {}]


def _value_variants(value) -> list:
    """Values near `value` that may or may not still be valid."""
    if isinstance(value, bool):
        return [not value, int(value), None, _Int(value)]
    if isinstance(value, int):
        return [value + 1, value - 1, MAX_UINT, MAX_UINT + 1, True, float(value), _Int(value), -value]
    if isinstance(value, str):
        return [
            value.upper(),
            value[:-1] + value[-1:].upper(),
            value[1:],
            value[2:],
            value[:1] + value,
            value[:2] + value,
            "٠" + value[1:],
            _Text(value),
            value.encode(),
        ]
    if isinstance(value, list):
        variants = [tuple(value), value + [None], value + [MAX_UINT + 1], value[:-1]]
        if value:
            variants += [[first] + value[1:] for first in _value_variants(value[0])]
        return variants
    if isinstance(value, dict):
        variants = [{**value, "extra": 1}]
        for key in value:
            variants.append({k: v for k, v in value.items() if k != key})
            variants += [{**value, key: near} for near in _value_variants(value[key])]
        return variants
    return _FIELD_VALUES


def single_value_edits(msg: dict) -> list[dict]:
    """msg with one field dropped, replaced by a nearby or unrelated value, or added."""
    edited = [{**msg, "extra": value} for value in _FIELD_VALUES]
    for key, value in msg.items():
        edited.append({k: v for k, v in msg.items() if k != key})
        edited += [{**msg, key: near} for near in _value_variants(value) + _FIELD_VALUES]
    return edited


@st.composite
def mutated_message_st(draw, mtype: str):
    """A valid message, or one of single_value_edits of one."""
    msg = draw(valid_message_st(mtype))
    return draw(st.sampled_from([msg] + single_value_edits(msg)))


@pytest.mark.parametrize("msg", SAMPLE_MESSAGES, ids=lambda m: m["type"])
def test_decode_agrees_on_every_single_edit(msg):
    raw = WIRE_BYTES[msg["type"]]
    for edited in [raw] + single_edits(raw):
        assert outcome(wire.decode, edited) == outcome(generic_decode, edited), edited


@pytest.mark.parametrize("msg", SAMPLE_MESSAGES, ids=lambda m: m["type"])
def test_encode_agrees_on_every_single_edit(msg):
    for edited in [msg] + single_value_edits(msg):
        assert outcome(wire.encode, edited) == outcome(generic_encode, edited), edited


@pytest.mark.parametrize("mtype", FUZZ_TYPES)
@given(data=st.data())
def test_decode_differential(mtype, data):
    raw = data.draw(mutated_bytes_st(mtype))
    assert outcome(wire.decode, raw) == outcome(generic_decode, raw)


@pytest.mark.parametrize("mtype", FUZZ_TYPES)
@given(data=st.data())
def test_encode_differential(mtype, data):
    msg = data.draw(mutated_message_st(mtype))
    assert outcome(wire.encode, msg) == outcome(generic_encode, msg)


@pytest.mark.parametrize(
    "msg",
    [m for m in SAMPLE_MESSAGES if m["type"] not in GENERIC_TYPES],
    ids=lambda m: m["type"],
)
def test_fixed_schemas_take_the_compiled_path(msg, monkeypatch):
    raw = WIRE_BYTES[msg["type"]]

    def refuse(*_args):
        raise AssertionError("generic path taken")

    for name in ("validate_message", "canonical_decode"):
        monkeypatch.setattr(wire, name, refuse)
    if msg["type"] == "envelope":
        monkeypatch.setattr(wire, "json", None)  # no json call either way
    assert (wire.encode(msg), wire.decode(raw)) == (raw, msg)


# -- framing -------------------------------------------------------------------

def test_framing_round_trip():
    a, b = socket.socketpair()
    try:
        payloads = [b"x", b"", b"y" * 70000]
        def send():
            for p in payloads:
                wire.send_frame(a, p)
        t = threading.Thread(target=send)
        t.start()
        received = [wire.recv_frame(b) for _ in payloads]
        t.join()
        assert received == payloads
    finally:
        a.close()
        b.close()


def test_recv_clean_eof():
    a, b = socket.socketpair()
    a.close()
    try:
        assert wire.recv_frame(b) is None
    finally:
        b.close()


def test_recv_truncated_frame():
    a, b = socket.socketpair()
    try:
        a.sendall((100).to_bytes(4, "big") + b"only-some")
        a.close()
        with pytest.raises(WireError, match="truncated"):
            wire.recv_frame(b)
    finally:
        b.close()


def test_oversized_frame_rejected():
    a, b = socket.socketpair()
    try:
        a.sendall((wire.MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(WireError, match="frame too large"):
            wire.recv_frame(b)
        with pytest.raises(WireError, match="frame too large"):
            wire.send_frame(a, b"z" * (wire.MAX_FRAME + 1))
    finally:
        a.close()
        b.close()


def test_transcript_append_only():
    transcript = wire.Transcript()
    transcript.append("c2e", b"one")
    transcript.append("e2c", b"two")
    assert len(transcript) == 2
    assert transcript.messages() == [b"one", b"two"]
    assert list(transcript) == [("c2e", b"one"), ("e2c", b"two")]
