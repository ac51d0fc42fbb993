import json
import math
import re
import socket
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from cct import wire
from cct.attestation import SecureChannel
from cct.client import encode_tuples
from cct.config import read_object
from cct.errors import EnvelopeError, WireError
from cct.sim.audit import Transcript

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
    with pytest.raises(WireError, match="^gps_poll_req.d_max: expected finite number$"):
        wire.encode({"type": "gps_poll_req", "d_max": float("nan"), "tau": 1.0, "trace": []})
    with pytest.raises(WireError, match="^non-finite numbers are not canonical$"):
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
        wire.MESSAGE_SCHEMAS["gps_upload_req"]["trace"]([{"lat": 0.0, "lon": 0.0, "t": int(literal)}])
    with pytest.raises(ValueError, match="^scenario field rate: number out of range$"):
        read_object({"rate": int(literal)}, {"rate": 0.0}, (), "scenario")


def test_largest_float_integer_accepted():
    largest = int(sys.float_info.max)
    wire.MESSAGE_SCHEMAS["gps_upload_req"]["trace"]([{"lat": 0.0, "lon": 0.0, "t": -largest}])
    assert read_object({"rate": largest}, {"rate": 0.0}, (), "scenario") == {"rate": largest}


def test_deep_nesting_rejected():
    # far past any stack: the result does not depend on the caller's depth
    deep = b"[" * 100_000 + b"]" * 100_000
    for decode in (wire.lenient_decode, wire.canonical_decode, wire.decode):
        with pytest.raises(WireError, match="^invalid JSON: nested too deeply$"):
            decode(deep)
    value: list = []
    for _ in range(100_000):
        value = [value]
    with pytest.raises(WireError, match="^value not canonically encodable: nested too deeply$"):
        wire.canonical_encode(value)


# -- canonical_encode: one JSON encoder, built at import --------------------------

json_value_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def dumps_canonical(value) -> bytes:
    """The canonical form as json.dumps writes it, with a new encoder per call."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


@given(json_value_st)
def test_canonical_encode_matches_json_dumps(value):
    assert wire.canonical_encode(value) == dumps_canonical(value)


@pytest.mark.parametrize(
    "value,reason",
    [
        (math.nan, "Out of range float values are not JSON compliant"),
        ([1, -math.inf], "Out of range float values are not JSON compliant"),
        ({"a": {"b": math.inf}}, "Out of range float values are not JSON compliant"),
        (b"ab", "Object of type bytes is not JSON serializable"),
        ([{1, 2}], "Object of type set is not JSON serializable"),
        ({(1,): 0}, "keys must be str, int, float, bool or None, not tuple"),
    ],
    ids=["nan", "-inf-in-list", "inf-in-object", "bytes", "set", "tuple-key"],
)
def test_canonical_encode_refusal_texts(value, reason):
    with pytest.raises(WireError) as refused:
        wire.canonical_encode(value)
    with pytest.raises((TypeError, ValueError)) as direct:
        dumps_canonical(value)
    assert str(refused.value) == f"value not canonically encodable: {direct.value}"
    assert str(refused.value).startswith(f"value not canonically encodable: {reason}")
    # a refused value leaves nothing behind in the shared encoder
    assert wire.canonical_encode({"b": [1.5], "a": None}) == b'{"a":null,"b":[1.5]}'


def test_canonical_encode_from_four_threads():
    values = [
        [{"thread": k, "i": i, "xs": [i] * (i % 5), "f": i / 7, "s": "é" * (i % 3)} for i in range(500)]
        for k in range(4)
    ]
    expected = [[wire.canonical_encode(v) for v in mine] for mine in values]
    results: list = [None] * 4
    start = threading.Barrier(4)

    def run(k: int) -> None:
        start.wait()
        results[k] = [wire.canonical_encode(v) for v in values[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


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


class _Text(str):
    pass


class _Int(int):
    pass


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
    # a type that is no string is refused as unknown, not with the TypeError of a dict lookup
    pytest.param(b'{"type":[]}', _refused("unknown message type: []"), id="list-type"),
    pytest.param(b'{"type":{}}', _refused("unknown message type: {}"), id="object-type"),
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
    # exact types, subclasses and near misses of each fixed-shape field
    pytest.param({**_REPORT, "interval": True}, _not_uint("report_req.interval"), id="interval-bool"),
    pytest.param({**_REPORT, "interval": _Int(7)}, _ok(_report_bytes(b"7")), id="interval-int-subclass"),
    pytest.param({**_REPORT, "interval": 7.0}, _not_uint("report_req.interval"), id="interval-float"),
    pytest.param({**_REPORT, "interval": 10**19}, _ok(_report_bytes(b"1" + b"0" * 19)), id="interval-10^19"),
    pytest.param(
        {**_REPORT, "result": _Text("positive")}, _ok(_report_bytes(b"7")), id="result-str-subclass"
    ),
    pytest.param(
        {**_REPORT, "token_hash": "AB" * 32},
        _refused("report_req.token_hash: not lowercase hex"),
        id="uppercase-token_hash",
    ),
    pytest.param(
        {**_SECRET_UPLOAD, "from_interval": False},
        _not_uint("secret_upload_req.from_interval"),
        id="from_interval-bool",
    ),
    pytest.param(
        {**_SECRET_UPLOAD, "to_interval": -1}, _not_uint("secret_upload_req.to_interval"), id="to_interval-negative"
    ),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": []},
        _ok(b'{"matched":true,"matched_intervals":[],"type":"poll_resp"}'),
        id="matched_intervals-empty",
    ),
    pytest.param(
        {**_POLL_RESP, "matched": False, "matched_intervals": []},
        _ok(b'{"matched":false,"matched_intervals":[],"type":"poll_resp"}'),
        id="unmatched-empty",
    ),
    pytest.param({**_POLL_RESP, "matched": 1}, _refused("poll_resp.matched: expected boolean"), id="matched-int"),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": [True]},
        _not_uint("poll_resp.matched_intervals"),
        id="matched_intervals-bool",
    ),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": [_Int(3)]},
        _ok(b'{"matched":true,"matched_intervals":[3],"type":"poll_resp"}'),
        id="matched_intervals-int-subclass",
    ),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": [MAX_UINT, MAX_UINT + 1]},
        _not_uint("poll_resp.matched_intervals"),
        id="matched_intervals-max-then-2^64",
    ),
    pytest.param(
        {**_POLL_RESP, "matched_intervals": (0,)},
        _refused("poll_resp.matched_intervals: expected array"),
        id="matched_intervals-one-tuple",
    ),
    pytest.param(
        {**_UPLOAD, "tuples": []},
        _ok(b'{"token":"%s","tuples":[],"type":"upload_req"}' % HEX32.encode()),
        id="tuples-empty",
    ),
    pytest.param(
        {**_UPLOAD, "tuples": [{**_UPLOAD["tuples"][0], "interval": True}]},
        _not_uint("upload_req.tuples"),
        id="tuple-interval-bool",
    ),
    pytest.param(
        {**_UPLOAD, "tuples": [{**_UPLOAD["tuples"][0], "sent": "AB" * 16}]},
        _refused("upload_req.tuples: not lowercase hex"),
        id="uppercase-tuple-sent",
    ),
    pytest.param(
        {**_UPLOAD, "tuples": [{**_UPLOAD["tuples"][0], "extra": 1}]},
        _refused(
            "upload_req.tuples: expected fields ['interval', 'received', 'sent'],"
            " got ['extra', 'interval', 'received', 'sent']"
        ),
        id="extra-tuple-field",
    ),
    pytest.param(
        {"type": "session_resp", "session_id": "AB" * 16},
        _refused("session_resp.session_id: not lowercase hex"),
        id="uppercase-session_id",
    ),
    pytest.param(
        {"type": "session_resp", "session_id": _Text(HEX16)},
        _ok(b'{"session_id":"%s","type":"session_resp"}' % HEX16.encode()),
        id="session_id-str-subclass",
    ),
    pytest.param(
        {"type": "session_resp", "session_id": HEX16.encode()},
        _refused("session_resp.session_id: expected hex string"),
        id="session_id-bytes",
    ),
    pytest.param(
        {"type": "session_resp", "session_id": "٠" + HEX16[1:]},
        _refused("session_resp.session_id: not lowercase hex"),
        id="session_id-arabic-indic-digit",
    ),
    pytest.param({"type": "session_resp"}, _bad_fields("session_resp", ["session_id"], []), id="missing-session_id"),
    pytest.param(
        {"type": "session_resp", "session_id": HEX16, "extra": HEX16},
        _bad_fields("session_resp", [], ["extra"]),
        id="extra-session_resp",
    ),
    pytest.param(
        {"type": "result_resp", "result": "maybe"},
        _refused("result_resp.result: expected one of ('positive', 'negative', 'unknown')"),
        id="result-maybe",
    ),
    pytest.param(
        {"type": "result_resp", "result": ["unknown"]},
        _refused("result_resp.result: expected one of ('positive', 'negative', 'unknown')"),
        id="result-list",
    ),
    pytest.param({"type": "attest_req", "extra": 1}, _bad_fields("attest_req", [], ["extra"]), id="extra-attest_req"),
    pytest.param({"type": "ack", "reason": "x"}, _bad_fields("ack", [], ["reason"]), id="reason-on-ack"),
    pytest.param({"type": ["ack"]}, _refused("unknown message type: ['ack']"), id="list-type"),
    pytest.param({"type": {"ack": 1}}, _refused("unknown message type: {'ack': 1}"), id="object-type"),
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
    return mutated(draw, wire.canonical_encode(draw(valid_message_st(mtype))))


def mutated(draw, raw: bytes) -> bytes:
    """raw with up to three edits, each one of single_edits or a raw splice."""
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2, 3]))):
        if draw(st.integers(min_value=0, max_value=4)):
            raw = draw(st.sampled_from(single_edits(raw) or [raw]))
        else:
            start = draw(st.integers(min_value=0, max_value=len(raw)))
            end = draw(st.integers(min_value=start, max_value=min(len(raw), start + 4)))
            raw = raw[:start] + draw(st.sampled_from(_SPLICES)) + raw[end:]
    return raw


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


def forbid_json(monkeypatch) -> None:
    """Fail any JSON reading or writing in wire: json itself, canonical_encode
    and the encoder it binds at import."""

    def refuse(*_args):
        raise AssertionError("json used")

    monkeypatch.setattr(wire, "json", None)
    for name in ("canonical_encode", "_json_encode"):
        monkeypatch.setattr(wire, name, refuse)


# -- differential: the tuple emitter against encode() of the dict form ------------
#
# encode_tuples, the client's writer, takes exact types only: what encode() of
# the dict form takes beyond them (an int subclass, bytearray) is refused too.

_identifier_st = st.binary(min_size=16, max_size=16)
# values the dict form refuses, and with them ones it takes
_REFUSED_INTERVALS = [True, False, -1, MAX_UINT + 1]
_NEAR_INTERVALS = _REFUSED_INTERVALS + [1.0, _Int(3)]
_REFUSED_IDENTIFIERS = [bytes(15), bytes(17), "00" * 16, None, 16]
_NEAR_IDENTIFIERS = _REFUSED_IDENTIFIERS + [bytearray(range(16))]
_REFUSED_TOKENS = [bytes(31), bytes(33), "11" * 32, 32]
_NEAR_TOKENS = _REFUSED_TOKENS + [bytearray(32)]
_TOKEN_REFUSAL = ("WireError", "upload_req.token: expected 32 bytes")


def tuple_refusal(mtype: str, field: int) -> tuple[str, str]:
    """encode_tuples' refusal of a moved interval (field 0) or identifier."""
    expected = "expected unsigned 64-bit integer" if field == 0 else "expected 16 bytes"
    return ("WireError", f"{mtype}.tuples: {expected}")


def tuple_dict_form(tuples, token) -> dict:
    """The poll_req (no token) or upload_req that encode_tuples encodes."""
    entries = [{"interval": i, "received": r.hex(), "sent": s.hex()} for i, s, r in tuples]
    if token is None:
        return {"type": "poll_req", "tuples": entries}
    return {"type": "upload_req", "token": token.hex(), "tuples": entries}


def emitted(tuples, token) -> tuple[str, str]:
    return outcome(lambda args: encode_tuples(*args), (tuples, token))


@st.composite
def emitter_input_st(draw):
    """Valid tuples and token, with a tuple field and the token each perhaps
    moved to a nearby value, and the refusal that gives (None: valid)."""
    tuples = draw(st.lists(st.tuples(uint_st, _identifier_st, _identifier_st), max_size=4))
    token = draw(st.one_of(st.none(), st.binary(min_size=32, max_size=32)))
    mtype = "poll_req" if token is None else "upload_req"
    refusal = None
    if tuples and draw(st.booleans()):
        k, field = draw(st.integers(0, len(tuples) - 1)), draw(st.integers(0, 2))
        near = _NEAR_INTERVALS if field == 0 else _NEAR_IDENTIFIERS
        edited = list(tuples[k])
        edited[field] = draw(st.sampled_from(near))
        tuples[k] = tuple(edited)
        refusal = tuple_refusal(mtype, field)
    if token is not None and draw(st.booleans()):
        # the token is checked first, as encode() checks the message's fields
        token, refusal = draw(st.sampled_from(_NEAR_TOKENS)), _TOKEN_REFUSAL
    return tuples, token, refusal


@given(emitter_input_st())
def test_tuple_emitter_differential(case):
    tuples, token, refusal = case
    if refusal is None:
        expected = wire.encode(tuple_dict_form(tuples, token))
        assert emitted(tuples, token) == ("ok", repr(expected))
    else:
        # every moved field is refused, bytearray and int subclasses included
        assert emitted(tuples, token) == refusal


@pytest.mark.parametrize("token", [None, b"\x11" * 32], ids=["poll", "upload"])
def test_tuple_emitter_differential_edges(token, monkeypatch):
    cases = []
    for intervals in ([], [0], [MAX_UINT], [0, MAX_UINT, 10**19]):
        tuples = [(i, bytes([k]) * 16, bytes([k + 1]) * 16) for k, i in enumerate(intervals)]
        expected = wire.encode(tuple_dict_form(tuples, token))
        assert wire.decode(expected) == tuple_dict_form(tuples, token)
        cases.append((tuples, expected))
    with monkeypatch.context() as patched:
        # valid tuples need neither json nor encode()
        forbid_json(patched)
        patched.setattr(wire, "encode", None)
        for tuples, expected in cases:
            assert encode_tuples(tuples, token) == expected
    mtype = "poll_req" if token is None else "upload_req"
    good = (0, bytes(16), b"\x01" * 16)
    # the dict form takes an int subclass and bytearray; the emitter refuses them
    taken = [([(_Int(3), *good[1:])], 0), ([(0, bytearray(16), good[2])], 1)]
    taken += [([(0, good[1], bytearray(16))], 2)]
    for tuples, field in taken:
        assert outcome(wire.encode, tuple_dict_form(tuples, token))[0] == "ok"
        assert emitted(tuples, token) == tuple_refusal(mtype, field), tuples
    refused = [([(i, *good[1:])], 0) for i in _NEAR_INTERVALS]
    refused += [([(0, v, good[2])], 1) for v in _NEAR_IDENTIFIERS]
    refused += [([(0, good[1], v)], 2) for v in _NEAR_IDENTIFIERS]
    for tuples, field in refused:
        assert emitted(tuples, token) == tuple_refusal(mtype, field), tuples
    if token is not None:
        assert outcome(wire.encode, tuple_dict_form([good], bytearray(32)))[0] == "ok"
        assert emitted([good], bytearray(32)) == _TOKEN_REFUSAL
        for bad_token in _NEAR_TOKENS:
            assert emitted([good], bad_token) == _TOKEN_REFUSAL, bad_token
            assert emitted([(-1, *good[1:])], bad_token) == _TOKEN_REFUSAL, bad_token


# -- differential: the tuple decoder against decode() plus the dict-to-tuple step -----

def reference_decode_tuples(raw: bytes):
    """decode(), then the step that turned the decoded dicts into tuples."""
    msg = wire.decode(raw)
    if msg["type"] not in ("poll_req", "upload_req"):
        raise WireError(f"expected poll_req or upload_req, got {msg['type']}")
    tuples = []
    for e in msg["tuples"]:
        if e["sent"] == e["received"]:
            raise ValueError("self-contact")
        tuples.append((e["interval"], bytes.fromhex(e["sent"]), bytes.fromhex(e["received"])))
    return (bytes.fromhex(msg["token"]) if msg["type"] == "upload_req" else None), tuples


# few identifiers, so that some tuples are self-contacts
_pooled_identifier_st = st.one_of(_identifier_st, st.sampled_from([bytes(16), b"\x01" * 16]))


@st.composite
def tuple_request_st(draw):
    """A poll_req or upload_req from encode_tuples, with up to three edits."""
    tuples = draw(
        st.lists(st.tuples(uint_st, _pooled_identifier_st, _pooled_identifier_st), max_size=4)
    )
    token = draw(st.one_of(st.none(), st.binary(min_size=32, max_size=32)))
    return mutated(draw, encode_tuples(tuples, token))


@given(tuple_request_st())
def test_tuple_decoder_differential(raw):
    assert outcome(wire.decode_tuples, raw) == outcome(reference_decode_tuples, raw)


def _tuple_request_edges() -> list:
    a, b = "aa" * 16, "bb" * 16
    entry = '{"interval":%s,"received":"%s","sent":"%s"}'
    poll = '{"tuples":[%s],"type":"poll_req"}'
    upload = '{"token":"%s","tuples":[%s],"type":"upload_req"}'
    one = entry % (7, a, b)
    raws = [
        poll % "",
        upload % (HEX32, ""),
        poll % one,
        poll % ",".join([one, entry % (0, b, a), one]),  # a repeated tuple
        upload % (HEX32, one),
        poll % (entry % (7, a.upper(), b)),
        upload % (("ab" * 32).upper(), one),
        upload % (HEX32[:-2], one),
        upload % ("zz" + HEX32[2:], one),
        poll % (entry % ("1" + "0" * 19, a, b)),  # 20 digits below 2^64: the grammar takes it
        poll % (entry % (MAX_UINT, a, b)),
        poll % (entry % (MAX_UINT + 1, a, b)),
        poll % (entry % ("07", a, b)),
        poll % (entry % ("-1", a, b)),
        poll % (entry % (7, a, a)),  # self-contact
        poll % ",".join([entry % (1, "00" * 16, "00" * 16), entry % (2, a, a)]),
        poll % (entry % (7, a, b)).replace(",", ", "),
        poll % one + " ",
        poll % (one[:-1] + ',"extra":1}'),
        poll % ('{"interval":7,"received":"%s"}' % a),
        '{"tuples":[%s]}' % one,
        '{"tuples":[%s],"type":"ack"}' % one,
        '{"type":"ack"}',
        "",
    ]
    raws += [(upload % (HEX32, one))[:cut] for cut in (1, 20, 80, -20, -1)]
    return [r.encode() for r in raws] + [bytearray((poll % one).encode())]


@pytest.mark.parametrize("raw", _tuple_request_edges())
def test_tuple_decoder_differential_edges(raw):
    assert outcome(wire.decode_tuples, raw) == outcome(reference_decode_tuples, raw)


def test_tuple_decoder_needs_no_json(monkeypatch):
    tuples = [(0, bytes(16), b"\x01" * 16), (10**19 - 1, b"\x02" * 16, b"\x03" * 16)]
    tuples += [(10**19, b"\x04" * 16, b"\x05" * 16), (MAX_UINT, b"\x06" * 16, b"\x07" * 16)]
    token = b"\x11" * 32
    poll, upload = encode_tuples(tuples), encode_tuples(tuples, token)
    forbid_json(monkeypatch)
    monkeypatch.setattr(wire, "decode", None)
    assert wire.decode_tuples(poll) == (None, tuples)
    assert wire.decode_tuples(upload) == (token, tuples)


# -- differential: the envelope codec against the dict form -----------------------
#
# SecureChannel used to write an envelope as a dict of hex strings for
# encode(), and to open the dict that decode() made. The bytes codec must give
# the same bytes, and the same plaintext or the same refusal.

_C2E, _E2C, _SID = b"\x01" * 32, b"\x02" * 32, b"\xab\xcd" * 8
_FOREIGN_SID, _FOREIGN_KEY = b"\x04" * 16, b"\x05" * 32
_SEQUENCES = [1, 2, 10**19 - 1, 10**19, MAX_UINT]


def _sequence_nonce(sequence: int) -> bytes:
    return bytes(4) + sequence.to_bytes(8, "big")


def dict_envelope(key: bytes, session_id: bytes, sequence: int, plaintext: bytes) -> dict:
    """The envelope message that encrypt returned before it returned bytes."""
    nonce = _sequence_nonce(sequence)
    return {
        "ciphertext": ChaCha20Poly1305(key).encrypt(nonce, plaintext, session_id).hex(),
        "nonce": nonce.hex(),
        "sequence": sequence,
        "session_id": session_id.hex(),
        "type": "envelope",
    }


def reference_open(channel: SecureChannel, raw: bytes) -> bytes:
    """decode(), then the dict form's decrypt, on a channel's receive state.

    The service sent only envelopes to decrypt; any other valid message is
    refused here as decode_envelope refuses it.
    """
    envelope = wire.decode(raw)
    if envelope["type"] != "envelope":
        raise WireError(f"expected envelope, got {envelope['type']}")
    sequence = envelope["sequence"]
    nonce = _sequence_nonce(sequence)
    if sequence <= channel._last_recv:
        raise EnvelopeError("replay")
    if envelope["session_id"] != channel.session_id.hex() or envelope["nonce"] != nonce.hex():
        raise EnvelopeError("decrypt failed")
    try:
        plaintext = channel._recv.decrypt(nonce, bytes.fromhex(envelope["ciphertext"]), channel.session_id)
    except InvalidTag:
        raise EnvelopeError("decrypt failed") from None
    channel._last_recv = sequence
    return plaintext


def _sender(sequence: int, session_id: bytes = _SID, key: bytes = _C2E) -> SecureChannel:
    channel = SecureChannel(session_id, send_key=key, recv_key=_E2C)
    channel._next_send = sequence
    return channel


def _receivers() -> tuple[SecureChannel, SecureChannel]:
    """The enclave's end twice: one opens with decrypt, one with reference_open."""
    return tuple(SecureChannel(_SID, send_key=_E2C, recv_key=_C2E) for _ in range(2))


def assert_opens_alike(raws) -> None:
    """Both open paths agree on each envelope in turn, receive state included."""
    new, old = _receivers()
    for raw in raws:
        assert outcome(new.decrypt, raw) == outcome(lambda r: reference_open(old, r), raw), raw
        assert new._last_recv == old._last_recv


@given(
    st.sampled_from(_SEQUENCES) | st.integers(1, MAX_UINT),
    st.sampled_from([_SID, _FOREIGN_SID]),
    st.sampled_from([_C2E, _FOREIGN_KEY]),
    st.binary(max_size=64),
)
def test_envelope_encrypt_differential(sequence, session_id, key, plaintext):
    raw = _sender(sequence, session_id, key).encrypt(plaintext)
    assert raw == wire.encode(dict_envelope(key, session_id, sequence, plaintext))


@st.composite
def envelope_stream_st(draw):
    """Envelopes from this session or a foreign one, each with up to three edits."""
    raws = []
    for _ in range(draw(st.integers(1, 4))):
        sender = _sender(
            draw(st.sampled_from(_SEQUENCES) | st.integers(1, MAX_UINT)),
            draw(st.sampled_from([_SID, _SID, _FOREIGN_SID])),
            draw(st.sampled_from([_C2E, _C2E, _FOREIGN_KEY])),
        )
        raw = sender.encrypt(draw(st.binary(max_size=24)))
        raws.append(mutated(draw, raw))
        if draw(st.booleans()):
            raws.append(raws[-1])  # a replay, or a second try of a refused one
    return raws


@given(envelope_stream_st())
def test_envelope_open_differential(raws):
    assert_opens_alike(raws)


def _envelope_edges() -> list:
    ok = _sender(0xAB).encrypt(b"payload")  # hex letters in the nonce and session id
    fields = wire.decode(ok)
    ct, nonce = fields["ciphertext"].encode(), fields["nonce"].encode()
    sid = fields["session_id"].encode()
    seq = b"171"
    # mutations keep the rest of the envelope canonical
    spelled = lambda c=ct, n=nonce, q=seq, s=sid: wire.ENVELOPE.replace(b"%d", b"%s") % (c, n, q, s)
    raws = [
        ok,
        spelled(c=ct.upper()),
        spelled(c=ct[:-1]),
        spelled(c=ct[:-2]),  # a bad tag
        spelled(c=b""),
        spelled(c=ct[:4] + b"\\u0030" + ct[5:]),
        spelled(n=nonce.upper()),
        spelled(n=nonce[:-1]),
        spelled(n=_sequence_nonce(0xAC).hex().encode()),  # the nonce of another sequence
        spelled(q=b"0171"),
        spelled(q=b"-171"),
        spelled(q=b"171.0"),
        spelled(q=b"172"),
        spelled(q=b"1" + b"0" * 19),
        spelled(q=b"%d" % (MAX_UINT + 1)),
        spelled(s=sid.upper()),
        spelled(s=_FOREIGN_SID.hex().encode()),
        spelled(s=sid[:-2]),
        ok.replace(b',"nonce"', b', "nonce"'),
        ok + b" ",
        b" " + ok,
        ok.replace(b'"nonce"', b'"extra":1,"nonce"'),
        ok.replace(b',"nonce":"%s"' % nonce, b""),
        ok.replace(b'"type":"envelope"', b'"type":"ack"'),
        b'{"type":"ack"}',
        b'{"type":"envelope"}',
        bytearray(ok),
        b"",
    ]
    raws += [ok[:cut] for cut in (1, 15, 40, -30, -1)]
    # 20-digit sequences below 2^64 are read by the compiled reader and accepted
    raws += [_sender(sequence).encrypt(b"late") for sequence in (10**19 - 1, 10**19, MAX_UINT)]
    return raws


@pytest.mark.parametrize("raw", _envelope_edges())
def test_envelope_open_differential_edges(raw):
    assert_opens_alike([raw])


def test_envelope_open_differential_sequence_of_edges():
    # one receiver through every edge in turn: refusals must not move its state
    assert_opens_alike(_envelope_edges())


def test_envelope_codec_needs_no_json(monkeypatch):
    sender, (receiver, _) = _sender(1), _receivers()
    raws = [sender.encrypt(b"x" * n) for n in (0, 1, 1000)]
    raws += [_sender(sequence).encrypt(b"late") for sequence in (10**19, MAX_UINT)]
    forbid_json(monkeypatch)
    monkeypatch.setattr(wire, "decode", None)
    assert [receiver.decrypt(raw) for raw in raws] == [b"", b"x", b"x" * 1000, b"late", b"late"]
    assert wire.message_type(sender.encrypt(b"y")) == "envelope"


def test_decode_reads_the_largest_uint_compiled(monkeypatch):
    raw = _report_bytes(_MAX)
    monkeypatch.setattr(wire, "canonical_decode", None)
    assert wire.decode(raw) == {**_REPORT, "interval": MAX_UINT}
    assert wire.decode(bytearray(raw)) == {**_REPORT, "interval": MAX_UINT}


def _uint_numerals() -> list[bytes]:
    """Numerals of every length from 1 to 21 digits, the neighbours of 2^64-1, and near-misses."""
    numerals = [b"", b"-0", b"00", b"007", b"-1", b"+1", b" 1", b"1_0", b"1.0"]
    for length in range(1, 22):
        numerals += [b"1" + b"0" * (length - 1), b"9" * length, b"0" * length, b"0" + b"9" * (length - 1)]
        numerals += [b"%d" % (10 ** (length - 1) + 7 ** length % 10 ** (length - 1))]
    for k in [*range(1001), *(10**j for j in range(4, 20))]:
        numerals += [b"%d" % (MAX_UINT - k), b"%d" % (MAX_UINT + 1 + k)]
    # 2^64-1 with one digit raised or lowered: each branch of the grammar, and just past it
    for i, digit in enumerate(_MAX):
        for near in (digit - 1, digit + 1):
            if 0x30 <= near <= 0x39:
                numerals.append(_MAX[:i] + bytes([near]) + _MAX[i + 1 :])
    return numerals


def _is_uint_numeral(text: bytes) -> bool:
    """Whether text is the canonical numeral of a value _uint accepts."""
    try:
        value = int(text)
        wire._uint(value)
    except (ValueError, WireError):
        return False
    return wire.canonical_encode(value) == text


def test_uint_grammar_boundary():
    grammar = re.compile(wire._uint.grammar).fullmatch
    numerals = _uint_numerals()
    assert sum(map(_is_uint_numeral, numerals)) > 1000 and not all(map(_is_uint_numeral, numerals))
    for text in numerals:
        assert (grammar(text) is not None) == _is_uint_numeral(text), text


@given(
    st.one_of(
        tuple_request_st(),
        envelope_stream_st().flatmap(st.sampled_from),
        st.sampled_from(FUZZ_TYPES).flatmap(mutated_bytes_st),
    )
)
def test_message_type_differential(raw):
    """message_type names the type of every message the generic path accepts,
    and reads a bytearray as it reads bytes."""
    mtype = wire.message_type(raw)
    assert wire.message_type(bytearray(raw)) == mtype
    try:
        msg = generic_decode(raw)
    except WireError:
        return
    assert mtype == msg["type"]


# -- every encoding of a fixed-shape message takes the compiled decode grammar ------

GRAMMAR_TYPES = [t for t in wire.MESSAGE_SCHEMAS if wire._grammar(t) is not None]


def test_grammar_types():
    # every schema with a grammar but the envelope, whose ciphertext has no fixed length
    assert set(GRAMMAR_TYPES) == set(FUZZ_TYPES) - {"envelope", "gps_upload_req", "error"}
    handshake = {"attest_req", "attest_resp", "session_req", "session_resp"}
    assert {"poll_resp", "ack", "result_resp"} | handshake <= set(GRAMMAR_TYPES)


def assert_grammar_takes_encoding(msg) -> None:
    """encode() of a valid message writes bytes that its type's decode grammar
    takes whole and that decode() gives back as msg; an invalid one is refused."""
    try:
        raw = wire.encode(msg)
    except WireError:
        return
    assert wire._grammar(msg["type"])(raw), raw
    assert wire.decode(raw) == msg


@pytest.mark.parametrize("mtype", GRAMMAR_TYPES)
@given(data=st.data())
def test_encode_grammar_differential(mtype, data):
    assert_grammar_takes_encoding(data.draw(mutated_message_st(mtype)))


@pytest.mark.parametrize(
    "msg",
    [
        pytest.param(p.values[0], id=p.id)
        for p in ENCODE_EDGES
        if p.values[1][0] == "ok" and p.values[0]["type"] in GRAMMAR_TYPES
    ],
)
def test_encode_grammar_differential_edges(msg):
    assert_grammar_takes_encoding(msg)


@pytest.mark.parametrize(
    "msg",
    [m for m in SAMPLE_MESSAGES if m["type"] not in GENERIC_TYPES],
    ids=lambda m: m["type"],
)
def test_fixed_schemas_take_the_compiled_path(msg, monkeypatch):
    raw = WIRE_BYTES[msg["type"]]
    assert wire.encode(msg) == raw

    def refuse(*_args):
        raise AssertionError("generic path taken")

    for name in ("validate_message", "canonical_decode"):
        monkeypatch.setattr(wire, name, refuse)
    if msg["type"] == "envelope":
        # SecureChannel writes envelopes with wire.ENVELOPE and reads them with
        # decode_envelope; neither calls json
        forbid_json(monkeypatch)
        ciphertext, nonce, session_id = (msg[k].encode() for k in ("ciphertext", "nonce", "session_id"))
        assert wire.ENVELOPE % (ciphertext, nonce, msg["sequence"], session_id) == raw
        fields = (bytes.fromhex(msg["ciphertext"]), bytes.fromhex(msg["nonce"]), msg["sequence"])
        assert wire.decode_envelope(raw) == (*fields, bytes.fromhex(msg["session_id"]))
        return
    assert wire.decode(raw) == msg


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
    # EOF inside the body, and EOF right after the header
    for body in (b"only-some", b""):
        a, b = socket.socketpair()
        try:
            a.sendall((100).to_bytes(4, "big") + body)
            a.close()
            with pytest.raises(WireError, match="^truncated frame$"):
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
    transcript = Transcript()
    transcript.append("c2e", b"one")
    transcript.append("e2c", b"two")
    assert len(transcript) == 2
    assert transcript.messages() == [b"one", b"two"]
    assert list(transcript) == [("c2e", b"one"), ("e2c", b"two")]
