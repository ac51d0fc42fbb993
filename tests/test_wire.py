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
