"""Canonical message encoding, schemas, and framing.

Canonical JSON rules (normative for cross-implementation compatibility):
keys sorted ascending bytewise, no insignificant whitespace, every byte
field rendered as lowercase hex, integers in base-10 without leading zeros,
no NaN/Infinity. Only canonical bytes decode, which makes the encoding
injective over message values.

encode() validates a message, then writes it with canonical_encode(), one
JSON encoder built at import. decode() runs a compiled path first. Every
schema whose fields all have one fixed canonical form (hex of a fixed
length, uints, booleans, enums, arrays and objects of those) is compiled on
first use, from the `grammar` that each field validator carries, into a
grammar over its canonical bytes. The grammars are exact: a uint's takes the
numerals of 0..2^64-1 and no others, so each takes exactly the canonical
bytes of the valid messages of its type. "type" sorts after every other
field, and message_type(), the one reader of the trailing `"type":"…"}`,
picks the grammar. A fullmatch proves the bytes canonical and the value
valid: decode() then only needs json.loads. decode_tuples() reads the poll
and upload requests, which the client writes straight from its tuples
(`cct.client.encode_tuples`), with the grammar's fullmatch and one findall.
The envelope, whose ciphertext has no fixed length, is written by
SecureChannel as one %-join of ENVELOPE, and decode_envelope(), the one
envelope parser, reads it with one small regex plus a hex check of the
ciphertext, with no json and no dict. These two readers have no second
path: what they refuse, decode() refuses too, and they raise its WireError.
Anything else a grammar does not match (the GPS messages, `error`, any
malformed input) takes the generic path: decode() parses, re-encodes and
rejects any input whose bytes differ, then validates. Both paths accept the
same values and give the same errors.

Transport framing is a 4-byte big-endian length prefix followed by the
message body; it works identically over TCP sockets and in-process channels.
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
from binascii import unhexlify
from typing import Any, Callable

from cct.errors import WireError

MAX_FRAME = 16 * 1024 * 1024
_MAX_UINT = 2**64 - 1

# a one-character class repeats in sre's fast loop; a repeated pair group
# such as (?:[0-9a-f]{2})* ran 2-7x slower than this from 64 to 1M chars
_hex_chars = re.compile("[0-9a-f]*").fullmatch
_HEX_DIGITS = b"0123456789abcdef"


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

# built once: json.dumps with any option builds a new encoder on every call
_json_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def canonical_encode(value: Any) -> bytes:
    """Serialize a JSON value to its unique canonical byte form."""
    try:
        text = _json_encode(value)
    except (TypeError, ValueError) as exc:
        raise WireError(f"value not canonically encodable: {exc}") from exc
    except RecursionError:
        raise WireError("value not canonically encodable: nested too deeply") from None
    return text.encode("ascii")


def _reject_constant(_name: str) -> None:
    raise WireError("non-finite numbers are not canonical")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise WireError(f"number out of range: {literal}")
    return value


def fits_float(v: int | float) -> bool:
    """Whether a number converts to a float, as every number field is used as one."""
    try:
        float(v)
    except OverflowError:
        return False
    return True


def canonical_decode(raw: bytes) -> Any:
    """Parse canonical JSON, rejecting any non-canonical byte form."""
    value = lenient_decode(raw)
    if canonical_encode(value) != raw:
        raise WireError("non-canonical encoding")
    return value


def lenient_decode(raw: bytes) -> Any:
    """Parse ordinary JSON (still no NaN/Infinity).

    For local files people write by hand: deployment configs, scenarios,
    logs, traces. Canonical byte form is only enforced on the wire, where
    injectivity matters.
    """
    try:
        text = raw.decode("utf-8")
        return json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    except WireError:
        raise
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # json recurses once per nesting level; a deep enough input exhausts the stack
        raise WireError("invalid JSON: nested too deeply") from None


# ---------------------------------------------------------------------------
# Field validators
# ---------------------------------------------------------------------------

Validator = Callable[[Any], None]


def _hex_field(nbytes: int | None) -> Validator:
    def check(v: Any) -> None:
        if not isinstance(v, str):
            raise WireError("expected hex string")
        if nbytes is not None and len(v) != 2 * nbytes:
            raise WireError(f"expected {2 * nbytes} hex chars, got {len(v)}")
        if len(v) % 2 != 0 or not _hex_chars(v):
            raise WireError("not lowercase hex")

    check.grammar = None if nbytes is None else rb'"[0-9a-f]{%d}"' % (2 * nbytes)
    return check


def _uint(v: Any) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= _MAX_UINT:
        raise WireError("expected unsigned 64-bit integer")


def _numerals(top: int) -> bytes:
    """A grammar of exactly the canonical numerals of 0..top, for top >= 10: the
    shorter ones, and those of its length that first differ from it by a lower digit."""
    digits = b"%d" % top
    branches = [b"0", b"[1-9][0-9]{0,%d}" % (len(digits) - 2)]
    for i, digit in enumerate(digits):
        low = 0x31 if i == 0 else 0x30  # no leading zero
        if digit > low:
            branches.append(b"%s[%c-%c][0-9]{%d}" % (digits[:i], low, digit - 1, len(digits) - i - 1))
    return b"(?:%s)" % b"|".join(branches + [digits])


_uint.grammar = _numerals(_MAX_UINT)


def _number(v: Any) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise WireError("expected number")
    if isinstance(v, float) and not math.isfinite(v):
        raise WireError("expected finite number")
    if isinstance(v, int) and not fits_float(v):
        raise WireError("number out of range")


_number.grammar = None  # a float has many spellings that decode to one value


def _boolean(v: Any) -> None:
    if not isinstance(v, bool):
        raise WireError("expected boolean")


_boolean.grammar = rb"(?:true|false)"


def _string(v: Any) -> None:
    if not isinstance(v, str):
        raise WireError("expected string")


_string.grammar = None


def _enum(*allowed: str) -> Validator:
    def check(v: Any) -> None:
        if v not in allowed:
            raise WireError(f"expected one of {allowed}")

    check.grammar = b"(?:%s)" % b"|".join(re.escape(canonical_encode(a)) for a in allowed)
    return check


def _array(item: Validator) -> Validator:
    def check(v: Any) -> None:
        if not isinstance(v, list):
            raise WireError("expected array")
        for elem in v:
            item(elem)

    g = item.grammar
    check.grammar = None if g is None else rb"\[(?:%s(?:,%s)*)?\]" % (g, g)
    return check


def _obj(schema: dict[str, Validator]) -> Validator:
    def check(v: Any) -> None:
        if not isinstance(v, dict):
            raise WireError("expected object")
        if set(v) != set(schema):
            raise WireError(f"expected fields {sorted(schema)}, got {sorted(v)}")
        for name, validator in schema.items():
            validator(v[name])

    check.grammar = _object_grammar(schema)
    return check


def _object_grammar(schema: dict[str, Validator]) -> bytes | None:
    """The canonical bytes of every valid object, or None if some field has no grammar."""
    members = []
    for name in sorted(schema):
        g = schema[name].grammar
        if g is None:
            return None
        members.append(re.escape(canonical_encode(name)) + b":" + g)
    return rb"\{%s\}" % b",".join(members)


TUPLE_FIELDS = {"interval": _uint, "received": _hex_field(16), "sent": _hex_field(16)}
GPS_POINT_FIELDS = {"lat": _number, "lon": _number, "t": _number}
_EVENT_FIELDS = {"t_infected": _number, "t_poller": _number}

MESSAGE_SCHEMAS: dict[str, dict[str, Validator]] = {
    "attest_req": {},
    "attest_resp": {
        "enclave_session_pub": _hex_field(32),
        "measurement": _hex_field(32),
        "platform_signature": _hex_field(64),
    },
    "session_req": {
        "client_session_pub": _hex_field(32),
        "enclave_session_pub": _hex_field(32),
    },
    "session_resp": {"session_id": _hex_field(16)},
    "report_req": {
        "interval": _uint,
        "result": _enum("positive", "negative"),
        "signature": _hex_field(64),
        "token_hash": _hex_field(32),
    },
    "result_req": {"token": _hex_field(32)},
    "result_resp": {"result": _enum("positive", "negative", "unknown")},
    "upload_req": {"token": _hex_field(32), "tuples": _array(_obj(TUPLE_FIELDS))},
    "secret_upload_req": {
        "from_interval": _uint,
        "secret": _hex_field(32),
        "to_interval": _uint,
        "token": _hex_field(32),
    },
    "poll_req": {"tuples": _array(_obj(TUPLE_FIELDS))},
    "poll_resp": {"matched": _boolean, "matched_intervals": _array(_uint)},
    "gps_upload_req": {
        "token": _hex_field(32),
        "trace": _array(_obj(GPS_POINT_FIELDS)),
    },
    "gps_poll_req": {
        "d_max": _number,
        "tau": _number,
        "trace": _array(_obj(GPS_POINT_FIELDS)),
    },
    "gps_poll_resp": {"events": _array(_obj(_EVENT_FIELDS))},
    "ack": {},
    "error": {"reason": _string},
    "envelope": {
        "ciphertext": _hex_field(None),
        "nonce": _hex_field(12),
        "sequence": _uint,
        "session_id": _hex_field(16),
    },
}


def validate_message(msg: dict) -> None:
    if not isinstance(msg, dict):
        raise WireError("message must be an object")
    mtype = msg.get("type")
    if not isinstance(mtype, str) or mtype not in MESSAGE_SCHEMAS:
        raise WireError(f"unknown message type: {mtype!r}")
    schema = MESSAGE_SCHEMAS[mtype]
    fields = {k: v for k, v in msg.items() if k != "type"}
    if set(fields) != set(schema):
        missing = set(schema) - set(fields)
        extra = set(fields) - set(schema)
        raise WireError(
            f"bad fields for {mtype}: missing {sorted(missing)}, extra {sorted(extra)}"
        )
    for name, validator in schema.items():
        try:
            validator(fields[name])
        except WireError as exc:
            raise WireError(f"{mtype}.{name}: {exc}") from None


# ---------------------------------------------------------------------------
# Compiled codec
# ---------------------------------------------------------------------------

# the last member of every canonical message, as "type" sorts after every field
_TYPE_BY_TAIL = {b'"type":%s}' % canonical_encode(t): t for t in MESSAGE_SCHEMAS}
# the canonical envelope of (ciphertext hex, nonce hex, sequence, session id hex)
ENVELOPE = b'{"ciphertext":"%s","nonce":"%s","sequence":%d,"session_id":"%s","type":"envelope"}'
_ENVELOPE_HEAD = b'{"ciphertext":"'


def message_type(raw: bytes) -> str | None:
    """The type that raw's last member names, if raw ends as a canonical message does.

    The one reader of a message's type tail; only a reader of that type
    proves the rest of raw canonical.
    """
    return _TYPE_BY_TAIL.get(bytes(raw[raw.rfind(b'"type":') :]))


def envelope_session(raw: bytes) -> bytes | None:
    """The session id read where a canonical envelope holds it; None if that is not hex.

    Only decode_envelope proves raw an envelope.
    """
    try:
        # its 32 hex digits end just before the `","type":"envelope"}` tail
        return unhexlify(raw[-52:-20])
    except ValueError:
        return None


@functools.cache
def _grammar(mtype: str) -> Callable[[bytes], Any] | None:
    """fullmatch for the canonical bytes of every valid `mtype` message, if it has one."""
    pattern = _object_grammar({**MESSAGE_SCHEMAS[mtype], "type": _enum(mtype)})
    return None if pattern is None else re.compile(pattern).fullmatch


@functools.cache
def _envelope_rest() -> Callable[[bytes, int], Any]:
    """fullmatch of everything after an envelope's ciphertext, from the quote that ends it.

    The ciphertext itself is checked with bytes.translate, which runs about
    15x faster than a regex over its hex.
    """
    return re.compile(
        rb'","nonce":"([0-9a-f]{24})","sequence":(%s),"session_id":"([0-9a-f]{32})","type":"envelope"\}'
        % _uint.grammar
    ).fullmatch


def decode_envelope(raw: bytes) -> tuple[bytes, bytes, int, bytes]:
    """The (ciphertext, nonce, sequence, session id) of an envelope in canonical bytes.

    The one envelope parser: one regex, a hex check and unhexlify, with no
    json and no dict, read exactly the canonical envelopes. Anything else is
    refused with decode()'s WireError, or, if it is a valid message of
    another type, with `expected envelope, got <type>`.
    """
    if raw.startswith(_ENVELOPE_HEAD):
        end = raw.find(b'"', len(_ENVELOPE_HEAD))
        rest = _envelope_rest()(raw, end) if end > 0 else None
        ciphertext = raw[len(_ENVELOPE_HEAD) : end]
        if rest is not None and not (len(ciphertext) % 2 or ciphertext.translate(None, _HEX_DIGITS)):
            return unhexlify(ciphertext), unhexlify(rest[1]), int(rest[2]), unhexlify(rest[3])
    raise WireError(f"expected envelope, got {decode(raw)['type']}")


def encode(msg: dict) -> bytes:
    """Canonical bytes for a message; raises WireError on schema violations."""
    validate_message(msg)
    return canonical_encode(msg)


def decode(raw: bytes) -> dict:
    """Parse and validate a message from canonical bytes."""
    mtype = message_type(raw)
    grammar = None if mtype is None else _grammar(mtype)
    if grammar is not None and grammar(raw):
        return json.loads(raw)
    value = canonical_decode(raw)
    validate_message(value)
    return value


@functools.cache
def _tuple_entries() -> Callable[[bytes], list[tuple[bytes, bytes, bytes]]]:
    """findall of (interval, received hex, sent hex) over bytes the grammar matched.

    The fullmatch has checked every field, so this only cuts them out; `.`
    runs about 2.5x faster here than the hex class.
    """
    return re.compile(rb'"interval":([0-9]+),"received":"(.{32})","sent":"(.{32})"').findall


def decode_tuples(raw: bytes) -> tuple[bytes | None, list[tuple[int, bytes, bytes]]]:
    """The token (None for a poll_req) and the (interval, sent, received)
    tuples of a poll_req or upload_req; inverse of `cct.client.encode_tuples`.

    The compiled grammar's fullmatch, which takes exactly the canonical
    requests, proves the bytes valid; one findall then reads the tuples,
    with no json and no dicts. Anything else is refused with decode()'s
    WireError, or, if it is a valid message of another type, with `expected
    poll_req or upload_req, got <type>`. A tuple whose identifiers are equal
    is refused with ValueError("self-contact").
    """
    mtype = message_type(raw)
    if mtype not in ("poll_req", "upload_req") or not _grammar(mtype)(raw):
        raise WireError(f"expected poll_req or upload_req, got {decode(raw)['type']}")
    token = None if mtype == "poll_req" else unhexlify(raw[10:74])  # after {"token":"
    tuples = [
        (int(interval), unhexlify(sent), unhexlify(received))
        for interval, received, sent in _tuple_entries()(raw)
    ]
    if any(sent == received for _, sent, received in tuples):
        raise ValueError("self-contact")
    return token, tuples


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def send_frame(sock, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise WireError("frame too large")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise WireError("frame too large")
    body = _recv_exact(sock, length)
    if body is None:
        raise WireError("truncated frame")
    return body
