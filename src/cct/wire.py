"""Canonical message encoding, schemas, framing, and transcripts.

Canonical JSON rules (normative for cross-implementation compatibility):
keys sorted ascending bytewise, no insignificant whitespace, every byte
field rendered as lowercase hex, integers in base-10 without leading zeros,
no NaN/Infinity. Only canonical bytes decode, which makes the encoding
injective over message values.

encode() and decode() run a compiled path first. Every schema whose fields
all have one fixed canonical form (hex of a fixed length, uints, booleans,
enums, arrays and objects of those) is compiled on first use into a grammar
over its canonical bytes. "type" sorts after every other field, so the
trailing `"type":"…"}` picks the grammar. A fullmatch proves the bytes
canonical and the value valid: decode() then only needs json.loads, and
encode() checks canonical_encode's output with the same fullmatch. The
envelope needs no json at all: it is built as one bytes join and read with
one small regex plus a hex check of the ciphertext. Anything the compiled
path does not match (the GPS messages, `error`, a 20-digit uint, any
malformed input) takes the generic path: decode() parses, re-encodes and
rejects any input whose bytes differ, then validates; encode() validates,
then encodes. Both paths accept the same values and give the same errors.

Transport framing is a 4-byte big-endian length prefix followed by the
message body; it works identically over TCP sockets and in-process channels.
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
from typing import Any, Callable, Iterable, Iterator

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

def canonical_encode(value: Any) -> bytes:
    """Serialize a JSON value to its unique canonical byte form."""
    try:
        text = json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
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


def _fits_float(v: int | float) -> bool:
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


def read_object(value: Any, template: dict, required: Iterable[str], what: str) -> dict:
    """`template` overlaid with a hand-written JSON object, once it is checked.

    `template` is a record's to_value() with its optional fields at their
    defaults. The object may hold only the template's keys, must hold each
    `required` one, and each value must have the type of the template's (an
    int passes for a float if it converts to one). Raises ValueError naming
    the offending field.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(value) - set(template)
    if unknown:
        raise ValueError(f"unknown {what} field: {sorted(unknown)[0]}")
    missing = set(required) - set(value)
    if missing:
        raise ValueError(f"missing {what} field: {sorted(missing)[0]}")
    for name, v in value.items():
        want, got = type(template[name]), type(v)
        if got is not want and not (want is float and got is int):
            raise ValueError(f"{what} field {name}: expected {want.__name__}, got {got.__name__}")
        if want is float and not _fits_float(v):
            raise ValueError(f"{what} field {name}: number out of range")
    return {**template, **value}


def read_key(value: dict, name: str, what: str) -> bytes | None:
    """The 32-byte key in hex field `name` of a hand-written object, None if absent."""
    if name not in value:
        return None
    try:
        key = bytes.fromhex(value[name])
    except ValueError:
        raise ValueError(f"{what} field {name}: not hex") from None
    if len(key) != 32:
        raise ValueError(f"{what} field {name}: expected 32 bytes, got {len(key)}")
    return key


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


# every 19-digit number is below 2^64; a 20-digit one takes the generic path,
# so the exact bound is checked in _uint alone
_uint.grammar = rb"(?:0|[1-9][0-9]{0,18})"


def _number(v: Any) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise WireError("expected number")
    if isinstance(v, float) and not math.isfinite(v):
        raise WireError("expected finite number")
    if isinstance(v, int) and not _fits_float(v):
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

# reusable validators for nested entries stored in files
validate_tuple_entry = _obj(TUPLE_FIELDS)
validate_gps_point = _obj(GPS_POINT_FIELDS)

# the plaintext handshake; every other exchange after it is enveloped
HANDSHAKE_TYPES = frozenset({"attest_req", "attest_resp", "session_req", "session_resp"})

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
    if mtype not in MESSAGE_SCHEMAS:
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
# the only field types the compiled encode path takes: a tuple renders as an
# array, and a subclass may compare unlike its value, so either could match a
# grammar and still fail validate_message
_PLAIN_TYPES = frozenset({str, int, bool, list})


@functools.cache
def _grammar(mtype: str) -> Callable[[bytes], Any] | None:
    """fullmatch for the canonical bytes of every valid `mtype` message, if it has one."""
    pattern = _object_grammar({**MESSAGE_SCHEMAS[mtype], "type": _enum(mtype)})
    return None if pattern is None else re.compile(pattern).fullmatch


_ENVELOPE_HEAD = b'{"ciphertext":"'
# everything after the ciphertext; the ciphertext itself is checked with
# bytes.translate, which runs about 15x faster than a regex over its hex
_envelope_rest = re.compile(
    rb'","nonce":"([0-9a-f]{24})","sequence":(%s),"session_id":"([0-9a-f]{32})","type":"envelope"\}'
    % _uint.grammar
).fullmatch


def _encode_envelope(msg: dict) -> bytes | None:
    """The canonical envelope, or None when msg is not plainly a valid one."""
    ciphertext, nonce = msg.get("ciphertext"), msg.get("nonce")
    sequence, session_id = msg.get("sequence"), msg.get("session_id")
    if not (
        len(msg) == 5
        and type(ciphertext) is str
        and type(nonce) is str
        and type(session_id) is str
        and type(sequence) is int
        and 0 <= sequence <= _MAX_UINT
        and ciphertext.isascii()
        and nonce.isascii()
        and session_id.isascii()
    ):
        return None
    ct, n, sid = ciphertext.encode("ascii"), nonce.encode("ascii"), session_id.encode("ascii")
    if (
        len(ct) % 2
        or len(n) != 24
        or len(sid) != 32
        or ct.translate(None, _HEX_DIGITS)
        or n.translate(None, _HEX_DIGITS)
        or sid.translate(None, _HEX_DIGITS)
    ):
        return None
    return b"".join(
        (
            _ENVELOPE_HEAD, ct, b'","nonce":"', n, b'","sequence":', b"%d" % sequence,
            b',"session_id":"', sid, b'","type":"envelope"}',
        )
    )


def _decode_envelope(raw: bytes) -> dict | None:
    """The envelope in canonical bytes, or None when raw is not plainly one."""
    if not raw.startswith(_ENVELOPE_HEAD):
        return None
    end = raw.find(b'"', len(_ENVELOPE_HEAD))
    rest = _envelope_rest(raw, end) if end > 0 else None
    ct = raw[len(_ENVELOPE_HEAD) : end]
    if rest is None or len(ct) % 2 or ct.translate(None, _HEX_DIGITS):
        return None
    return {
        "ciphertext": ct.decode("ascii"),
        "nonce": rest[1].decode("ascii"),
        "sequence": int(rest[2]),
        "session_id": rest[3].decode("ascii"),
        "type": "envelope",
    }


def _encode_compiled(mtype: str, msg: dict) -> bytes | None:
    """The canonical bytes, or None when msg is not plainly a valid `mtype` message."""
    grammar = _grammar(mtype) if mtype in MESSAGE_SCHEMAS else None
    if grammar is None or not all(type(v) in _PLAIN_TYPES for v in msg.values()):
        return None
    try:
        raw = canonical_encode(msg)
    except WireError:
        return None  # the generic path raises the error validate_message finds first
    return raw if grammar(raw) else None


def encode(msg: dict) -> bytes:
    """Canonical bytes for a message; raises WireError on schema violations."""
    mtype = msg.get("type") if type(msg) is dict else None
    if type(mtype) is str:
        raw = _encode_envelope(msg) if mtype == "envelope" else _encode_compiled(mtype, msg)
        if raw is not None:
            return raw
    validate_message(msg)
    return canonical_encode(msg)


def decode(raw: bytes) -> dict:
    """Parse and validate a message from canonical bytes."""
    # other buffers (a bytearray slice is not hashable) take the generic path
    mtype = _TYPE_BY_TAIL.get(raw[raw.rfind(b'"type":') :]) if type(raw) is bytes else None
    if mtype == "envelope":
        msg = _decode_envelope(raw)
        if msg is not None:
            return msg
    elif mtype is not None:
        grammar = _grammar(mtype)
        if grammar is not None and grammar(raw):
            return json.loads(raw)
    value = canonical_decode(raw)
    validate_message(value)
    return value


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


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------

class Transcript:
    """Append-only record of every message crossing the network.

    This is exactly what a network eavesdropper (or the backend operator
    watching traffic) observes; the privacy audits run against it.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, bytes]] = []

    def append(self, direction: str, raw: bytes) -> None:
        self._entries.append((direction, bytes(raw)))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[str, bytes]]:
        return iter(self._entries)

    def messages(self) -> list[bytes]:
        return [raw for _, raw in self._entries]
