"""Rolling per-interval device identifiers.

Each device holds a 32-byte secret and emits a fresh 16-byte identifier per
time interval. Identifiers are the truncated HMAC-SHA256 of the interval
counter under the device secret, so a device (or the backend, in secret-upload
mode) can re-derive any past identifier, while outsiders cannot link two
intervals of the same device.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import NamedTuple

from cct import CheckedValue

SECRET_LEN = 32
IDENTIFIER_LEN = 16
DEFAULT_DELTA_T = 900
DEFAULT_RETENTION = 1344  # 14 days of 900-second intervals

# Domain-separation label for the identifier PRF; prevents reusing the device
# secret for any other derivation without an explicit new label.
_ID_LABEL = b"CCT-ID-v1"

_MAX_INDEX = 2**64 - 1
# PBKDF2 numbers its blocks with a 32-bit counter from 1 (identifier_table)
_MAX_TABLE = 2**32
_DIGEST = hashlib.sha256().digest_size

# HMAC's key pads (RFC 2104): a key shorter than SHA-256's 64-byte block is
# zero-filled, then XORed with 0x36 for the inner hash and 0x5c for the outer
_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _check_secret(secret: bytes) -> None:
    if not isinstance(secret, (bytes, bytearray)) or len(secret) != SECRET_LEN:
        raise ValueError(f"device secret must be {SECRET_LEN} bytes")


def _check_index(index: int) -> None:
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError("interval index must be an integer")
    if index < 0 or index > _MAX_INDEX:
        raise ValueError("interval index out of range")


class _TimeFields(NamedTuple):
    t0: int
    delta_t: int = DEFAULT_DELTA_T


class TimeParams(CheckedValue, _TimeFields):
    """Protocol epoch origin and interval length, both in seconds."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TimeParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if self.t0 < 0:
            raise ValueError("t0 must be non-negative")
        return self


def interval_index(t: float, params: TimeParams) -> int:
    """Map an epoch timestamp to its interval counter.

    Intervals are half-open: [t0 + k*delta_t, t0 + (k+1)*delta_t) maps to k.
    """
    if t < params.t0:
        raise ValueError("time before epoch origin")
    return int((t - params.t0) // params.delta_t)


def derive_identifier(secret: bytes, index: int) -> bytes:
    """The device's 16-byte identifier for one interval.

    First 16 bytes of HMAC-SHA256(secret, label || index as 8-byte big-endian).
    """
    _check_secret(secret)
    _check_index(index)
    mac = hmac.new(bytes(secret), _ID_LABEL + index.to_bytes(8, "big"), hashlib.sha256)
    return mac.digest()[:IDENTIFIER_LEN]


def derive_identifier_range(
    secret: bytes,
    first: int,
    last: int,
    max_range: int,
) -> list[bytes]:
    """Identifiers for every interval in [first, last], in order.

    Bounded by max_range to keep secret-upload derivation work predictable.
    Equal to derive_identifier at each index, but the key is hashed once:
    the SHA-256 states after `key⊕ipad ‖ label` and after `key⊕opad` are
    computed once and copied for each index.
    """
    _check_secret(secret)
    _check_index(first)
    _check_index(last)
    if first > last:
        raise ValueError("inverted identifier range")
    if last - first > max_range:
        raise ValueError("range too large")
    key = bytes(secret).ljust(_BLOCK, b"\0")
    inner = hashlib.sha256(key.translate(_IPAD) + _ID_LABEL)
    outer = hashlib.sha256(key.translate(_OPAD))
    identifiers = []
    for index in range(first, last + 1):
        h = inner.copy()
        h.update(index.to_bytes(8, "big"))
        mac = outer.copy()
        mac.update(h.digest())
        identifiers.append(mac.digest()[:IDENTIFIER_LEN])
    return identifiers


def identifier_table(secret: bytes, count: int) -> list[bytes]:
    """Identifiers for intervals 0..count-1, in order, from one PBKDF2 call.

    PBKDF2 with one iteration (RFC 8018 §5.2) makes block i equal to
    HMAC(P, S ‖ INT32_BE(i)). With P = secret and S = label ‖ 4 zero bytes,
    that is the identifier PRF at index i, because INT64_BE(i) is 4 zero
    bytes ‖ INT32_BE(i) for 1 ≤ i < 2^32. One `hashlib.pbkdf2_hmac` call
    therefore hashes indices 1..count-1 in C, and each identifier is the
    first 16 bytes of its 32-byte block. Block numbers start at 1, so index
    0 comes from derive_identifier; the block counter caps count at 2^32.
    Ranges that start far from 0 belong to derive_identifier_range, since
    this would hash every block before them.

    An OpenSSL FIPS provider may refuse one iteration with a 13-byte salt;
    hashlib then raises here.
    """
    _check_secret(secret)
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError("identifier count must be an integer")
    if count < 1 or count > _MAX_TABLE:
        raise ValueError("identifier count out of range")
    first = derive_identifier(secret, 0)
    if count == 1:
        # pbkdf2_hmac refuses dklen=0
        return [first]
    blocks = hashlib.pbkdf2_hmac(
        "sha256", bytes(secret), _ID_LABEL + bytes(4), 1, _DIGEST * (count - 1)
    )
    table = [first]
    table += [blocks[i : i + IDENTIFIER_LEN] for i in range(0, len(blocks), _DIGEST)]
    return table
