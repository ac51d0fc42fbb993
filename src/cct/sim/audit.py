"""Privacy audits over recorded traffic and backend state.

The transcript audit plays network eavesdropper: given everything that
crossed the wire after the handshake, it must find no trace of any device
identifier or device secret. Wire messages are ASCII JSON, so sensitive
bytes would surface in their lowercase-hex form; the audit therefore scans
for the hex rendering of every pattern (and for raw bytes in any non-ASCII
message, where they could appear verbatim).

The state digest helper feeds the flush audit: sealed bytes plus serialized
long-lived state, hashed together, must be unchanged by polls.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from cct import wire
from cct.enclave import Enclave
from cct.errors import WireError


def state_digest(enclave: Enclave) -> bytes:
    """One digest covering both the sealed-at-rest and in-memory state."""
    return hashlib.sha256(enclave.sealed_bytes() + enclave.serialize_state()).digest()


def _message_type(raw: bytes) -> str | None:
    try:
        msg = wire.canonical_decode(raw)
    except WireError:
        return None
    if isinstance(msg, dict) and isinstance(msg.get("type"), str):
        return msg["type"]
    return None


def _window_hits(raw: bytes, patterns: frozenset[bytes], width: int) -> int:
    if not patterns or len(raw) < width:
        return 0
    windows = {raw[i : i + width] for i in range(len(raw) - width + 1)}
    return len(windows & patterns)


def audit_transcript(
    transcript: wire.Transcript,
    identifiers: Iterable[bytes],
    secrets: Iterable[bytes],
) -> int:
    """Count sensitive-pattern sightings in post-handshake traffic.

    Counts distinct leaked substrings per message; any nonzero value is a
    privacy failure. Handshake messages (attestation and session setup)
    carry no application data and are skipped.
    """
    id_raw = frozenset(bytes(i) for i in identifiers)
    id_hex = frozenset(i.hex().encode("ascii") for i in id_raw)
    secret_list = [bytes(s) for s in secrets]
    sec_hex = frozenset(s.hex().encode("ascii") for s in secret_list)
    # one 32-wide scan covers both: secrets are checked via their 32-char
    # hex prefix, then confirmed at full width (never hit on honest runs)
    sec_prefix = {p[:32]: p for p in sec_hex}
    scan32 = id_hex | frozenset(sec_prefix)
    sec_raw = frozenset(secret_list)

    leaks = 0
    for raw in transcript.messages():
        if _message_type(raw) in wire.HANDSHAKE_TYPES:
            continue
        if len(raw) >= 32:
            windows = {raw[i : i + 32] for i in range(len(raw) - 31)}
            for hit in windows & scan32:
                if hit in id_hex:
                    leaks += 1
                elif sec_prefix[hit] in raw:
                    leaks += 1
        if not raw.isascii():
            leaks += _window_hits(raw, id_raw, 16)
            leaks += _window_hits(raw, sec_raw, 32)
    return leaks
