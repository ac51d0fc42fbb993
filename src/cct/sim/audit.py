"""Privacy audits over recorded traffic and backend state.

The transcript audit plays network eavesdropper: given everything that
crossed the wire after the handshake, it must find no trace of any device
identifier or device secret. Wire messages are ASCII JSON, so sensitive
bytes would surface in their lowercase-hex form; the audit therefore scans
for the hex rendering of every pattern (and for raw bytes in any non-ASCII
message, where they could appear verbatim).

The scan is a filter followed by an exact check, after Karp & Rabin
("Efficient randomized pattern-matching algorithms", 1987). The messages are
joined into one buffer, and numpy reads a little-endian 8-byte key at every
offset through a zero-copy stride-1 view. A multiply-shift hash of each key
indexes a boolean table marking the 8-byte prefixes of the patterns, and the
few offsets that pass are compared with the sorted prefixes. Each surviving
offset is then confirmed in Python: its window must lie wholly inside one
message and be one of the patterns. Every occurrence passes the filter and
every counted one is confirmed, so the count is that of a scan of every
window. numpy is imported only when the audit runs.

The state digest helper feeds the flush audit: sealed bytes plus serialized
long-lived state, hashed together, must be unchanged by polls.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from cct import wire
from cct.enclave import Enclave
from cct.errors import WireError

# odd multiplier of the multiply-shift prefix hash (2^64 / golden ratio)
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


def state_digest(enclave: Enclave) -> bytes:
    """One digest covering both the sealed-at-rest and in-memory state."""
    return hashlib.sha256(enclave.sealed_bytes() + enclave.serialize_state()).digest()


def _is_handshake(raw: bytes) -> bool:
    # every canonical handshake message holds one of these byte strings, so
    # only the few that do pay for the full decode
    if b'"type":"attest_' not in raw and b'"type":"session_' not in raw:
        return False
    try:
        msg = wire.canonical_decode(raw)
    except WireError:
        return False
    mtype = msg.get("type") if isinstance(msg, dict) else None
    return isinstance(mtype, str) and mtype in wire.HANDSHAKE_TYPES


def _window_hits(
    messages: list[bytes], patterns: frozenset[bytes], width: int
) -> list[tuple[int, int, bytes]]:
    """(message index, offset, window) of every pattern occurrence.

    Only patterns exactly `width` bytes long (at least 8) can occur, and an
    occurrence must lie wholly inside one message.
    """
    buf = b"".join(messages)
    if len(buf) < width:
        return []
    fitting = b"".join([p for p in patterns if len(p) == width])
    if not fitting:
        return []
    import numpy as np

    prefixes = np.sort(
        np.ndarray((len(fitting) // width,), dtype="<u8", buffer=fitting, strides=(width,))
    )
    # at most one slot in 64 is marked, so about 1.6% of unmatched keys pass,
    # up to a 16 MB table (a quarter million patterns)
    bits = min(len(prefixes).bit_length() + 6, 24)
    shift = np.uint64(64 - bits)
    multiplier = np.uint64(_HASH_MULTIPLIER)
    table = np.zeros(1 << bits, dtype=bool)
    table[(prefixes * multiplier) >> shift] = True

    keys = np.ndarray((len(buf) - width + 1,), dtype="<u8", buffer=buf, strides=(1,))
    slots = keys * multiplier
    slots >>= shift
    passed = np.flatnonzero(table[slots.view(np.intp)])
    passed_keys = keys[passed]
    nearest = np.minimum(np.searchsorted(prefixes, passed_keys), len(prefixes) - 1)
    candidates = passed[prefixes[nearest] == passed_keys]

    lengths = np.array([len(raw) for raw in messages])
    ends = np.cumsum(lengths)
    owners = np.searchsorted(ends, candidates, side="right")
    inside = candidates + width <= ends[owners]
    candidates, owners = candidates[inside], owners[inside]
    offsets = candidates - (ends - lengths)[owners]
    hits = []
    for pos, owner, offset in zip(candidates.tolist(), owners.tolist(), offsets.tolist()):
        window = buf[pos : pos + width]
        if window in patterns:
            hits.append((owner, offset, window))
    return hits


def audit_transcript(
    transcript: wire.Transcript,
    identifiers: Iterable[bytes],
    secrets: Iterable[bytes],
) -> int:
    """Count sensitive-pattern sightings in post-handshake traffic.

    Counts distinct leaked patterns per message, separately for the hex
    scan, the raw-identifier scan and the raw-secret scan; any nonzero value
    is a privacy failure. Handshake messages (attestation and session setup)
    carry no application data and are skipped.
    """
    id_raw = frozenset(bytes(i) for i in identifiers)
    id_hex = frozenset(i.hex().encode("ascii") for i in id_raw)
    sec_raw = frozenset(bytes(s) for s in secrets)
    # one 32-wide hex scan covers both: secrets are found by their 32-char
    # hex prefix, then every secret with that prefix is confirmed in full
    sec_by_prefix: dict[bytes, list[bytes]] = {}
    for secret in sec_raw:
        full = secret.hex().encode("ascii")
        sec_by_prefix.setdefault(full[:32], []).append(full)

    messages = [raw for raw in transcript.messages() if not _is_handshake(raw)]
    binary = [raw for raw in messages if not raw.isascii()]

    hex_leaks = set()
    for index, offset, hit in _window_hits(messages, id_hex | frozenset(sec_by_prefix), 32):
        if hit in id_hex:
            hex_leaks.add((index, hit))
        for full in sec_by_prefix.get(hit, ()):
            if messages[index].startswith(full, offset):
                hex_leaks.add((index, full))
    raw_id_leaks = {(index, hit) for index, _, hit in _window_hits(binary, id_raw, 16)}
    raw_sec_leaks = {(index, hit) for index, _, hit in _window_hits(binary, sec_raw, 32)}
    return len(hex_leaks) + len(raw_id_leaks) + len(raw_sec_leaks)
