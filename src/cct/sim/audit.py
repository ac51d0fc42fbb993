"""Privacy audits over recorded traffic and backend state.

A RecordingTransport wrapped around each client's transport appends every
request and response to one Transcript: the eavesdropper's record. The
transcript audit plays network eavesdropper: it scans every message that
crossed the wire, the handshake included, as bytes that it does not parse,
and must find no trace of any device identifier or device secret. Wire
messages are ASCII JSON, so sensitive bytes would surface in their
lowercase-hex form; the audit therefore scans for the hex rendering of
every pattern (and for raw bytes in any non-ASCII message, where they could
appear verbatim).

The patterns of one scan are packed end to end into one buffer of
fixed-width patterns: the run's 16-byte identifiers joined and hexed once,
with the secrets' 32-char hex prefixes appended, for the 32-wide hex scan;
the raw identifiers and the raw 32-byte secrets for the scans of non-ASCII
messages. An identifier of any other length can fill no window of these
widths, so it is left out.

The scan is a filter followed by an exact check, after Karp & Rabin
("Efficient randomized pattern-matching algorithms", 1987). The messages are
joined into one buffer, and numpy reads a little-endian 8-byte key at any
offset through a zero-copy stride-1 view. A window of a pattern's width
holds a whole key at exactly one multiple of 8 among its first 8 offsets,
so only the keys at multiples of 8 are filtered first, against the
patterns' keys at offsets 0 to 7; the 8 windows that could hold each one
that passes are then filtered against the patterns' 8-byte prefixes. Both
filters are a multiply-shift hash into a boolean table. The offsets that
pass are looked up among the sorted prefixes, paired with every pattern of
their prefix (an argsort leads back into the packed buffer) and kept when
the rest of the window equals that pattern, word by word, and lies wholly
inside one message. Every occurrence passes both filters and every kept
one is exact, so the count is that of a scan of every window. numpy is
imported only when the audit runs.

The state digest helper feeds the flush audit: sealed bytes plus serialized
long-lived state, hashed together, must be unchanged by polls.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from cct.enclave import Enclave
from cct.ident import IDENTIFIER_LEN

# odd multiplier of the multiply-shift prefix hash (2^64 / golden ratio)
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


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


class RecordingTransport:
    """Wraps any transport and appends its raw traffic to a transcript."""

    def __init__(self, inner, transcript: Transcript) -> None:
        self._inner = inner
        self._transcript = transcript

    def request(self, raw: bytes) -> bytes:
        self._transcript.append("c2e", raw)
        response = self._inner.request(raw)
        self._transcript.append("e2c", response)
        return response


def state_digest(enclave: Enclave) -> bytes:
    """One digest covering both the sealed-at-rest and in-memory state."""
    return hashlib.sha256(enclave.sealed_bytes() + enclave.serialize_state()).digest()


def _marked(keys, members):
    """Which keys hash to a slot that some member marks.

    A multiply-shift hash indexes a boolean table of 64 slots or more per
    member, capped at 2^24 slots (16 MB): every member passes, and about 1
    other key in 64 does, more past the cap.
    """
    import numpy as np

    bits = min(len(members).bit_length() + 6, 24)
    shift = np.uint64(64 - bits)
    multiplier = np.uint64(_HASH_MULTIPLIER)
    table = np.zeros(1 << bits, dtype=bool)
    table[(members * multiplier) >> shift] = True
    slots = keys * multiplier
    slots >>= shift
    return table[slots.view(np.intp)]


def _window_hits(
    messages: list[bytes], patterns: bytes, width: int
) -> list[tuple[int, int, int]]:
    """(message index, offset, pattern index) of every pattern occurrence.

    `patterns` packs patterns of `width` bytes (a multiple of 8, at least 16)
    end to end. An occurrence must lie wholly inside one message; a window
    equal to several patterns is reported once for each of them.
    """
    buf = b"".join(messages)
    if len(buf) < width or not patterns:
        return []
    import numpy as np

    count = len(patterns) // width
    pattern_words = np.ndarray((count, width // 8), dtype="<u8", buffer=patterns)
    order = np.argsort(pattern_words[:, 0])
    prefixes = pattern_words[order, 0]
    keys = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))

    # a window holds a whole key at the one multiple of 8 among its first 8
    # offsets, so a key at a multiple of 8 that is no pattern's key at
    # offset 0..7 rules out the 8 windows that could hold it
    inner = np.concatenate(
        [np.ndarray((count,), "<u8", buffer=patterns, offset=j, strides=(width,)) for j in range(8)]
    )
    hits = np.flatnonzero(_marked(keys[::8], inner)) * 8
    starts = (hits[:, None] - np.arange(8)).ravel()
    starts = starts[(starts >= 0) & (starts <= len(buf) - width)]
    passed = starts[_marked(keys[starts], prefixes)]

    # keep the offsets whose key is some pattern's prefix, with the run of
    # sorted prefixes equal to it
    passed_keys = keys[passed]
    first = np.searchsorted(prefixes, passed_keys)
    found = prefixes[np.minimum(first, len(prefixes) - 1)] == passed_keys
    passed, first, passed_keys = passed[found], first[found], passed_keys[found]
    runs = np.searchsorted(prefixes, passed_keys, side="right") - first
    # pair each offset with every pattern of its run, then compare the
    # remaining words of the window with that pattern's
    positions = np.repeat(passed, runs)
    run_starts = np.cumsum(runs) - runs
    ranks = np.arange(len(positions)) + np.repeat(first - run_starts, runs)
    pattern_index = order[ranks]
    same = np.ones(len(positions), dtype=bool)
    for word in range(1, width // 8):
        same &= keys[positions + 8 * word] == pattern_words[pattern_index, word]
    positions, pattern_index = positions[same], pattern_index[same]

    lengths = np.array([len(raw) for raw in messages])
    message_ends = np.cumsum(lengths)
    owners = np.searchsorted(message_ends, positions, side="right")
    inside = positions + width <= message_ends[owners]
    offsets = positions - (message_ends - lengths)[owners]
    return list(
        zip(owners[inside].tolist(), offsets[inside].tolist(), pattern_index[inside].tolist())
    )


def audit_transcript(
    transcript: Transcript,
    identifiers: Iterable[bytes],
    secrets: Iterable[bytes],
) -> int:
    """Count sensitive-pattern sightings in every message of the transcript.

    Counts distinct leaked patterns per message, separately for the hex
    scan, the raw-identifier scan and the raw-secret scan; any nonzero value
    is a privacy failure. Handshake messages are scanned like any other: an
    honest one holds only keys, a measurement, a signature and a session id.
    """
    # an identifier of any other length fits no 16-byte raw or 32-char hex window
    id_raw = b"".join([i for i in identifiers if len(i) == IDENTIFIER_LEN])
    id_hex = id_raw.hex().encode("ascii")
    sec_raw = [bytes(s) for s in secrets]
    # one 32-wide hex scan covers both: secrets are found by their 32-char
    # hex prefix, then every secret with that prefix is confirmed in full (a
    # secret under 16 bytes has no such prefix and fits no window)
    sec_hex = [s.hex().encode("ascii") for s in sec_raw if len(s) >= 16]
    hex_patterns = id_hex + b"".join(full[:32] for full in sec_hex)
    n_ids = len(id_raw) // IDENTIFIER_LEN

    messages = transcript.messages()
    binary = [raw for raw in messages if not raw.isascii()]

    hex_leaks = set()
    for index, offset, pattern in _window_hits(messages, hex_patterns, 32):
        if pattern < n_ids:
            hex_leaks.add((index, id_hex[32 * pattern : 32 * pattern + 32]))
        else:
            full = sec_hex[pattern - n_ids]
            if messages[index].startswith(full, offset):
                hex_leaks.add((index, full))
    raw_leaks = set()
    if binary:
        sec_32 = b"".join([s for s in sec_raw if len(s) == 32])
        for patterns, width in ((id_raw, IDENTIFIER_LEN), (sec_32, 32)):
            for index, _, pattern in _window_hits(binary, patterns, width):
                raw_leaks.add((index, patterns[width * pattern : width * pattern + width]))
    return len(hex_leaks) + len(raw_leaks)
