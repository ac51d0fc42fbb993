"""The sealed store: an append-only log of sealed delta records.

Covers the file format's integrity (torn tails, crash images of an
unfinished append, dropped, duplicated, reordered and spliced records), the
refusal of files that hold no replayable log, failed writes and
compactions, the compaction trigger at its boundary, expiry against a
brute-force count, matching and reloads against a brute-force scan of the
state, the record renderer against canonical_encode, record plaintexts
pinned by hash, the cost of one change, and the service's atomic requests
and commit order under concurrent clients.
"""

import functools
import hashlib
import os
import random
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from cct.attestation import platform_verify_key, seal, unseal
from cct.authority import RESULT_NEGATIVE, RESULT_POSITIVE, HealthAuthorityCredential, token_hash
from cct.client import EnclaveClient, LoopbackTransport, TcpTransport
from cct.contact_log import ContactTuple
from cct.enclave import (
    _HEADER_LEN,
    _LOG_MAGIC,
    Enclave,
    EnclaveConfig,
    GpsPoint,
    InfectionRecord,
    MatchResult,
    _Change,
    _read_change,
    _render,
)
from cct.errors import RemoteError, SealError
from cct.ident import TimeParams, derive_identifier
from cct.service import EnclaveServer, EnclaveService
from cct.wire import canonical_decode, canonical_encode

from conftest import HA_SEED, PLATFORM_SECRET, ManualClock

# u32 length + nonce + Poly1305 tag around each record's plaintext
FRAME_OVERHEAD = 4 + 12 + 16


def token(i: int) -> bytes:
    return i.to_bytes(4, "big") * 8


def random_tuples(r: random.Random, n: int, interval: int) -> list[ContactTuple]:
    return [ContactTuple(interval=interval, sent=r.randbytes(16), received=r.randbytes(16)) for _ in range(n)]


def register(enclave, ha, tok, interval=0):
    enclave.register_test_result(ha.sign_report(token_hash(tok), RESULT_POSITIVE, interval))


def split(raw: bytes) -> tuple[bytes, list[bytes]]:
    """A log's header and its frames."""
    assert raw.startswith(_LOG_MAGIC)
    pos, frames = _HEADER_LEN, []
    while pos < len(raw):
        end = pos + 4 + int.from_bytes(raw[pos:pos + 4], "big")
        frames.append(raw[pos:end])
        pos = end
    assert pos == len(raw)
    return raw[:_HEADER_LEN], frames


@pytest.fixture
def config(ha):
    return EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=5)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "state.sealed"


def open_store(config, path, clock):
    return Enclave(config, PLATFORM_SECRET, store_path=path, clock=clock)


def reload_state(config, path, clock) -> bytes:
    return open_store(config, path, clock).serialize_state()


def populated(config, path, clock, ha) -> Enclave:
    """A store of several records: three registers, a tuple and a GPS upload."""
    enclave = open_store(config, path, clock)
    clock.set_interval(0)
    for i in range(3):
        register(enclave, ha, token(i))
    enclave.upload_contact_log(token(0), random_tuples(random.Random(1), 5, 0))
    enclave.upload_gps_trace(token(1), [GpsPoint(lat=1.0, lon=2.0, t=10.0)])
    return enclave


# -- the file format --------------------------------------------------------------

def test_log_is_what_memory_holds(config, path, clock, ha):
    enclave = populated(config, path, clock, ha)
    raw = path.read_bytes()
    assert raw == enclave.sealed_bytes()
    header, frames = split(raw)
    assert len(frames) == 6  # the empty state, then one record per change
    assert reload_state(config, path, clock) == enclave.serialize_state()


def test_start_does_not_rewrite_the_log(config, path, clock, ha):
    populated(config, path, clock, ha)
    raw = path.read_bytes()
    reopened = open_store(config, path, clock)
    assert path.read_bytes() == raw == reopened.sealed_bytes()


@pytest.mark.parametrize("cut", [1, 3, 4, 5, 20, -1])
def test_torn_final_frame_is_cut_away(config, path, clock, ha, cut):
    enclave = open_store(config, path, clock)
    clock.set_interval(0)
    register(enclave, ha, token(0))
    register(enclave, ha, token(1))
    before = enclave.serialize_state()
    start = len(enclave.sealed_bytes())
    enclave.upload_contact_log(token(0), random_tuples(random.Random(2), 30, 0))
    raw = path.read_bytes()
    path.write_bytes(raw[: start + cut if cut > 0 else len(raw) + cut])

    reopened = open_store(config, path, clock)
    assert reopened.serialize_state() == before
    assert path.read_bytes() == raw[:start]
    # the cut record's token is unspent again, and the next append is clean
    reopened.upload_contact_log(token(0), random_tuples(random.Random(3), 7, 0))
    reopened.upload_contact_log(token(1), random_tuples(random.Random(4), 7, 0))
    assert reload_state(config, path, clock) == reopened.serialize_state()


@functools.cache
def zero_tail_log() -> tuple[EnclaveConfig, bytes, bytes]:
    """A log of three registers and one tuple upload: its config, bytes and state."""
    ha = HealthAuthorityCredential.from_seed(HA_SEED)
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=5)
    enclave = Enclave(config, PLATFORM_SECRET, clock=ManualClock())
    for i in range(3):
        register(enclave, ha, token(i))
    enclave.upload_contact_log(token(0), random_tuples(random.Random(5), 5, 0))
    return config, enclave.sealed_bytes(), enclave.serialize_state()


@settings(deadline=None)
@given(tail=st.integers(0, 8192))
def test_zero_filled_tail_is_cut_away(tail):
    """An unsynced append can leave zeros past the last record; the store starts without them."""
    config, raw, state = zero_tail_log()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "state.sealed"
        path.write_bytes(raw + bytes(tail))
        assert reload_state(config, path, ManualClock()) == state
        assert path.read_bytes() == raw


@pytest.mark.parametrize(
    "damage", ["zeros-then-byte", "long-zeros-then-byte", "bad-frame-then-zeros", "header-then-zeros"]
)
def test_zeros_after_damage_refused_and_left_unchanged(config, path, clock, ha, damage):
    raw = bytearray(populated(config, path, clock, ha).sealed_bytes())
    if damage == "zeros-then-byte":
        raw += bytes(4) + b"\x01"
    elif damage == "long-zeros-then-byte":
        raw += bytes(4096) + b"\xff"
    elif damage == "bad-frame-then-zeros":
        raw[_HEADER_LEN + len(split(bytes(raw))[1][0]) + 20] ^= 1  # inside the second frame
        raw += bytes(64)
    else:
        del raw[_HEADER_LEN:]
        raw += bytes(64)
    path.write_bytes(bytes(raw))
    with pytest.raises(SealError, match="unseal failed"):
        open_store(config, path, clock)
    assert path.read_bytes() == raw


@functools.cache
def crash_image_log() -> tuple[EnclaveConfig, bytes, bytes, bytes, bytes]:
    """Two registers, then a 30-tuple upload and a third register.

    Returns the config, the log before the upload and its state, then the
    upload's frame and the frame after it.
    """
    ha = HealthAuthorityCredential.from_seed(HA_SEED)
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=5)
    enclave = Enclave(config, PLATFORM_SECRET, clock=ManualClock())
    register(enclave, ha, token(0))
    register(enclave, ha, token(1))
    valid, state = enclave.sealed_bytes(), enclave.serialize_state()
    enclave.upload_contact_log(token(0), random_tuples(random.Random(2), 30, 0))
    upload = enclave.sealed_bytes()[len(valid):]
    register(enclave, ha, token(2))
    following = enclave.sealed_bytes()[len(valid) + len(upload):]
    return config, valid, state, upload, following


def prefix(frame: bytes, data) -> bytes:
    """The first k bytes of frame, for some k short of all of it."""
    return frame[: data.draw(st.integers(0, len(frame) - 1), "k")]


@settings(deadline=None)
@given(data=st.data(), zero_filled=st.booleans(), tail=st.integers(0, 8192))
def test_crash_image_of_an_unfinished_append_is_cut_away(data, zero_filled, tail):
    """Any prefix of an appended frame, optionally zero-filled to the frame's
    length, then optionally a zero tail: the restart cuts it all away."""
    config, valid, state, frame, _ = crash_image_log()
    written = prefix(frame, data)
    if zero_filled:
        written = written.ljust(len(frame), b"\0")
    written += bytes(tail)
    assume(written[:len(frame)] != frame)  # zeros that complete the frame finish the append
    with tempfile.TemporaryDirectory() as scratch:
        path, clock = Path(scratch) / "state.sealed", ManualClock()
        path.write_bytes(valid + written)
        reopened = open_store(config, path, clock)
        assert reopened.serialize_state() == state
        assert path.read_bytes() == valid
        # the cut record's token is unspent again, and the next append is clean
        reopened.upload_contact_log(token(0), random_tuples(random.Random(3), 7, 0))
        assert reload_state(config, path, clock) == reopened.serialize_state()


@settings(deadline=None)
@given(data=st.data(), tail=st.integers(0, 8192), byte=st.integers(1, 255))
@pytest.mark.parametrize("after", ["frame", "byte"])
def test_crash_image_with_data_after_the_frame_refused_and_left_unchanged(after, data, tail, byte):
    """A zero-filled frame followed by a valid frame, or by zeros and then a
    nonzero byte, is not an unfinished append."""
    config, valid, _, frame, following = crash_image_log()
    written = prefix(frame, data).ljust(len(frame), b"\0")
    assume(written != frame)
    raw = valid + written + (following if after == "frame" else bytes(tail) + bytes([byte]))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "state.sealed"
        path.write_bytes(raw)
        with pytest.raises(SealError, match="unseal failed"):
            open_store(config, path, ManualClock())
        assert path.read_bytes() == raw


def tampered(raw: bytes, how: str, other: bytes) -> bytes:
    header, frames = split(raw)
    if how == "drop":
        del frames[2]
    elif how == "duplicate":
        frames.insert(2, frames[2])
    elif how == "reorder":
        frames[2], frames[3] = frames[3], frames[2]
    else:
        frames[2] = split(other)[1][2]
    return header + b"".join(frames)


@pytest.mark.parametrize("how", ["drop", "duplicate", "reorder", "splice"])
def test_moved_record_refused(config, path, clock, ha, tmp_path, how):
    populated(config, path, clock, ha)
    other_path = tmp_path / "other.sealed"
    populated(config, other_path, clock, ha)
    path.write_bytes(tampered(path.read_bytes(), how, other_path.read_bytes()))
    with pytest.raises(SealError, match="unseal failed"):
        open_store(config, path, clock)


def test_flipped_bit_refused(config, path, clock, ha):
    populated(config, path, clock, ha)
    raw = bytearray(path.read_bytes())
    raw[_HEADER_LEN + 40] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(SealError, match="unseal failed"):
        open_store(config, path, clock)


def test_wrong_measurement_refused(config, path, clock, ha):
    populated(config, path, clock, ha)
    other = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=6)
    with pytest.raises(SealError, match="unseal failed"):
        open_store(other, path, clock)


# -- failed writes ------------------------------------------------------------------

def test_failed_append_is_an_error_and_changes_nothing(
    config, path, clock, ha, monkeypatch
):
    enclave = open_store(config, path, clock)
    service = EnclaveService(enclave, PLATFORM_SECRET)
    client = EnclaveClient(
        LoopbackTransport(service), config.measurement(), platform_verify_key(PLATFORM_SECRET)
    )
    clock.set_interval(0)
    register(enclave, ha, token(0))
    state, sealed = enclave.serialize_state(), enclave.sealed_bytes()
    tuples = random_tuples(random.Random(5), 10, 0)

    def fail(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(RemoteError, match="store write failed"):
        client.upload_tuples(token(0), tuples)
    monkeypatch.undo()

    assert enclave.serialize_state() == state
    assert enclave.sealed_bytes() == sealed == path.read_bytes()
    assert reload_state(config, path, clock) == state
    # the token was not spent
    client.upload_tuples(token(0), tuples)
    assert reload_state(config, path, clock) == enclave.serialize_state() != state


def expire_everything(enclave, ha) -> int:
    """Fill the store with tuples, then sweep them all: dead entries outnumber live ones."""
    register(enclave, ha, token(0))
    enclave.upload_contact_log(token(0), random_tuples(random.Random(6), 20, 0))
    return enclave.expire_store(100)


def test_failed_compaction_keeps_the_old_log(config, path, clock, ha, monkeypatch):
    enclave = open_store(config, path, clock)
    clock.set_interval(0)

    def fail(src, dst):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "replace", fail)
    assert expire_everything(enclave, ha) == 20
    monkeypatch.undo()
    assert list(path.parent.iterdir()) == [path]
    assert path.read_bytes() == enclave.sealed_bytes()
    assert len(split(path.read_bytes())[1]) == 4
    assert reload_state(config, path, clock) == enclave.serialize_state()

    # the next change compacts
    register(enclave, ha, token(1))
    assert len(split(path.read_bytes())[1]) == 1
    assert reload_state(config, path, clock) == enclave.serialize_state()


def test_expire_store_appends_only_when_something_expired(config, path, clock, ha):
    enclave = open_store(config, path, clock)
    t = ContactTuple(interval=0, sent=b"\x01" * 16, received=b"\x02" * 16)
    for k in (0, 3):  # the second upload raises the tuple's expiry from 5 to 8
        clock.set_interval(k)
        register(enclave, ha, token(k), k)
        enclave.upload_contact_log(token(k), [t])
    sealed = enclave.sealed_bytes()
    assert enclave.expire_store(6) == 0
    assert enclave.sealed_bytes() == sealed == path.read_bytes()
    assert enclave.expire_store(9) == 1
    assert reload_state(config, path, clock) == enclave.serialize_state()


def test_compaction_changes_the_file_id(config, path, clock, ha):
    enclave = open_store(config, path, clock)
    clock.set_interval(0)
    first_header = path.read_bytes()[:_HEADER_LEN]
    expire_everything(enclave, ha)
    header, frames = split(path.read_bytes())
    assert header != first_header and len(frames) == 1
    assert reload_state(config, path, clock) == enclave.serialize_state()


@pytest.mark.parametrize("swept, compacts", [(4, True), (3, False)])
def test_compaction_starts_when_dead_entries_reach_the_live_ones(config, path, clock, ha, swept, compacts):
    """Two registers, then uploads of `swept` and 4 tuples at expiries 5 and 6,
    then a sweep at 6: 2 + swept dead entries against 6 live ones."""
    enclave = open_store(config, path, clock)
    for k, n in enumerate((swept, 4)):
        clock.set_interval(k)
        register(enclave, ha, token(k))
        enclave.upload_contact_log(token(k), random_tuples(random.Random(k), n, k))
    header, frames = split(path.read_bytes())
    assert enclave.expire_store(6) == swept
    after_header, after_frames = split(path.read_bytes())
    if compacts:
        assert after_header != header and len(after_frames) == 1
    else:
        assert after_header == header and after_frames == frames + after_frames[-1:]
    assert reload_state(config, path, clock) == enclave.serialize_state()


# -- expiry against a brute-force count -------------------------------------------------

# few keys, so uploads at later intervals re-insert stored entries at a later expiry
TUPLE_POOL = [
    ContactTuple(interval=i % 3, sent=bytes([s]) * 16, received=bytes([s + 1]) * 16)
    for i, s in enumerate((1, 1, 1, 3, 5, 5))
]
SECRET_POOL = [bytes([0x40 + k]) * 32 for k in range(2)]


def expired_in_state(state: bytes, current: int) -> int:
    value = canonical_decode(state)
    entries = value["tuples"] + value["derived_ids"] + value["gps_traces"]
    return sum(entry["expiry"] < current for entry in entries)


def upload_mixed(enclave, ha, r: random.Random, tok: bytes, interval: int) -> None:
    """Register tok, then upload tuples, a secret or a GPS trace with it."""
    register(enclave, ha, tok, interval)
    kind = r.choice(("tuples", "tuples", "secret", "gps"))
    if kind == "tuples":
        enclave.upload_contact_log(tok, r.sample(TUPLE_POOL, r.randint(1, len(TUPLE_POOL))))
    elif kind == "secret":
        first = r.randint(0, 4)
        enclave.upload_secret(tok, r.choice(SECRET_POOL), first, first + r.randint(0, 3))
    else:
        enclave.upload_gps_trace(tok, [GpsPoint(lat=1.0, lon=2.0, t=float(interval))])


@pytest.mark.parametrize("seed", range(8))
def test_expire_store_counts_exactly_what_expired(config, path, clock, ha, seed):
    r = random.Random(seed)
    enclave = open_store(config, path, clock)
    interval = 0
    for k in range(40):
        interval += r.choice((0, 0, 1, 2))
        clock.set_interval(interval)
        upload_mixed(enclave, ha, r, token(1000 + k), interval)
        if r.random() < 0.2:  # a restart rebuilds the count from the log
            enclave = open_store(config, path, clock)
        current = r.randint(0, interval + config.retention + 2)
        expected = expired_in_state(enclave.serialize_state(), current)
        before = path.read_bytes()
        assert enclave.expire_store(current) == expected, k
        assert (path.read_bytes() != before) == (expected > 0), k
        assert reload_state(config, path, clock) == enclave.serialize_state(), k


# -- matching and reloads against a brute-force scan of the state ----------------------

# four pairs, one of them the swap of another, at three intervals: uploads
# repeat pairs across intervals, and later ones raise stored expiries
_A, _B, _C, _D = (bytes([k]) * 16 for k in (0xA1, 0xB2, 0xC3, 0xD4))
PAIR_POOL = [(_A, _B), (_B, _A), (_A, _C), (_D, _C)]
INTERVAL_POOL = [
    ContactTuple(interval=i, sent=s, received=r) for s, r in PAIR_POOL for i in range(3)
]
DIFF_RETENTION = 3


def _poll_pool() -> list[ContactTuple]:
    """Every pooled tuple and its swap at each interval, and one tuple per derived id."""
    tuples = [
        ContactTuple(interval=i, sent=s, received=r)
        for a, b in PAIR_POOL
        for s, r in ((a, b), (b, a))
        for i in range(4)
    ]
    derived = [derive_identifier(secret, i) for secret in SECRET_POOL for i in range(8)]
    return tuples + [ContactTuple(interval=3, sent=_D, received=r) for r in derived]


POLL_POOL = _poll_pool()


def brute_force_match(state: bytes, poll, strict: bool, current: int) -> MatchResult:
    """match_poll's answer, from a scan of every live entry of the state."""
    value = canonical_decode(state)
    tuples = [e for e in value["tuples"] if e["expiry"] >= current]
    ids = {e["id"] for e in value["derived_ids"] if e["expiry"] >= current}
    hits = []
    for t in poll:
        sent, received = t.sent.hex(), t.received.hex()
        stored = any(
            (e["sent"], e["received"]) == (received, sent)
            and (not strict or e["interval"] == t.interval)
            for e in tuples
        )
        if stored or received in ids:
            hits.append(t.interval)
    return MatchResult.from_intervals(hits)


_clock_intervals = st.integers(0, 9)  # drawn afresh each step, so time also moves back
_store_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("tuples"),
            _clock_intervals,
            st.lists(st.sampled_from(INTERVAL_POOL), min_size=1, max_size=6),  # repeats too
        ),
        st.tuples(
            st.just("secret"),
            _clock_intervals,
            st.sampled_from(SECRET_POOL),
            st.integers(0, 4),
            st.integers(0, DIFF_RETENTION),
        ),
        st.tuples(st.just("sweep"), _clock_intervals, st.integers(0, 15)),
    ),
    max_size=12,
)


def logged_entries(raw: bytes, config) -> int:
    """The entries of every record in a log."""
    header, frames = split(raw)
    file_id, count = header[len(_LOG_MAGIC):], 0
    for seq, frame in enumerate(frames):
        aad = file_id + seq.to_bytes(8, "big")
        value = canonical_decode(unseal(frame[4:], config.measurement(), PLATFORM_SECRET, aad))
        count += sum(len(value[k]) for k in ("records", "tuples", "derived_ids", "gps_traces"))
    return count


@pytest.mark.parametrize("strict", [False, True], ids=["pairs", "strict"])
@settings(deadline=None)
@given(steps=_store_steps)
def test_store_differential(strict, steps):
    ha = HealthAuthorityCredential.from_seed(HA_SEED)
    config = EnclaveConfig(
        ha_verify_key=ha.verify_key,
        time=TimeParams(t0=0),
        retention=DIFF_RETENTION,
        strict_interval_match=strict,
    )
    clock = ManualClock()
    enclave = Enclave(config, PLATFORM_SECRET, clock=clock)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "state.sealed"
        for k, (kind, interval, *args) in enumerate(steps):
            clock.set_interval(interval)
            if kind == "sweep":
                enclave.expire_store(args[0])
            else:
                register(enclave, ha, token(k), interval)
                if kind == "tuples":
                    enclave.upload_contact_log(token(k), args[0])
                else:
                    secret, first, length = args
                    enclave.upload_secret(token(k), secret, first, first + length)

            state = enclave.serialize_state()
            assert enclave.match_poll(POLL_POOL) == brute_force_match(
                state, POLL_POOL, strict, interval
            ), k
            value = canonical_decode(state)
            entries = value["tuples"] + value["derived_ids"] + value["gps_traces"]
            assert enclave._expiries == Counter(e["expiry"] for e in entries), k
            # the log layer counts every entry its records hold
            assert enclave._logged == logged_entries(enclave.sealed_bytes(), config), k
            # the pair index holds each stored pair's latest expiry; strict
            # matching never reads it, so there it stays empty
            pairs: dict[tuple[bytes, bytes], int] = {}
            for (sent, received, _), expiry in enclave._tuples.items():
                pairs[sent, received] = max(expiry, pairs.get((sent, received), expiry))
            assert enclave._pairs == ({} if strict else pairs), k
            path.write_bytes(enclave.sealed_bytes())
            assert reload_state(config, path, clock) == state, k


# -- the record renderer against canonical_encode of the dict form --------------------

def record_value(change: _Change) -> dict:
    """The value whose canonical JSON is the change's record."""
    value = {
        "derived_ids": [{"expiry": e, "id": i.hex()} for i, e in change.derived],
        "gps_traces": [
            {"expiry": e, "points": [p.to_wire() for p in points]} for e, points in change.gps
        ],
        "records": [
            {
                "interval": r.registered_interval,
                "result": r.result,
                "token_hash": r.token_hash.hex(),
                "upload_used": r.upload_used,
            }
            for r in change.records
        ],
        "tuples": [
            {"expiry": e, "interval": i, "received": r.hex(), "sent": s.hex()}
            for s, r, i, e in change.tuples
        ],
    }
    if change.sweep is not None:
        value["sweep"] = change.sweep
    return value


# 19- and 20-digit values, and few identifiers, so entries repeat
_uint_st = st.one_of(
    st.integers(0, 2**64 - 1), st.sampled_from([0, 10**18, 10**19 - 1, 10**19, 2**64 - 1])
)
_id_st = st.one_of(st.binary(min_size=16, max_size=16), st.sampled_from([bytes(16), b"\xff" * 16]))
_point_st = st.builds(
    GpsPoint,
    lat=st.one_of(st.floats(-90, 90), st.sampled_from([1e-07, -0.0, 90])),
    lon=st.floats(-180, 180, exclude_min=True),
    t=st.one_of(st.floats(0, 1e17), st.integers(0, 2**53), st.sampled_from([1e-07, 1e16])),
)
_record_st = st.builds(
    InfectionRecord,
    token_hash=st.binary(min_size=32, max_size=32),
    result=st.sampled_from([RESULT_POSITIVE, RESULT_NEGATIVE]),
    registered_interval=_uint_st,
    upload_used=st.booleans(),
)
_change_st = st.builds(
    _Change,
    records=st.lists(_record_st, max_size=3),
    tuples=st.lists(st.tuples(_id_st, _id_st, _uint_st, _uint_st), max_size=5).map(
        lambda ts: ts + ts[:1]  # a repeated tuple
    ),
    derived=st.lists(st.tuples(_id_st, _uint_st), max_size=4),
    gps=st.lists(st.tuples(_uint_st, st.lists(_point_st, min_size=1, max_size=3).map(tuple)), max_size=2),
    sweep=st.one_of(st.none(), _uint_st),
)


@settings(deadline=None)
@given(_change_st)
def test_record_renderer_differential(change):
    rendered = _render(change)
    assert rendered == canonical_encode(record_value(change))
    assert _read_change(canonical_decode(rendered)) == change


# -- the sealed log, pinned -----------------------------------------------------------

# SHA-256 of each record plaintext that pinned_sequence seals, in order (seal
# nonces are random, so the plaintexts are pinned, not the log), and of the
# final serialize_state(); taken with the earlier record writer, which built
# each record as dicts of hex and ran canonical_encode
PINNED_RECORDS = [
    "d450dc57e6973d6a428b0fa59763dcaf732ad41b12f7d877a2ae8cd8d629fa8a",
    "f9cee3ecbc9696bd10759cc0ed6e0181cff207e8f087d3ac1a746cbb32d19aee",
    "24b6405264c7f430e286c1c932b939d43752a5604191f71f66bbcf321739f398",
    "a7dd018a20f86b825a275cac4700400bbe32b671b591f644a54685fdcd719258",
    "87a91dbbc3f951d224fc13d5473f03ee5217d3d1c6efedcf738e91d08db67121",
    "5065957cc1000a41a002205952f870fa3c343b4131d80c297071adb8efb38daf",
    "56efcdffdd3a460306f5dc36d5859b386a4724656d9eb057cb73d819d6ceb9ba",
    "9cbf9f81f59785d72290daec7117ab32fa9aeccfc6f1c2762117d5147f498389",
    "0528cbe1b664c0ab9fdb6e3c82ba46e8b337de78a620dbc04c452e41f3130eb2",
    "3e641ab783294715bd9dbb4e417d1deda8a0fe789dbf84b8c0c6f08568f16d91",
]
PINNED_STATE = "3e641ab783294715bd9dbb4e417d1deda8a0fe789dbf84b8c0c6f08568f16d91"


def pinned_sequence(config, path, clock, ha) -> Enclave:
    """Register; tuples with one repeated; a secret; a GPS trace; a logged poll;
    a sweep that expires the tuples and leaves the log due for compaction."""
    clock.set_interval(0)
    enclave = Enclave(config, PLATFORM_SECRET, store_path=path, clock=clock, log_polls=True)
    for i in range(3):
        register(enclave, ha, token(i))
    tuples = random_tuples(random.Random(17), 10, 0) + [ContactTuple(2, b"\x21" * 16, b"\x12" * 16)]
    enclave.upload_contact_log(token(0), tuples + tuples[3:4])
    clock.set_interval(1)
    enclave.upload_secret(token(1), b"\x0b" * 32, 0, 2)
    trace = [GpsPoint(lat=1e-07, lon=-0.5, t=1800.0), GpsPoint(lat=45.0, lon=180.0, t=2700)]
    enclave.upload_gps_trace(token(2), trace)
    clock.set_interval(2)
    first = tuples[0]
    enclave.match_poll([(first.interval, first.received, first.sent), (2, b"\x12" * 16, b"\x21" * 16)])
    assert enclave.expire_store(6) == 11
    return enclave


def test_sealed_log_plaintexts_pinned(config, path, clock, ha, monkeypatch):
    import cct.enclave

    plaintexts = []

    def recording_seal(data, *args):
        plaintexts.append(bytes(data))
        return seal(data, *args)

    monkeypatch.setattr(cct.enclave, "seal", recording_seal)
    enclave = pinned_sequence(config, path, clock, ha)
    monkeypatch.undo()
    state = enclave.serialize_state()
    # the sweep's record, then the compaction: one record of the whole state
    assert plaintexts[-1] == state and len(split(path.read_bytes())[1]) == 1
    assert [hashlib.sha256(p).hexdigest() for p in plaintexts] == PINNED_RECORDS
    assert hashlib.sha256(state).hexdigest() == PINNED_STATE
    assert reload_state(config, path, clock) == state


# -- files that are not a replayable log ----------------------------------------------

def single_blob(config, clock, ha) -> bytes:
    """A store in the single-blob format of earlier versions: one sealed JSON object."""
    source = Enclave(config, PLATFORM_SECRET, clock=clock)
    clock.set_interval(0)
    register(source, ha, token(0))
    # that format had no associated data, which authenticates the same as b""
    sealed = seal(source.serialize_state(), config.measurement(), PLATFORM_SECRET, b"")
    return canonical_encode({"ciphertext": sealed[12:].hex(), "nonce": sealed[:12].hex()})


@pytest.mark.parametrize("content", ["single-blob", "empty", "magic-prefix", "other-magic"])
def test_non_log_file_refused_and_left_unchanged(config, path, clock, ha, content):
    if content == "single-blob":
        raw = single_blob(config, clock, ha)
    elif content == "empty":
        raw = b""
    elif content == "magic-prefix":
        raw = _LOG_MAGIC[:5]
    else:
        raw = b"CCTLOG2\n" + populated(config, path, clock, ha).sealed_bytes()[len(_LOG_MAGIC):]
    path.write_bytes(raw)
    with pytest.raises(SealError, match="unseal failed"):
        open_store(config, path, clock)
    assert path.read_bytes() == raw


@pytest.mark.parametrize("damage", ["header-only", "first-length-high-bit", "first-frame-cut"])
def test_log_without_a_complete_record_refused_and_left_unchanged(config, path, clock, ha, damage):
    raw = bytearray(populated(config, path, clock, ha).sealed_bytes())
    if damage == "header-only":
        del raw[_HEADER_LEN:]
    elif damage == "first-length-high-bit":
        raw[_HEADER_LEN] ^= 0x80  # the first frame now runs past the end of the file
    else:
        first_end = _HEADER_LEN + len(split(bytes(raw))[1][0])
        del raw[first_end - 1:]
    path.write_bytes(bytes(raw))
    with pytest.raises(SealError, match="unseal failed"):
        open_store(config, path, clock)
    assert path.read_bytes() == raw


def test_log_with_an_overflowing_gps_time_refused_and_left_unchanged(config, path, clock, ha):
    """Versions that took any GPS time could seal one that no float holds."""
    enclave = populated(config, path, clock, ha)
    # built past the checks, as such versions did
    enclave.upload_gps_trace(token(2), [tuple.__new__(GpsPoint, (1.0, 2.0, 10**400))])
    raw = path.read_bytes()
    with pytest.raises(ValueError, match="time out of range"):
        open_store(config, path, clock)
    assert path.read_bytes() == raw


# -- the cost of a change -------------------------------------------------------------

def appended_by_upload(enclave, ha, r: random.Random) -> int:
    register(enclave, ha, token(999))
    before = len(enclave.sealed_bytes())
    enclave.upload_contact_log(token(999), random_tuples(r, 500, 0))
    return len(enclave.sealed_bytes()) - before


def test_an_upload_appends_the_same_bytes_to_any_store(config, tmp_path, clock, ha):
    clock.set_interval(0)
    empty = open_store(config, tmp_path / "empty.sealed", clock)
    large = open_store(config, tmp_path / "large.sealed", clock)
    r = random.Random(8)
    for i in range(40):
        register(large, ha, token(i))
        large.upload_contact_log(token(i), random_tuples(r, 500, 0))
    assert len(large.sealed_bytes()) > 20_000 * 100
    appended = appended_by_upload(empty, ha, r)
    assert appended_by_upload(large, ha, r) == appended
    assert appended < 500 * 120  # about one canonical JSON entry per tuple


def test_changes_do_not_serialize_the_state(config, path, clock, ha, monkeypatch):
    enclave = open_store(config, path, clock)

    def refuse(self):
        raise AssertionError("serialize_state called")

    monkeypatch.setattr(Enclave, "serialize_state", refuse)
    clock.set_interval(0)
    for i in range(3):
        register(enclave, ha, token(i))
    enclave.upload_contact_log(token(0), random_tuples(random.Random(9), 5, 0))
    enclave.upload_secret(token(1), b"\x0b" * 32, 0, 3)
    enclave.upload_gps_trace(token(2), [GpsPoint(lat=0.0, lon=0.0, t=1.0)])
    monkeypatch.undo()
    assert reload_state(config, path, clock) == enclave.serialize_state()


def test_log_stays_within_twice_its_compacted_size(config, path, clock, ha):
    enclave = open_store(config, path, clock)
    r = random.Random(10)
    compactions = 0
    for k in range(50):
        clock.set_interval(k)
        register(enclave, ha, token(k), k)
        before = len(enclave.sealed_bytes())
        enclave.upload_contact_log(token(k), random_tuples(r, 50, k))
        size = len(path.read_bytes())
        if size < before:
            compactions += 1
            continue
        compacted = _HEADER_LEN + FRAME_OVERHEAD + len(enclave.serialize_state())
        assert size <= 2 * compacted + (size - before), k
        assert reload_state(config, path, clock) == enclave.serialize_state(), k
    assert compactions >= 3


# -- concurrent requests --------------------------------------------------------------

def _upload_of(i: int):
    """Token i's upload: a GPS trace for every fifth token, else contact tuples.

    Each upload is found by one poll entry of its own, which reports it
    under a value no other upload has: interval i, or the trace time.
    """
    if i % 5 == 0:
        return "gps", [GpsPoint(lat=0.0, lon=0.0, t=3600.0 * i)]
    sent, received = bytes([i, 1]) * 8, bytes([i, 2]) * 8
    return "tuples", [ContactTuple(i, sent, received)] + random_tuples(random.Random(i), 9, i)


def _polls() -> tuple[list, list]:
    """A contact poll and a GPS poll that find every upload of the concurrency test."""
    contact, trace = [], []
    for i in range(40):
        kind, entries = _upload_of(i)
        if kind == "gps":
            trace.extend(entries)
        else:
            first = entries[0]
            contact.append((first.interval, first.received, first.sent))
    return contact, trace


def own_uploads(kind: str) -> set[int]:
    """The uploads a poll of this kind can find."""
    gps = {i for i in range(40) if _upload_of(i)[0] == "gps"}
    return gps if kind == "gps" else set(range(40)) - gps


def concurrent_run(enclave, config) -> tuple[list[str], list]:
    """Four uploaders beside two pollers over TCP; every token is tried twice.

    Returns the upload replies, and per poll its kind, the uploads
    acknowledged before it was sent, those it found and those sent before
    its reply came.
    """
    tokens = [token(i) for i in range(40)]
    server = EnclaveServer(EnclaveService(enclave, PLATFORM_SECRET), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    replies: list[str] = []
    # the uploads each poll found, beside those acknowledged before it was
    # sent and those sent before its reply came
    sent: set[int] = set()
    acked: set[int] = set()
    polls: list[tuple[str, set[int], set[int], set[int]]] = []
    lock = threading.Lock()
    writing = threading.Event()
    writing.set()

    def connect() -> tuple[TcpTransport, EnclaveClient]:
        transport = TcpTransport("127.0.0.1", server.server_address[1])
        client = EnclaveClient(
            transport, config.measurement(), platform_verify_key(PLATFORM_SECRET)
        )
        return transport, client

    def attempts(worker: int) -> None:
        # worker w tries the tokens i with i % 4 in {w, w + 1}: two attempts each
        transport, client = connect()
        try:
            for i, tok in enumerate(tokens):
                if i % 4 not in (worker, (worker + 1) % 4):
                    continue
                kind, entries = _upload_of(i)
                with lock:
                    sent.add(i)
                try:
                    if kind == "gps":
                        client.upload_gps(tok, entries)
                    else:
                        client.upload_tuples(tok, entries)
                    reply = "ack"
                except RemoteError as exc:
                    reply = exc.reason
                except Exception as exc:  # a dropped connection
                    reply = f"dropped: {exc!r}"
                with lock:
                    replies.append(reply)
                    if reply == "ack":
                        acked.add(i)
        finally:
            transport.close()

    contact_poll, gps_poll = _polls()

    def poll_once(client: EnclaveClient, kind: str) -> None:
        with lock:
            before = set(acked)
        if kind == "gps":
            found = {int(t) // 3600 for t, _ in client.poll_gps(gps_poll)}
        else:
            found = set(client.poll(contact_poll).matched_intervals)
        with lock:
            polls.append((kind, before, found, set(sent)))

    def reads() -> None:
        transport, client = connect()
        try:
            while writing.is_set():
                poll_once(client, "contact")
                poll_once(client, "gps")
            poll_once(client, "contact")
            poll_once(client, "gps")
        finally:
            transport.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reads) for _ in range(2)]
        workers = [threading.Thread(target=attempts, args=(w,)) for w in range(4)]
        for t in readers + workers:
            t.start()
        for w in workers:
            w.join(timeout=60)
        writing.clear()
        for r in readers:
            r.join(timeout=60)
        assert not any(t.is_alive() for t in readers + workers)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return replies, polls


def registered_store(config, path, clock, ha) -> Enclave:
    enclave = open_store(config, path, clock)
    clock.set_interval(0)
    for i in range(40):
        register(enclave, ha, token(i))
    return enclave


def test_concurrent_uploads_over_tcp_spend_each_token_once(config, path, clock, ha):
    enclave = registered_store(config, path, clock, ha)
    replies, polls = concurrent_run(enclave, config)
    assert sorted(set(replies)) == ["ack", "upload already used"], replies
    assert replies.count("ack") == 40
    assert replies.count("upload already used") == 40
    # each poll answers for a state between its send and its reply: every
    # upload acknowledged before it, and only uploads already sent
    for kind, before, found, sent_by_reply in polls:
        own = own_uploads(kind)
        assert before & own <= found <= sent_by_reply & own, (kind, before, found)
    # each reader's last two polls were sent after every upload was acknowledged
    assert sum(before == set(range(40)) for _, before, _, _ in polls) >= 4
    assert reload_state(config, path, clock) == enclave.serialize_state()


def test_concurrent_polls_answer_for_a_prefix_of_the_commit_order(config, path, clock, ha):
    enclave = registered_store(config, path, clock, ha)
    by_hash = {token_hash(token(i)): i for i in range(40)}
    committed: list[int] = []  # the uploads, in the order their records were appended
    persist = enclave._persist

    def recording(change):
        persist(change)
        committed.extend(by_hash[r.token_hash] for r in change.records if r.upload_used)

    enclave._persist = recording
    replies, polls = concurrent_run(enclave, config)
    assert replies.count("ack") == 40 and sorted(committed) == list(range(40))
    # each answer is the matches of the uploads committed before some point
    for kind, _, found, _ in polls:
        own = own_uploads(kind)
        prefixes = [set(committed[:n]) & own for n in range(41)]
        assert found in prefixes, (kind, found)
