"""The sealed store: an append-only log of sealed delta records.

Covers the file format's integrity (torn tails, dropped, duplicated,
reordered and spliced records), the refusal of files that hold no
replayable log, failed writes and compactions, expiry against a
brute-force count, the cost of one change, and the service's atomic
requests under concurrent clients.
"""

import os
import random
import sys
import threading

import pytest

from cct.attestation import platform_verify_key, seal
from cct.authority import RESULT_POSITIVE, token_hash
from cct.client import EnclaveClient, LoopbackTransport, TcpTransport
from cct.contact_log import ContactTuple
from cct.enclave import _HEADER_LEN, _LOG_MAGIC, Enclave, EnclaveConfig, GpsPoint
from cct.errors import RemoteError, SealError
from cct.ident import TimeParams
from cct.service import EnclaveServer, EnclaveService
from cct.wire import canonical_decode, canonical_encode

from conftest import PLATFORM_SECRET

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


def test_log_with_an_overflowing_gps_time_refused_and_left_unchanged(
    config, path, clock, ha, monkeypatch
):
    """Versions that took any GPS time could seal one that no float holds."""
    enclave = populated(config, path, clock, ha)
    monkeypatch.setattr(GpsPoint, "__post_init__", lambda self: None)
    enclave.upload_gps_trace(token(2), [GpsPoint(lat=1.0, lon=2.0, t=10**400)])
    monkeypatch.undo()
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

def test_concurrent_uploads_over_tcp_spend_each_token_once(config, path, clock, ha):
    enclave = open_store(config, path, clock)
    clock.set_interval(0)
    tokens = [token(i) for i in range(40)]
    for tok in tokens:
        register(enclave, ha, tok)
    server = EnclaveServer(EnclaveService(enclave, PLATFORM_SECRET), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    replies: list[str] = []
    lock = threading.Lock()

    def attempts(worker: int) -> None:
        # worker w tries the tokens i with i % 4 in {w, w + 1}: two attempts each
        r = random.Random(worker)
        transport = TcpTransport("127.0.0.1", server.server_address[1])
        try:
            client = EnclaveClient(
                transport, config.measurement(), platform_verify_key(PLATFORM_SECRET)
            )
            for i, tok in enumerate(tokens):
                if i % 4 not in (worker, (worker + 1) % 4):
                    continue
                try:
                    client.upload_tuples(tok, random_tuples(r, 10, 0))
                    reply = "ack"
                except RemoteError as exc:
                    reply = exc.reason
                except Exception as exc:  # a dropped connection
                    reply = f"dropped: {exc!r}"
                with lock:
                    replies.append(reply)
        finally:
            transport.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=attempts, args=(w,)) for w in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    assert sorted(set(replies)) == ["ack", "upload already used"], replies
    assert replies.count("ack") == 40
    assert replies.count("upload already used") == 40
    assert reload_state(config, path, clock) == enclave.serialize_state()
