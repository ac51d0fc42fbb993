import re
import socket
import struct
import sys
import threading
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import enclave as enclave_module
from cct import wire
from cct.attestation import (
    AttestationQuote,
    establish_session,
    platform_verify_key,
)
from cct.client import EnclaveClient, LoopbackTransport, TcpTransport
from cct.contact_log import ContactTuple
from cct.enclave import RESULT_POSITIVE, Enclave, EnclaveService, GpsPoint, token_hash
from cct.errors import AttestationError, ProtocolError, RemoteError
from cct.ident import derive_identifier
from cct.service import EnclaveServer
from cct.sim.audit import RecordingTransport, Transcript, state_digest
from cct.wire import canonical_encode

from conftest import PLATFORM_SECRET, TRUSTED, run_fresh

TOKEN = b"\x21" * 32
SECRET_A = b"\x0a" * 32
SECRET_C = b"\x0c" * 32


@pytest.fixture
def service(enclave):
    return EnclaveService(enclave, PLATFORM_SECRET)


@pytest.fixture
def client(service, enclave_config):
    return EnclaveClient(
        LoopbackTransport(service),
        enclave_config.measurement(),
        platform_verify_key(PLATFORM_SECRET),
    )


@pytest.fixture
def tcp_port(service):
    """Serves `service` over TCP on a free loopback port for one test."""
    server = EnclaveServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def manual_handshake(service):
    """Drive the handshake at the raw message level."""
    resp = wire.decode(service.handle(wire.encode({"type": "attest_req"})))
    assert resp["type"] == "attest_resp"
    quote = AttestationQuote.from_wire(resp)
    private = X25519PrivateKey.generate()
    channel = establish_session(private, quote)
    resp = wire.decode(
        service.handle(
            wire.encode(
                {
                    "type": "session_req",
                    "client_session_pub": private.public_key().public_bytes_raw().hex(),
                    "enclave_session_pub": quote.enclave_session_pub.hex(),
                }
            )
        )
    )
    assert resp["type"] == "session_resp"
    assert bytes.fromhex(resp["session_id"]) == channel.session_id
    return channel, quote


# -- end-to-end happy path ------------------------------------------------------

def test_full_client_flow(client, ha, clock):
    clock.set_interval(1)
    report = ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 1)
    client.register_report(report)
    assert client.poll_result(TOKEN) == RESULT_POSITIVE

    contact = ContactTuple(
        interval=0,
        sent=derive_identifier(SECRET_C, 0),
        received=derive_identifier(SECRET_A, 0),
    )
    client.upload_tuples(TOKEN, [contact])

    poll = [
        ContactTuple(
            interval=0,
            sent=derive_identifier(SECRET_A, 0),
            received=derive_identifier(SECRET_C, 0),
        )
    ]
    result = client.poll(poll)
    assert result.matched
    assert result.matched_intervals == (0,)


def test_secret_upload_flow(client, ha, clock):
    clock.set_interval(1)
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 1))
    client.upload_secret(TOKEN, SECRET_C, 0, 1)
    poll = [
        ContactTuple(
            interval=1,
            sent=derive_identifier(SECRET_A, 1),
            received=derive_identifier(SECRET_C, 1),
        )
    ]
    assert client.poll(poll).matched_intervals == (1,)


def test_gps_flow(client, ha, clock):
    clock.set_interval(0)
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    client.upload_gps(TOKEN, [GpsPoint(lat=10.0, lon=20.0, t=100.0)])
    events = client.poll_gps(
        [GpsPoint(lat=10.0, lon=20.0, t=150.0)], d_max=10.0, tau=300.0
    )
    assert events == [(100.0, 150.0)]
    assert client.poll_gps([GpsPoint(lat=-10.0, lon=20.0, t=150.0)]) == []


def test_gps_poll_bounded_by_config(client, ha, clock):
    clock.set_interval(0)
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    client.upload_gps(TOKEN, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    far = [GpsPoint(lat=45.0, lon=0.0, t=100.0)]
    with pytest.raises(RemoteError, match="d_max above the configured 10.0 m"):
        client.poll_gps(far, d_max=3e7, tau=1e12)
    with pytest.raises(RemoteError, match="tau above the configured 900.0 s"):
        client.poll_gps(far, d_max=10.0, tau=900.5)
    # the session survives a refused poll, and a poll at the bounds matches
    at_limit = [GpsPoint(lat=0.0, lon=0.0, t=1000.0)]
    assert client.poll_gps(at_limit, d_max=10.0, tau=900.0) == [(100.0, 1000.0)]


def test_remote_errors_surface(client, ha, clock):
    clock.set_interval(0)
    with pytest.raises(RemoteError, match="not authorized to upload"):
        client.upload_tuples(TOKEN, [])
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    client.upload_tuples(TOKEN, [])
    with pytest.raises(RemoteError, match="upload already used"):
        client.upload_secret(TOKEN, SECRET_C, 0, 0)


def enveloped(service, channel, msg: dict) -> dict:
    """The reply to msg sent in an envelope, past the client's own schema check."""
    raw = service.handle(channel.encrypt(canonical_encode(msg)))
    return wire.decode(channel.decrypt(raw))


def test_integer_too_large_for_a_float_refused(service, enclave, ha, clock):
    clock.set_interval(0)
    enclave.register_test_result(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    sealed = enclave.sealed_bytes()
    channel, _ = manual_handshake(service)
    huge = [{"lat": 10.0, "lon": 20.0, "t": 10**400}]
    upload = {"type": "gps_upload_req", "token": TOKEN.hex(), "trace": huge}
    poll = {"type": "gps_poll_req", "d_max": 10.0, "tau": 900.0, "trace": huge}
    for msg in (upload, poll):
        reason = f"{msg['type']}.trace: number out of range"
        assert enveloped(service, channel, msg) == {"type": "error", "reason": reason}
    assert enclave.sealed_bytes() == sealed
    # the token is unspent, and GPS polls keep working
    point = [{"lat": 10.0, "lon": 20.0, "t": 100}]
    assert enveloped(service, channel, {**upload, "trace": point}) == {"type": "ack"}
    events = enveloped(service, channel, {**poll, "trace": point})["events"]
    assert events == [{"t_infected": 100, "t_poller": 100}]


def test_gps_poll_back_in_time_refused_and_session_survives(service, enclave, ha, clock):
    clock.set_interval(0)
    enclave.register_test_result(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    channel, _ = manual_handshake(service)
    point = {"lat": 10.0, "lon": 20.0, "t": 100.0}
    upload = {"type": "gps_upload_req", "token": TOKEN.hex(), "trace": [point]}
    assert enveloped(service, channel, upload) == {"type": "ack"}
    digest = state_digest(enclave)
    poll = {"type": "gps_poll_req", "d_max": 10.0, "tau": 900.0, "trace": [{**point, "t": 200.0}, point]}
    refusal = {"type": "error", "reason": "trace not strictly time-ordered"}
    assert enveloped(service, channel, poll) == refusal
    assert state_digest(enclave) == digest
    # the session is still up
    events = enveloped(service, channel, {**poll, "trace": [point]})["events"]
    assert events == [{"t_infected": 100.0, "t_poller": 100.0}]


# -- attestation gating ------------------------------------------------------------

def test_client_rejects_wrong_measurement(service, ha):
    from cct.enclave import EnclaveConfig
    from cct.ident import TimeParams

    other = EnclaveConfig(
        ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=7
    )
    client = EnclaveClient(
        LoopbackTransport(service),
        other.measurement(),
        platform_verify_key(PLATFORM_SECRET),
    )
    with pytest.raises(AttestationError, match="wrong_measurement"):
        client.connect()


def test_client_rejects_wrong_platform_key(service, enclave_config):
    client = EnclaveClient(
        LoopbackTransport(service),
        enclave_config.measurement(),
        platform_verify_key(b"\x42" * 32),
    )
    with pytest.raises(AttestationError, match="bad_signature"):
        client.connect()


def test_client_refuses_a_rewritten_session_id(service, enclave_config):
    class RewritingSessionId:
        """Passes traffic through, but answers session_req with another valid session id."""

        def __init__(self):
            self.sent = []

        def request(self, raw):
            self.sent.append(wire.message_type(raw))
            reply = service.handle(raw)
            if wire.message_type(reply) != "session_resp":
                return reply
            session_id = bytes.fromhex(wire.decode(reply)["session_id"])
            other = bytes(b ^ 0xFF for b in session_id)
            return wire.encode({"type": "session_resp", "session_id": other.hex()})

    transport = RewritingSessionId()
    client = EnclaveClient(
        transport, enclave_config.measurement(), platform_verify_key(PLATFORM_SECRET)
    )
    with pytest.raises(ProtocolError, match="^session id mismatch$"):
        client.poll_result(TOKEN)
    # refused before the first envelope
    assert transport.sent == ["attest_req", "session_req"]


# -- session discipline --------------------------------------------------------------

def test_plaintext_application_refused(service):
    raw = service.handle(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    msg = wire.decode(raw)
    assert msg == {"type": "error", "reason": "plaintext application message refused"}


def test_unknown_session_rejected(service):
    envelope = {
        "type": "envelope",
        "ciphertext": "00" * 20,
        "nonce": "00" * 12,
        "sequence": 1,
        "session_id": "ab" * 16,
    }
    msg = wire.decode(service.handle(wire.encode(envelope)))
    assert msg == {"type": "error", "reason": "unknown session"}


def test_handshake_key_is_one_shot(service):
    channel, quote = manual_handshake(service)
    private = X25519PrivateKey.generate()
    retry = {
        "type": "session_req",
        "client_session_pub": private.public_key().public_bytes_raw().hex(),
        "enclave_session_pub": quote.enclave_session_pub.hex(),
    }
    msg = wire.decode(service.handle(wire.encode(retry)))
    assert msg == {"type": "error", "reason": "unknown handshake"}
    # the already-established session keeps working
    raw = service.handle(channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()})))
    assert wire.decode(raw)["type"] == "envelope"


def _session_req(quote):
    private = X25519PrivateKey.generate()
    return private, {
        "type": "session_req",
        "client_session_pub": private.public_key().public_bytes_raw().hex(),
        "enclave_session_pub": quote.enclave_session_pub.hex(),
    }


def test_pending_handshakes_bounded_oldest_evicted(service):
    cap = enclave_module.MAX_PENDING_HANDSHAKES
    quotes = [
        AttestationQuote.from_wire(wire.decode(service.handle(wire.encode({"type": "attest_req"}))))
        for _ in range(cap + 50)
    ]
    assert len(service._pending) == cap
    # the 50 oldest were evicted, least recently used
    for evicted in (quotes[0], quotes[49]):
        _, req = _session_req(evicted)
        msg = wire.decode(service.handle(wire.encode(req)))
        assert msg == {"type": "error", "reason": "unknown handshake"}
    _, req = _session_req(quotes[50])
    assert wire.decode(service.handle(wire.encode(req)))["type"] == "session_resp"
    # the newest handshake completes and its session serves an enveloped request
    private, newest = _session_req(quotes[-1])
    resp = wire.decode(service.handle(wire.encode(newest)))
    assert resp["type"] == "session_resp"
    channel = establish_session(private, quotes[-1])
    request = channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    inner = wire.decode(channel.decrypt(service.handle(request)))
    assert inner == {"type": "result_resp", "result": "unknown"}
    assert len(service._pending) == cap - 2


def test_pending_handshakes_bounded_across_threads(service, monkeypatch):
    monkeypatch.setattr(enclave_module, "MAX_PENDING_HANDSHAKES", 16)
    attest = wire.encode({"type": "attest_req"})
    quotes = []

    def attest_many():
        for _ in range(60):
            quotes.append(AttestationQuote.from_wire(wire.decode(service.handle(attest))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=attest_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(quotes) == 240
    assert len(service._pending) == 16
    # every key still pending was attested, and each opens exactly one session
    attested = {quote.enclave_session_pub for quote in quotes}
    assert set(service._pending) <= attested
    for public in list(service._pending):
        quote = next(q for q in quotes if q.enclave_session_pub == public)
        _, req = _session_req(quote)
        assert wire.decode(service.handle(wire.encode(req)))["type"] == "session_resp"
    assert len(service._pending) == 0


def _connected(service, config):
    client = EnclaveClient(
        LoopbackTransport(service), config.measurement(), platform_verify_key(PLATFORM_SECRET)
    )
    client.connect()
    return client


def _result_req(channel) -> bytes:
    return channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))


def test_sessions_bounded_oldest_evicted(service):
    cap = enclave_module.MAX_SESSIONS
    channels = [manual_handshake(service)[0] for _ in range(cap + 50)]
    assert len(service._sessions) == cap
    # the 50 oldest were evicted, least recently used
    for evicted in (channels[0], channels[49]):
        msg = wire.decode(service.handle(_result_req(evicted)))
        assert msg == {"type": "error", "reason": "unknown session"}
    for kept in (channels[50], channels[-1]):
        assert wire.decode(service.handle(_result_req(kept)))["type"] == "envelope"
    assert len(service._sessions) == cap


def test_sessions_evicted_least_recently_used(service, enclave_config, monkeypatch):
    monkeypatch.setattr(enclave_module, "MAX_SESSIONS", 8)
    honest = _connected(service, enclave_config)
    session_id = honest._channel.session_id
    # a flood of twice the cap, with the honest client polling after every 4
    for k in range(16):
        manual_handshake(service)
        if k % 4 == 3:
            assert honest.poll_result(TOKEN) == "unknown"
    # no poll found its session gone, so the client never connected again
    assert honest._channel.session_id == session_id
    assert len(service._sessions) == 8


def test_only_an_opened_envelope_refreshes_its_session(service, monkeypatch):
    monkeypatch.setattr(enclave_module, "MAX_SESSIONS", 2)
    first, _ = manual_handshake(service)
    second, _ = manual_handshake(service)
    opened = _result_req(first)
    assert wire.decode(service.handle(opened))["type"] == "envelope"
    assert wire.decode(service.handle(_result_req(second)))["type"] == "envelope"
    # the first session's id on the wire, in envelopes that do not open
    forged = wire.decode(_result_req(first))
    forged["ciphertext"] = ("0" if forged["ciphertext"][0] != "0" else "1") + forged["ciphertext"][1:]
    for raw in (opened, wire.encode(forged)):
        reply = first.decrypt(service.handle(raw))
        assert wire.decode(reply)["type"] == "error"
    manual_handshake(service)
    msg = wire.decode(service.handle(_result_req(first)))
    assert msg == {"type": "error", "reason": "unknown session"}
    assert wire.decode(service.handle(_result_req(second)))["type"] == "envelope"


def test_client_reconnects_after_session_eviction(service, enclave_config, monkeypatch):
    monkeypatch.setattr(enclave_module, "MAX_SESSIONS", 2)
    first = _connected(service, enclave_config)
    old_id = first._channel.session_id
    others = [_connected(service, enclave_config) for _ in range(2)]
    assert old_id not in service._sessions
    # the refused envelope is sent again over a new session
    assert first.poll_result(TOKEN) == "unknown"
    assert first._channel.session_id != old_id
    assert first._channel.session_id in service._sessions
    # which evicted the oldest of the others; it recovers the same way
    assert others[0].poll_result(TOKEN) == "unknown"
    assert len(service._sessions) == 2


def test_client_resends_only_once(service, enclave_config):
    class Refusing:
        """Serves the handshake, answers every envelope `unknown session`."""

        envelopes = 0

        def request(self, raw):
            if wire.decode(raw)["type"] != "envelope":
                return service.handle(raw)
            self.envelopes += 1
            return wire.encode({"type": "error", "reason": "unknown session"})

    transport = Refusing()
    client = EnclaveClient(
        transport, enclave_config.measurement(), platform_verify_key(PLATFORM_SECRET)
    )
    with pytest.raises(RemoteError, match="unknown session"):
        client.poll_result(TOKEN)
    assert transport.envelopes == 2


def test_sessions_bounded_across_threads(service, enclave_config, monkeypatch):
    monkeypatch.setattr(enclave_module, "MAX_SESSIONS", 16)
    clients = []

    def connect_many():
        for _ in range(60):
            clients.append(_connected(service, enclave_config))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=connect_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(clients) == 240
    assert len(service._sessions) == 16
    # the sessions still open are the clients', and only their clients are served
    open_ids = set(service._sessions)
    assert open_ids <= {client._channel.session_id for client in clients}
    for client in clients:
        msg = wire.decode(service.handle(_result_req(client._channel)))
        if client._channel.session_id in open_ids:
            assert msg["type"] == "envelope"
        else:
            assert msg == {"type": "error", "reason": "unknown session"}


def test_replayed_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    request = channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    first = service.handle(request)
    assert wire.decode(first)["type"] == "envelope"
    replayed = service.handle(request)
    assert wire.decode(replayed)["type"] == "envelope"
    channel.decrypt(first)
    inner = wire.decode(channel.decrypt(replayed))
    assert inner == {"type": "error", "reason": "replay"}


def test_tampered_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    envelope = wire.decode(channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()})))
    body = bytearray(bytes.fromhex(envelope["ciphertext"]))
    body[0] ^= 0x01
    envelope["ciphertext"] = bytes(body).hex()
    raw = service.handle(wire.encode(envelope))
    outer = wire.decode(raw)
    assert outer["type"] == "envelope"
    inner = wire.decode(channel.decrypt(raw))
    assert inner == {"type": "error", "reason": "decrypt failed"}


def test_envelope_refusals_keep_their_order(service):
    channel, _ = manual_handshake(service)
    request = channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    fields = wire.decode(request)
    foreign = {**fields, "session_id": "ab" * 16}
    plain = lambda raw: wire.decode(service.handle(raw))
    opened = lambda raw: wire.decode(channel.decrypt(service.handle(raw)))
    # a malformed envelope gets its WireError in plaintext, whether or not its session is open
    upper = wire.encode(fields).replace(fields["ciphertext"].encode(), fields["ciphertext"].upper().encode())
    assert plain(upper) == {"type": "error", "reason": "envelope.ciphertext: not lowercase hex"}
    spaced = wire.encode(foreign).replace(b',"nonce"', b', "nonce"')
    assert plain(spaced) == {"type": "error", "reason": "non-canonical encoding"}
    # then an envelope of no open session, before anything is decrypted
    assert plain(wire.encode({**foreign, "ciphertext": "00"})) == {"type": "error", "reason": "unknown session"}
    # then, enveloped, a wrong nonce and a bad tag
    wrong_nonce = wire.encode({**fields, "nonce": "00" * 12})
    assert opened(wrong_nonce) == {"type": "error", "reason": "decrypt failed"}
    last = int(fields["ciphertext"][-2:], 16) ^ 1
    bad_tag = wire.encode({**fields, "ciphertext": fields["ciphertext"][:-2] + "%02x" % last})
    assert opened(bad_tag) == {"type": "error", "reason": "decrypt failed"}
    # none of them used up the sequence; a replay of it is refused after it opens
    assert opened(request) == {"type": "result_resp", "result": "unknown"}
    assert opened(request) == {"type": "error", "reason": "replay"}
    # a 20-digit sequence is accepted
    channel._next_send = 10**19
    assert opened(channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))) == {
        "type": "result_resp",
        "result": "unknown",
    }


def test_client_refuses_a_reply_that_is_not_an_envelope(service, enclave_config):
    class Answering:
        """Serves the handshake, answers every envelope with `reply`."""

        def __init__(self, reply):
            self.reply = reply

        def request(self, raw):
            if wire.message_type(raw) != "envelope":
                return service.handle(raw)
            return wire.encode(self.reply)

    for reply, error in (
        ({"type": "error", "reason": "nope"}, RemoteError("nope")),
        ({"type": "ack"}, ProtocolError("unexpected message type")),
        ({"type": "attest_req"}, ProtocolError("unexpected message type")),
    ):
        client = EnclaveClient(
            Answering(reply), enclave_config.measurement(), platform_verify_key(PLATFORM_SECRET)
        )
        with pytest.raises(ProtocolError) as raised:
            client.poll_result(TOKEN)
        assert (type(raised.value), str(raised.value)) == (type(error), str(error))


def test_racing_copies_of_one_envelope_dispatched_once(service):
    # an operator may replay a captured envelope on a second connection
    channel, _ = manual_handshake(service)
    dispatched = []
    dispatch = service._dispatch

    def counted(plaintext):
        dispatched.append(wire.decode(plaintext)["type"])
        return dispatch(plaintext)

    service._dispatch = counted
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            request = channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
            threads = [threading.Thread(target=service.handle, args=(request,)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert dispatched == ["result_req"] * 100


def test_handshake_inside_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    raw = service.handle(channel.encrypt(wire.encode({"type": "attest_req"})))
    inner = wire.decode(channel.decrypt(raw))
    assert inner == {"type": "error", "reason": "unexpected message type"}


def test_garbage_bytes_get_error_reply(service):
    msg = wire.decode(service.handle(b"\xff\xfe not json"))
    assert msg["type"] == "error"


@pytest.mark.parametrize("raw", [b'{"type":[]}', b'{"type":{}}'], ids=["list", "object"])
def test_type_that_is_no_string_gets_its_refusal(service, raw):
    reason = "unknown message type: %s" % raw[8:-1].decode()
    assert wire.decode(service.handle(raw)) == {"type": "error", "reason": reason}
    channel, _ = manual_handshake(service)
    assert wire.decode(channel.decrypt(service.handle(channel.encrypt(raw)))) == {"type": "error", "reason": reason}


# far past any stack: the outcome does not depend on the caller's depth
DEEP = b"[" * 100_000 + b"]" * 100_000
NESTED_TOO_DEEPLY = {"type": "error", "reason": "invalid JSON: nested too deeply"}


def test_deeply_nested_plaintext_gets_error_reply(service):
    assert wire.decode(service.handle(DEEP)) == NESTED_TOO_DEEPLY


def test_deeply_nested_envelope_gets_enveloped_error_reply(service):
    channel, _ = manual_handshake(service)
    raw = service.handle(channel.encrypt(DEEP))
    inner = wire.decode(channel.decrypt(raw))
    assert inner == NESTED_TOO_DEEPLY


def test_deeply_nested_frame_keeps_tcp_connection(tcp_port):
    transport = TcpTransport("127.0.0.1", tcp_port)
    try:
        assert wire.decode(transport.request(DEEP)) == NESTED_TOO_DEEPLY
        reply = wire.decode(transport.request(wire.encode({"type": "attest_req"})))
        assert reply["type"] == "attest_resp"
    finally:
        transport.close()


@pytest.mark.parametrize("over_tcp", [False, True], ids=["loopback", "tcp"])
def test_oversized_reply_refused_and_session_survives(
    request, service, enclave_config, ha, clock, monkeypatch, over_tcp
):
    clock.set_interval(0)
    if over_tcp:
        transport = TcpTransport("127.0.0.1", request.getfixturevalue("tcp_port"))
    else:
        transport = LoopbackTransport(service)
    try:
        client = EnclaveClient(
            transport, enclave_config.measurement(), platform_verify_key(PLATFORM_SECRET)
        )
        client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
        client.upload_gps(TOKEN, [GpsPoint(lat=10.0, lon=20.0, t=100.0 + i) for i in range(50)])
        poll = [GpsPoint(lat=10.0, lon=20.0, t=150.0)]
        assert len(client.poll_gps(poll)) == 50
        # the 50-event reply no longer fits a frame; the small request still does
        monkeypatch.setattr(wire, "MAX_FRAME", 2048)
        with pytest.raises(RemoteError, match="^response too large$"):
            client.poll_gps(poll)
        assert client.poll_result(TOKEN) == RESULT_POSITIVE
    finally:
        if over_tcp:
            transport.close()


def test_self_contact_refused_and_upload_token_unspent(client, ha, clock):
    clock.set_interval(0)
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    a, c = derive_identifier(SECRET_A, 0), derive_identifier(SECRET_C, 0)
    # plain tuples reach the wire unchecked; ContactTuple would refuse (0, a, a)
    with_self_contact = [(0, c, a), (0, a, a)]
    with pytest.raises(RemoteError, match="^self-contact$"):
        client.poll(with_self_contact)
    with pytest.raises(RemoteError, match="^self-contact$"):
        client.upload_tuples(TOKEN, with_self_contact)
    client.upload_tuples(TOKEN, [(0, c, a)])
    assert client.poll([(0, a, c)]).matched_intervals == (0,)


@pytest.mark.parametrize("over_tcp", [False, True], ids=["loopback", "tcp"])
def test_internal_failure_answered_and_session_survives(
    request, service, enclave_config, monkeypatch, caplog, over_tcp
):
    if over_tcp:
        transport = TcpTransport("127.0.0.1", request.getfixturevalue("tcp_port"))
    else:
        transport = LoopbackTransport(service)
    try:
        client = EnclaveClient(
            transport, enclave_config.measurement(), platform_verify_key(PLATFORM_SECRET)
        )
        poll = [(0, derive_identifier(SECRET_A, 0), derive_identifier(SECRET_C, 0))]
        assert not client.poll(poll).matched
        session = client._channel

        def fail(_enclave, tuples):
            raise RuntimeError(repr(tuples))

        with monkeypatch.context() as patched:
            patched.setattr(Enclave, "match_poll", fail)
            with pytest.raises(RemoteError, match="^internal error$"):
                client.poll(poll)
        assert not client.poll(poll).matched
        assert client._channel is session
        # the log names the failure's type and place, not its text
        assert "RuntimeError" in caplog.text and "in fail" in caplog.text
        assert repr(poll[0][1]) not in caplog.text
    finally:
        if over_tcp:
            transport.close()


def test_internal_failure_in_the_handshake_answered_in_plaintext(service, monkeypatch):
    def fail(*_args):
        raise RuntimeError("a failure inside the handshake")

    monkeypatch.setattr(EnclaveService, "_attest", fail)
    raw = service.handle(wire.encode({"type": "attest_req"}))
    assert wire.decode(raw) == {"type": "error", "reason": "internal error"}


def test_every_request_type_has_one_handler():
    handshake = {"attest_req", "attest_resp", "session_req", "session_resp"}
    requests = {t for t in wire.MESSAGE_SCHEMAS if t.endswith("_req")}
    application = requests - handshake
    assert set(enclave_module._APP_HANDLERS) == application
    assert len(application) == 7


def test_unexpected_plaintext_type(service):
    msg = wire.decode(service.handle(wire.encode({"type": "ack"})))
    assert msg == {"type": "error", "reason": "unexpected message type"}


# -- transcript shape --------------------------------------------------------------

def test_transcript_shows_only_handshake_and_envelopes(service, enclave_config, ha, clock):
    clock.set_interval(0)
    transcript = Transcript()
    client = EnclaveClient(
        RecordingTransport(LoopbackTransport(service), transcript),
        enclave_config.measurement(),
        platform_verify_key(PLATFORM_SECRET),
    )
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    assert client.poll_result(TOKEN) == RESULT_POSITIVE
    types = [wire.canonical_decode(raw)["type"] for raw in transcript.messages()]
    assert types[:4] == ["attest_req", "attest_resp", "session_req", "session_resp"]
    assert set(types[4:]) == {"envelope"}
    assert len(types) == 8


# -- TCP front-end ------------------------------------------------------------------

def test_recording_transport_wraps_tcp(enclave_config, ha, clock, tcp_port):
    clock.set_interval(0)
    transport = TcpTransport("127.0.0.1", tcp_port)
    transcript = Transcript()
    try:
        client = EnclaveClient(
            RecordingTransport(transport, transcript),
            enclave_config.measurement(),
            platform_verify_key(PLATFORM_SECRET),
        )
        client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
        assert client.poll_result(TOKEN) == RESULT_POSITIVE
    finally:
        transport.close()
    assert [direction for direction, _ in transcript] == ["c2e", "e2c"] * 4
    types = [wire.canonical_decode(raw)["type"] for raw in transcript.messages()]
    assert types[:4] == ["attest_req", "attest_resp", "session_req", "session_resp"]
    assert set(types[4:]) == {"envelope"}


def test_tcp_request_refused_when_peer_closes_without_reply():
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        transport = TcpTransport("127.0.0.1", listener.getsockname()[1])
        peer, _ = listener.accept()
        try:
            # the peer will read the request but never write a reply
            peer.shutdown(socket.SHUT_WR)
            request = wire.encode({"type": "attest_req"})
            with pytest.raises(ProtocolError, match="^connection closed$"):
                transport.request(request)
            assert wire.recv_frame(peer) == request
        finally:
            peer.close()
            transport.close()
    finally:
        listener.close()


ATTEST_REQ = wire.encode({"type": "attest_req"})


# a reset instead of a close: after a header announcing 100 bytes and 10 of them,
# or after a whole request, before its reply
@pytest.mark.parametrize(
    "sent",
    [struct.pack(">I", 100) + bytes(10), struct.pack(">I", len(ATTEST_REQ)) + ATTEST_REQ],
    ids=["mid-frame", "before-reply"],
)
def test_client_reset_ends_its_connection_quietly(tcp_port, monkeypatch, sent):
    errors, closed = [], threading.Semaphore(0)
    monkeypatch.setattr(EnclaveServer, "handle_error", lambda self, request, address: errors.append(address))
    shutdown_request = EnclaveServer.shutdown_request

    def shutdown_and_count(self, request):
        shutdown_request(self, request)
        closed.release()

    monkeypatch.setattr(EnclaveServer, "shutdown_request", shutdown_and_count)
    peer = socket.create_connection(("127.0.0.1", tcp_port))
    peer.sendall(sent)
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    peer.close()
    assert closed.acquire(timeout=5)
    assert errors == []
    transport = TcpTransport("127.0.0.1", tcp_port)
    try:
        reply = wire.decode(transport.request(ATTEST_REQ))
        assert reply["type"] == "attest_resp"
    finally:
        transport.close()


def test_tcp_round_trip(enclave_config, ha, clock, tcp_port):
    clock.set_interval(0)
    transport = TcpTransport("127.0.0.1", tcp_port)
    try:
        client = EnclaveClient(
            transport,
            enclave_config.measurement(),
            platform_verify_key(PLATFORM_SECRET),
        )
        client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
        assert client.poll_result(TOKEN) == RESULT_POSITIVE

        # a second connection establishes its own session
        transport2 = TcpTransport("127.0.0.1", tcp_port)
        try:
            client2 = EnclaveClient(
                transport2,
                enclave_config.measurement(),
                platform_verify_key(PLATFORM_SECRET),
            )
            assert client2.poll_result(TOKEN) == RESULT_POSITIVE
        finally:
            transport2.close()
    finally:
        transport.close()


def test_enclave_loads_only_the_trusted_modules():
    run_fresh(
        "import sys, cct.enclave\n"
        "loaded = sorted(m for m in sys.modules if m == 'cct' or m.startswith('cct.'))\n"
        f"assert loaded == {TRUSTED!r}, loaded\n"
        "host = [m for m in ('socketserver', 'socket', 'selectors') if m in sys.modules]\n"
        "assert not host, host\n"
        "assert cct.enclave.EnclaveService.__module__ == 'cct.enclave'\n"
        "assert 'handle' in vars(cct.enclave.EnclaveService)\n"
    )


def test_readme_states_the_trusted_line_count():
    # the total of CI's "Trusted set" step, counted the same way
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.search(r"`import cct\.enclave` loads,\s+([\d,]+) lines", readme)
    assert stated, "README states no trusted line count"
    run_fresh(
        "import sys, cct.enclave\n"
        "total = 0\n"
        "for name in sorted(m for m in sys.modules if m == 'cct' or m.startswith('cct.')):\n"
        "    with open(sys.modules[name].__file__, 'rb') as f:\n"
        "        total += f.read().count(b'\\n')\n"
        f"assert total == {stated[1].replace(',', '')}, total\n"
    )
