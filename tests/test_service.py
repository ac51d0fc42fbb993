import sys
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    AttestationQuote,
    establish_session,
    platform_verify_key,
)
from cct.authority import RESULT_POSITIVE, token_hash
from cct.client import EnclaveClient, LoopbackTransport, RecordingTransport, TcpTransport
from cct.contact_log import ContactTuple
from cct.enclave import GpsPoint
from cct.errors import AttestationError, RemoteError
from cct.ident import derive_identifier
from cct.service import EnclaveService, EnclaveServer
from cct.wire import canonical_encode

from conftest import PLATFORM_SECRET

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
    raw = service.handle(wire.encode(channel.encrypt(canonical_encode(msg))))
    return wire.decode(channel.decrypt(wire.decode(raw)))


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
    raw = service.handle(
        wire.encode(channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()})))
    )
    assert wire.decode(raw)["type"] == "envelope"


def test_replayed_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    request = wire.encode(
        channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    )
    first = wire.decode(service.handle(request))
    assert first["type"] == "envelope"
    replayed = wire.decode(service.handle(request))
    assert replayed["type"] == "envelope"
    channel.decrypt(first)
    inner = wire.decode(channel.decrypt(replayed))
    assert inner == {"type": "error", "reason": "replay"}


def test_tampered_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    envelope = channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    body = bytearray(bytes.fromhex(envelope["ciphertext"]))
    body[0] ^= 0x01
    envelope["ciphertext"] = bytes(body).hex()
    raw = service.handle(wire.encode(envelope))
    outer = wire.decode(raw)
    assert outer["type"] == "envelope"
    inner = wire.decode(channel.decrypt(outer))
    assert inner == {"type": "error", "reason": "decrypt failed"}


def test_racing_copies_of_one_envelope_dispatched_once(service):
    # an operator may replay a captured envelope on a second connection
    channel, _ = manual_handshake(service)
    dispatched = []
    dispatch = service._dispatch

    def counted(msg):
        dispatched.append(msg["type"])
        return dispatch(msg)

    service._dispatch = counted
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            request = wire.encode(
                channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
            )
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
    raw = service.handle(
        wire.encode(channel.encrypt(wire.encode({"type": "attest_req"})))
    )
    inner = wire.decode(channel.decrypt(wire.decode(raw)))
    assert inner == {"type": "error", "reason": "unexpected message type"}


def test_garbage_bytes_get_error_reply(service):
    msg = wire.decode(service.handle(b"\xff\xfe not json"))
    assert msg["type"] == "error"


# far past any stack: the outcome does not depend on the caller's depth
DEEP = b"[" * 100_000 + b"]" * 100_000
NESTED_TOO_DEEPLY = {"type": "error", "reason": "invalid JSON: nested too deeply"}


def test_deeply_nested_plaintext_gets_error_reply(service):
    assert wire.decode(service.handle(DEEP)) == NESTED_TOO_DEEPLY


def test_deeply_nested_envelope_gets_enveloped_error_reply(service):
    channel, _ = manual_handshake(service)
    raw = service.handle(wire.encode(channel.encrypt(DEEP)))
    inner = wire.decode(channel.decrypt(wire.decode(raw)))
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


def test_every_request_type_has_one_handler():
    from cct import service as service_module

    requests = {t for t in wire.MESSAGE_SCHEMAS if t.endswith("_req")}
    application = requests - wire.HANDSHAKE_TYPES
    assert set(service_module._APP_HANDLERS) == application
    assert len(application) == 7


def test_unexpected_plaintext_type(service):
    msg = wire.decode(service.handle(wire.encode({"type": "ack"})))
    assert msg == {"type": "error", "reason": "unexpected message type"}


# -- transcript shape --------------------------------------------------------------

def test_transcript_shows_only_handshake_and_envelopes(service, enclave_config, ha, clock):
    clock.set_interval(0)
    transcript = wire.Transcript()
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
    transcript = wire.Transcript()
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
