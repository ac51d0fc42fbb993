import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    CLIENT_TO_ENCLAVE,
    AttestationQuote,
    EncryptedEnvelope,
    Measurement,
    SecureChannel,
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


def manual_handshake(service):
    """Drive the handshake at the raw message level."""
    resp = wire.decode(service.handle(wire.encode({"type": "attest_req"})))
    assert resp["type"] == "attest_resp"
    quote = AttestationQuote(
        measurement=Measurement(bytes.fromhex(resp["measurement"])),
        enclave_session_pub=bytes.fromhex(resp["enclave_session_pub"]),
        platform_signature=bytes.fromhex(resp["platform_signature"]),
    )
    private = X25519PrivateKey.generate()
    keys = establish_session(private, quote)
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
    assert bytes.fromhex(resp["session_id"]) == keys.session_id
    return SecureChannel(keys, CLIENT_TO_ENCLAVE), quote


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


def test_remote_errors_surface(client, ha, clock):
    clock.set_interval(0)
    with pytest.raises(RemoteError, match="not authorized to upload"):
        client.upload_tuples(TOKEN, [])
    client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    client.upload_tuples(TOKEN, [])
    with pytest.raises(RemoteError, match="upload already used"):
        client.upload_secret(TOKEN, SECRET_C, 0, 0)


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


def test_insecure_mode_accepts_plaintext(enclave):
    service = EnclaveService(enclave, PLATFORM_SECRET, insecure_plaintext=True)
    raw = service.handle(wire.encode({"type": "result_req", "token": TOKEN.hex()}))
    assert wire.decode(raw) == {"type": "result_resp", "result": "unknown"}


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
        wire.encode(
            channel.encrypt(
                wire.encode({"type": "result_req", "token": TOKEN.hex()})
            ).to_wire()
        )
    )
    assert wire.decode(raw)["type"] == "envelope"


def test_replayed_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    request = wire.encode(
        channel.encrypt(wire.encode({"type": "result_req", "token": TOKEN.hex()})).to_wire()
    )
    first = wire.decode(service.handle(request))
    assert first["type"] == "envelope"
    replayed = wire.decode(service.handle(request))
    assert replayed["type"] == "envelope"
    channel.decrypt(EncryptedEnvelope.from_wire(first))
    inner = wire.decode(channel.decrypt(EncryptedEnvelope.from_wire(replayed)))
    assert inner == {"type": "error", "reason": "replay"}


def test_tampered_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    envelope = channel.encrypt(
        wire.encode({"type": "result_req", "token": TOKEN.hex()})
    ).to_wire()
    body = bytearray(bytes.fromhex(envelope["ciphertext"]))
    body[0] ^= 0x01
    envelope["ciphertext"] = bytes(body).hex()
    raw = service.handle(wire.encode(envelope))
    outer = wire.decode(raw)
    assert outer["type"] == "envelope"
    inner = wire.decode(channel.decrypt(EncryptedEnvelope.from_wire(outer)))
    assert inner == {"type": "error", "reason": "decrypt failed"}


def test_handshake_inside_envelope_rejected(service):
    channel, _ = manual_handshake(service)
    raw = service.handle(
        wire.encode(channel.encrypt(wire.encode({"type": "attest_req"})).to_wire())
    )
    inner = wire.decode(channel.decrypt(EncryptedEnvelope.from_wire(wire.decode(raw))))
    assert inner == {"type": "error", "reason": "unexpected message type"}


def test_garbage_bytes_get_error_reply(service):
    msg = wire.decode(service.handle(b"\xff\xfe not json"))
    assert msg["type"] == "error"


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

def test_recording_transport_wraps_tcp(service, enclave_config, ha, clock):
    clock.set_interval(0)
    server = EnclaveServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    transport = TcpTransport("127.0.0.1", server.server_address[1])
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
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert [direction for direction, _ in transcript] == ["c2e", "e2c"] * 4
    types = [wire.canonical_decode(raw)["type"] for raw in transcript.messages()]
    assert types[:4] == ["attest_req", "attest_resp", "session_req", "session_resp"]
    assert set(types[4:]) == {"envelope"}


def test_tcp_round_trip(service, enclave_config, ha, clock):
    clock.set_interval(0)
    server = EnclaveServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    transport = TcpTransport("127.0.0.1", port)
    try:
        client = EnclaveClient(
            transport,
            enclave_config.measurement(),
            platform_verify_key(PLATFORM_SECRET),
        )
        client.register_report(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
        assert client.poll_result(TOKEN) == RESULT_POSITIVE

        # a second connection establishes its own session
        transport2 = TcpTransport("127.0.0.1", port)
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
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
