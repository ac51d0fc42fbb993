import secrets
import sys
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings, strategies as st

from cct import attestation
from cct.attestation import (
    AttestationQuote,
    Measurement,
    SecureChannel,
    accept_session,
    compute_measurement,
    establish_session,
    generate_quote,
    platform_signing_key,
    platform_verify_key,
    seal,
    unseal,
    verify_quote,
)
from cct.errors import AttestationError, EnvelopeError, KeyExchangeError, SealError

PLATFORM_SECRET = b"\x07" * 32

# Frozen from an independent SHA-256 computation over
# b"CCT-MEAS-v1" + b"1.0" + 32 zero bytes.
PINNED_MEASUREMENT = "354798e97b9dacc0bccb47a9b8e746018a5ca35a9250b82b70d89d5428c41b1a"


def _fresh_quote(measurement=None):
    signing = platform_signing_key(PLATFORM_SECRET)
    measurement = measurement or compute_measurement("1.0", bytes(32))
    enclave_secret = X25519PrivateKey.generate()
    public = enclave_secret.public_key().public_bytes_raw()
    return generate_quote(signing, measurement, public), enclave_secret, measurement


# -- measurement ----------------------------------------------------------------

def test_measurement_pinned_vector():
    assert compute_measurement("1.0", bytes(32)).hex() == PINNED_MEASUREMENT


def test_measurement_deterministic_and_version_sensitive():
    a = compute_measurement("1.0", bytes(32))
    assert compute_measurement("1.0", bytes(32)) == a
    assert compute_measurement("1.1", bytes(32)) != a
    assert compute_measurement("1.0", b"\x01" + bytes(31)) != a


def test_measurement_length_enforced():
    with pytest.raises(ValueError):
        Measurement(b"short")
    with pytest.raises(ValueError):
        compute_measurement("1.0", bytes(31))


# -- quotes ----------------------------------------------------------------------

def test_quote_round_trip():
    quote, _, measurement = _fresh_quote()
    verify_quote(quote, measurement, platform_verify_key(PLATFORM_SECRET))


def test_quote_wrong_measurement():
    quote, _, _ = _fresh_quote()
    other = compute_measurement("1.1", bytes(32))
    with pytest.raises(AttestationError) as err:
        verify_quote(quote, other, platform_verify_key(PLATFORM_SECRET))
    assert err.value.reason == "wrong_measurement"


def test_quote_wrong_platform_key():
    quote, _, measurement = _fresh_quote()
    with pytest.raises(AttestationError) as err:
        verify_quote(quote, measurement, platform_verify_key(b"\x08" * 32))
    assert err.value.reason == "bad_signature"


def test_quote_every_single_byte_mutation_rejected():
    """Exhaustive: flipping any byte of any quote field must reject."""
    quote, _, measurement = _fresh_quote()
    verify_key = platform_verify_key(PLATFORM_SECRET)
    fields = ("measurement", "enclave_session_pub", "platform_signature")
    for name in fields:
        value = getattr(quote, name)
        value = value.value if isinstance(value, Measurement) else value
        for position in range(len(value)):
            mutated_bytes = bytearray(value)
            mutated_bytes[position] ^= 0x01
            kwargs = {
                "measurement": quote.measurement,
                "enclave_session_pub": quote.enclave_session_pub,
                "platform_signature": quote.platform_signature,
            }
            kwargs[name] = (
                Measurement(bytes(mutated_bytes))
                if name == "measurement"
                else bytes(mutated_bytes)
            )
            with pytest.raises(AttestationError):
                verify_quote(AttestationQuote(**kwargs), measurement, verify_key)


def test_substituted_session_key_rejected():
    # attacker swaps in its own ephemeral key without access to the platform key
    quote, _, measurement = _fresh_quote()
    attacker = X25519PrivateKey.generate().public_key().public_bytes_raw()
    forged = AttestationQuote(
        measurement=quote.measurement,
        enclave_session_pub=attacker,
        platform_signature=quote.platform_signature,
    )
    with pytest.raises(AttestationError) as err:
        verify_quote(forged, measurement, platform_verify_key(PLATFORM_SECRET))
    assert err.value.reason == "bad_signature"


# -- session establishment --------------------------------------------------------

def test_handshake_agreement():
    quote, enclave_secret, _ = _fresh_quote()
    client_secret = X25519PrivateKey.generate()
    client = establish_session(client_secret, quote)
    enclave = accept_session(enclave_secret, client_secret.public_key().public_bytes_raw())
    assert client.session_id == enclave.session_id
    assert len(client.session_id) == 16
    assert enclave.decrypt(client.encrypt(b"request")) == b"request"
    assert client.decrypt(enclave.encrypt(b"reply")) == b"reply"


def test_distinct_handshakes_distinct_sessions():
    ids = set()
    for _ in range(5):
        quote, enclave_secret, _ = _fresh_quote()
        ids.add(establish_session(X25519PrivateKey.generate(), quote).session_id)
    assert len(ids) == 5


def test_low_order_public_key_rejected():
    quote, enclave_secret, _ = _fresh_quote()
    with pytest.raises(KeyExchangeError, match="invalid key exchange"):
        accept_session(enclave_secret, bytes(32))
    zero_quote = AttestationQuote(
        measurement=quote.measurement,
        enclave_session_pub=bytes(32),
        platform_signature=quote.platform_signature,
    )
    with pytest.raises(KeyExchangeError, match="invalid key exchange"):
        establish_session(X25519PrivateKey.generate(), zero_quote)


@settings(max_examples=25)
@given(st.binary(min_size=32, max_size=32))
def test_handshake_agreement_property(seed):
    """Client and enclave always derive one session (random ephemerals)."""
    enclave_secret = X25519PrivateKey.from_private_bytes(seed)
    client_secret = X25519PrivateKey.generate()
    client = establish_session(
        client_secret,
        generate_quote(
            platform_signing_key(PLATFORM_SECRET),
            compute_measurement("1.0", bytes(32)),
            enclave_secret.public_key().public_bytes_raw(),
        ),
    )
    enclave = accept_session(enclave_secret, client_secret.public_key().public_bytes_raw())
    assert client.session_id == enclave.session_id
    assert enclave.decrypt(client.encrypt(b"request")) == b"request"
    assert client.decrypt(enclave.encrypt(b"reply")) == b"reply"


# -- envelopes ----------------------------------------------------------------------

def _channels():
    """The client's and the enclave's channel over one fresh session."""
    quote, enclave_secret, _ = _fresh_quote()
    client_secret = X25519PrivateKey.generate()
    client = establish_session(client_secret, quote)
    return client, accept_session(enclave_secret, client_secret.public_key().public_bytes_raw())


def test_envelope_round_trip():
    client, enclave = _channels()
    assert enclave.decrypt(client.encrypt(b"hello")) == b"hello"
    assert client.decrypt(enclave.encrypt(b"world")) == b"world"


def test_envelope_pinned_vector():
    # frozen from the envelope bytes of the earlier free-function API
    c2e, e2c, session_id = b"\x01" * 32, b"\x02" * 32, b"\x03" * 16
    client = SecureChannel(session_id, send_key=c2e, recv_key=e2c)
    enclave = SecureChannel(session_id, send_key=e2c, recv_key=c2e)
    request, reply = client.encrypt(b"hello"), enclave.encrypt(b"world")
    common = {"nonce": "00" * 11 + "01", "sequence": 1, "session_id": "03" * 16, "type": "envelope"}
    assert request == {"ciphertext": "7d3dec44c646d743e9992662398cab6fc13804111a", **common}
    assert reply == {"ciphertext": "570a35f29426c70016f9e95fc8325952442aa3a6e6", **common}


def test_handshake_pinned_vector():
    # fixed ephemerals pin the HKDF labels, the session id and each side's key order
    enclave_secret = X25519PrivateKey.from_private_bytes(b"\x11" * 32)
    client_secret = X25519PrivateKey.from_private_bytes(b"\x22" * 32)
    quote = generate_quote(
        platform_signing_key(PLATFORM_SECRET),
        compute_measurement("1.0", bytes(32)),
        enclave_secret.public_key().public_bytes_raw(),
    )
    client = establish_session(client_secret, quote)
    enclave = accept_session(enclave_secret, client_secret.public_key().public_bytes_raw())
    common = {
        "nonce": "00" * 11 + "01",
        "sequence": 1,
        "session_id": "e6c49f90510de63ec9f2e09118373cca",
        "type": "envelope",
    }
    assert client.encrypt(b"hello") == {"ciphertext": "78d249f8a4230deb1d922bd19358b4d6c67c681caf", **common}
    assert enclave.encrypt(b"world") == {"ciphertext": "d1287a78908fe8241890fb73c0b8cb02a74970ceb5", **common}


def test_envelope_nonce_is_sequence():
    client, _ = _channels()
    for _ in range(7):
        envelope = client.encrypt(b"x")
    assert envelope["nonce"] == (bytes(4) + (7).to_bytes(8, "big")).hex()
    assert envelope["sequence"] == 7


def test_envelope_replay_rejected():
    client, enclave = _channels()
    envelope = client.encrypt(b"x")
    assert enclave.decrypt(envelope) == b"x"
    with pytest.raises(EnvelopeError, match="replay"):
        enclave.decrypt(envelope)
    older, newer = client.encrypt(b"older"), client.encrypt(b"newer")
    assert enclave.decrypt(newer) == b"newer"
    with pytest.raises(EnvelopeError, match="replay"):
        enclave.decrypt(older)


def test_envelope_direction_separation():
    # an envelope reflected back to the side that sent it does not open
    client, enclave = _channels()
    with pytest.raises(EnvelopeError, match="decrypt failed"):
        client.decrypt(client.encrypt(b"x"))
    with pytest.raises(EnvelopeError, match="decrypt failed"):
        enclave.decrypt(enclave.encrypt(b"y"))


def test_envelope_tamper_rejected():
    client, enclave = _channels()
    envelope = client.encrypt(b"payload")
    ciphertext = bytes.fromhex(envelope["ciphertext"])
    tampered = {**envelope, "ciphertext": (bytes([ciphertext[0] ^ 1]) + ciphertext[1:]).hex()}
    with pytest.raises(EnvelopeError, match="decrypt failed"):
        enclave.decrypt(tampered)
    # a refused envelope does not use up its sequence number
    assert enclave.decrypt(envelope) == b"payload"


def test_envelope_wrong_session_id_rejected():
    client, enclave = _channels()
    envelope = client.encrypt(b"x")
    relabeled = {**envelope, "session_id": bytes(16).hex()}
    with pytest.raises(EnvelopeError):
        enclave.decrypt(relabeled)
    # nor does an envelope of another session open
    other_client, _ = _channels()
    with pytest.raises(EnvelopeError):
        enclave.decrypt(other_client.encrypt(b"x"))


def test_envelope_sequence_bounds():
    client, enclave = _channels()
    envelope = client.encrypt(b"x")
    # sequence 0 is never sent, so an envelope claiming it is a replay
    zero = {**envelope, "sequence": 0, "nonce": bytes(12).hex()}
    with pytest.raises(EnvelopeError, match="replay"):
        enclave.decrypt(zero)
    # the last sequence a nonce can hold is sent once, then the channel stops
    client._next_send = 2**64 - 1
    assert client.encrypt(b"x")["sequence"] == 2**64 - 1
    with pytest.raises(ValueError, match="sequence out of range"):
        client.encrypt(b"x")


def test_concurrent_encrypts_take_distinct_sequences():
    # connections may share one session; a repeated sequence repeats a nonce under one key
    client, _ = _channels()
    sequences = []

    def send():
        for _ in range(2000):
            sequences.append(client.encrypt(b"x")["sequence"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=send) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(sequences) == list(range(1, 8001))


def test_secure_channel_sequencing():
    client, server = _channels()
    for n in range(1, 4):
        envelope = client.encrypt(f"msg{n}".encode())
        assert envelope["sequence"] == n
        assert server.decrypt(envelope) == f"msg{n}".encode()
    reply = server.encrypt(b"reply")
    assert reply["sequence"] == 1
    assert client.decrypt(reply) == b"reply"
    # replaying the last client envelope into the server now fails
    with pytest.raises(EnvelopeError, match="replay"):
        server.decrypt(envelope)


def test_ciphertext_hides_plaintext_substring():
    """Secrecy proxy: ciphertext never contains the 16-byte plaintext."""
    client, _ = _channels()
    hits = 0
    for _ in range(10_000):
        identifier = secrets.token_bytes(16)
        if identifier in bytes.fromhex(client.encrypt(identifier)["ciphertext"]):
            hits += 1
    assert hits == 0


# -- sealing ---------------------------------------------------------------------

AAD = b"\x05" * 24


def test_seal_round_trip():
    measurement = compute_measurement("1.0", bytes(32))
    sealed = seal(b"state bytes", measurement, PLATFORM_SECRET, AAD)
    assert len(sealed) == 12 + len(b"state bytes") + 16  # nonce, ciphertext, tag
    assert unseal(sealed, measurement, PLATFORM_SECRET, AAD) == b"state bytes"


def test_unseal_pinned_vector():
    # nonce ‖ ciphertext frozen from the earlier sealed-blob API, same key and aad
    sealed = bytes.fromhex(
        "abd3b45f104b49ea7a5acee82ff542429e507415ae5b677350ef6353aeef7485fe"
    )
    measurement = compute_measurement("1.0", bytes(32))
    assert unseal(sealed, measurement, PLATFORM_SECRET, AAD) == b"state"


def test_seal_wrong_measurement():
    sealed_under = compute_measurement("1.0", bytes(32))
    other = compute_measurement("1.1", bytes(32))
    sealed = seal(b"data", sealed_under, PLATFORM_SECRET, AAD)
    with pytest.raises(SealError, match="unseal failed"):
        unseal(sealed, other, PLATFORM_SECRET, AAD)


def test_seal_wrong_platform_secret():
    measurement = compute_measurement("1.0", bytes(32))
    sealed = seal(b"data", measurement, PLATFORM_SECRET, AAD)
    with pytest.raises(SealError, match="unseal failed"):
        unseal(sealed, measurement, b"\x08" * 32, AAD)


def test_seal_wrong_aad():
    measurement = compute_measurement("1.0", bytes(32))
    sealed = seal(b"data", measurement, PLATFORM_SECRET, AAD)
    with pytest.raises(SealError, match="unseal failed"):
        unseal(sealed, measurement, PLATFORM_SECRET, b"\x06" * 24)


def test_seal_tamper_rejected():
    measurement = compute_measurement("1.0", bytes(32))
    sealed = seal(b"data", measurement, PLATFORM_SECRET, AAD)
    for position in range(len(sealed)):
        corrupted = bytearray(sealed)
        corrupted[position] ^= 0x01
        with pytest.raises(SealError):
            unseal(bytes(corrupted), measurement, PLATFORM_SECRET, AAD)
    for cut in range(len(sealed)):
        with pytest.raises(SealError):
            unseal(sealed[:cut], measurement, PLATFORM_SECRET, AAD)


@given(st.binary(max_size=200), st.binary(max_size=40))
def test_seal_inverse_property(data, aad):
    measurement = compute_measurement("1.0", bytes(32))
    assert unseal(seal(data, measurement, PLATFORM_SECRET, aad), measurement, PLATFORM_SECRET, aad) == data
