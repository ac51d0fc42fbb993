"""Simulated trusted-execution trust layer.

Stands in for the hardware attestation chain: a platform Ed25519 key signs
quotes binding an enclave measurement to an ephemeral session key, clients
verify quotes against a well-known platform verification key, and both sides
run X25519 + HKDF to get direction-separated channel keys. None of this is
hardware-backed; the point is to preserve the trust topology (clients trust
a platform root, not the service operator) so the protocol's privacy
properties are machine-checkable.

Each AEAD use has one form and one entry point:

- Envelopes: a `SecureChannel`, built once for its side (`for_client` or
  `for_enclave`) from the session keys. It owns the sequence numbers, the
  nonce (the sequence itself) and the replay rule.
- Sealing: `seal` returns `nonce ‖ ciphertext` under a key bound to the
  measurement and `unseal` opens it. Both require associated data, which
  the enclave's log uses to bind each record to its file and position.

Primitives: Ed25519 signatures, X25519 key agreement, HKDF-SHA256,
ChaCha20-Poly1305 AEAD.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from cct.errors import AttestationError, EnvelopeError, KeyExchangeError, SealError

MEASUREMENT_LEN = 32
SESSION_ID_LEN = 16
NONCE_LEN = 12

_MEAS_LABEL = b"CCT-MEAS-v1"
_SEAL_LABEL = b"CCT-SEAL-v1"
_SID_LABEL = b"CCT-SID-v1"
_C2E_LABEL = b"CCT-C2E-v1"
_E2C_LABEL = b"CCT-E2C-v1"
_PSIGN_LABEL = b"CCT-PSIGN-v1"


def _hkdf(ikm: bytes, info: bytes, length: int, salt: bytes | None = None) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(ikm)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measurement:
    """32-byte hash identifying the enclave code and configuration."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != MEASUREMENT_LEN:
            raise ValueError(f"measurement must be {MEASUREMENT_LEN} bytes")

    def hex(self) -> str:
        return self.value.hex()


def compute_measurement(code_version: str, config_digest: bytes) -> Measurement:
    """Deterministic stand-in for a hardware code measurement."""
    if len(config_digest) != 32:
        raise ValueError("config digest must be 32 bytes")
    digest = hashlib.sha256(
        _MEAS_LABEL + code_version.encode("utf-8") + config_digest
    ).digest()
    return Measurement(digest)


# ---------------------------------------------------------------------------
# Platform keys and quotes
# ---------------------------------------------------------------------------

def platform_signing_key(platform_secret: bytes) -> Ed25519PrivateKey:
    """Quote-signing key derived from the platform secret.

    One platform secret drives both quote signing and sealing-key
    derivation, with disjoint HKDF labels.
    """
    if len(platform_secret) != 32:
        raise ValueError("platform secret must be 32 bytes")
    seed = _hkdf(platform_secret, _PSIGN_LABEL, 32)
    return Ed25519PrivateKey.from_private_bytes(seed)


def platform_verify_key(platform_secret: bytes) -> bytes:
    return platform_signing_key(platform_secret).public_key().public_bytes_raw()


@dataclass(frozen=True)
class AttestationQuote:
    """Platform-signed statement binding a measurement to a session key."""

    measurement: Measurement
    enclave_session_pub: bytes
    platform_signature: bytes

    def __post_init__(self):
        if len(self.enclave_session_pub) != 32:
            raise ValueError("enclave session public key must be 32 bytes")
        if len(self.platform_signature) != 64:
            raise ValueError("platform signature must be 64 bytes")

    def signed_payload(self) -> bytes:
        return self.measurement.value + self.enclave_session_pub

    def to_wire(self) -> dict:
        return {
            "enclave_session_pub": self.enclave_session_pub.hex(),
            "measurement": self.measurement.hex(),
            "platform_signature": self.platform_signature.hex(),
            "type": "attest_resp",
        }

    @classmethod
    def from_wire(cls, msg: dict) -> "AttestationQuote":
        return cls(
            measurement=Measurement(bytes.fromhex(msg["measurement"])),
            enclave_session_pub=bytes.fromhex(msg["enclave_session_pub"]),
            platform_signature=bytes.fromhex(msg["platform_signature"]),
        )


def generate_quote(
    signing_key: Ed25519PrivateKey,
    measurement: Measurement,
    enclave_session_pub: bytes,
) -> AttestationQuote:
    # the signature is not part of signed_payload(), so a placeholder will do
    unsigned = AttestationQuote(measurement, enclave_session_pub, bytes(64))
    return replace(
        unsigned, platform_signature=signing_key.sign(unsigned.signed_payload())
    )


def verify_quote(
    quote: AttestationQuote,
    expected_measurement: Measurement,
    verify_key: bytes,
) -> None:
    """Accept iff the signature verifies and the measurement is the expected one.

    Raises AttestationError with reason 'bad_signature' or 'wrong_measurement'.
    """
    try:
        public = Ed25519PublicKey.from_public_bytes(verify_key)
        public.verify(quote.platform_signature, quote.signed_payload())
    except (InvalidSignature, ValueError):
        raise AttestationError("bad_signature") from None
    if quote.measurement != expected_measurement:
        raise AttestationError("wrong_measurement")


# ---------------------------------------------------------------------------
# Session establishment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionKeys:
    """Direction-separated channel keys plus the public session id."""

    client_to_enclave_key: bytes
    enclave_to_client_key: bytes
    session_id: bytes


def _derive_session_keys(shared: bytes) -> SessionKeys:
    return SessionKeys(
        client_to_enclave_key=_hkdf(shared, _C2E_LABEL, 32),
        enclave_to_client_key=_hkdf(shared, _E2C_LABEL, 32),
        session_id=_hkdf(shared, _SID_LABEL, SESSION_ID_LEN),
    )


def _exchange(private: X25519PrivateKey, peer_pub: bytes) -> bytes:
    try:
        shared = private.exchange(X25519PublicKey.from_public_bytes(peer_pub))
    except ValueError:
        raise KeyExchangeError("invalid key exchange") from None
    # cryptography rejects the all-zero output itself, but keep the check
    # explicit: low-order peer keys must never yield usable session keys
    if shared == bytes(32):
        raise KeyExchangeError("invalid key exchange")
    return shared


def establish_session(
    client_ephemeral_secret: X25519PrivateKey, quote: AttestationQuote
) -> SessionKeys:
    """Client side; callers must have verified the quote first."""
    return _derive_session_keys(
        _exchange(client_ephemeral_secret, quote.enclave_session_pub)
    )


def accept_session(
    enclave_ephemeral_secret: X25519PrivateKey, client_session_pub: bytes
) -> SessionKeys:
    """Enclave side of the same derivation."""
    return _derive_session_keys(_exchange(enclave_ephemeral_secret, client_session_pub))


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncryptedEnvelope:
    """AEAD-protected message deliverable only inside the session."""

    session_id: bytes
    sequence: int
    nonce: bytes
    ciphertext: bytes

    def to_wire(self) -> dict:
        return {
            "ciphertext": self.ciphertext.hex(),
            "nonce": self.nonce.hex(),
            "sequence": self.sequence,
            "session_id": self.session_id.hex(),
            "type": "envelope",
        }

    @classmethod
    def from_wire(cls, msg: dict) -> "EncryptedEnvelope":
        return cls(
            session_id=bytes.fromhex(msg["session_id"]),
            sequence=msg["sequence"],
            nonce=bytes.fromhex(msg["nonce"]),
            ciphertext=bytes.fromhex(msg["ciphertext"]),
        )


def _sequence_nonce(sequence: int) -> bytes:
    return bytes(4) + sequence.to_bytes(8, "big")


class SecureChannel:
    """One endpoint of an established session; the only envelope API.

    Build it for one side with `for_client` or `for_enclave`. It encrypts
    under its own direction's key and opens the other direction's envelopes.
    Sequence numbers start at 1 and are the nonce, and an envelope is
    accepted only with a sequence above every one accepted before it.
    """

    def __init__(self, session_id: bytes, send_key: bytes, recv_key: bytes):
        self.session_id = session_id
        self._send = ChaCha20Poly1305(send_key)
        self._recv = ChaCha20Poly1305(recv_key)
        self._next_send = 1
        self._last_recv = 0

    @classmethod
    def for_client(cls, keys: SessionKeys) -> "SecureChannel":
        return cls(keys.session_id, keys.client_to_enclave_key, keys.enclave_to_client_key)

    @classmethod
    def for_enclave(cls, keys: SessionKeys) -> "SecureChannel":
        return cls(keys.session_id, keys.enclave_to_client_key, keys.client_to_enclave_key)

    def encrypt(self, plaintext: bytes) -> EncryptedEnvelope:
        sequence = self._next_send
        if sequence >= 2**64:
            raise ValueError("sequence out of range")
        nonce = _sequence_nonce(sequence)
        ciphertext = self._send.encrypt(nonce, plaintext, self.session_id)
        self._next_send = sequence + 1
        return EncryptedEnvelope(
            session_id=self.session_id, sequence=sequence, nonce=nonce, ciphertext=ciphertext
        )

    def decrypt(self, envelope: EncryptedEnvelope) -> bytes:
        if envelope.sequence <= self._last_recv:
            raise EnvelopeError("replay")
        if (
            envelope.session_id != self.session_id
            or envelope.nonce != _sequence_nonce(envelope.sequence)
        ):
            raise EnvelopeError("decrypt failed")
        try:
            plaintext = self._recv.decrypt(envelope.nonce, envelope.ciphertext, self.session_id)
        except InvalidTag:
            raise EnvelopeError("decrypt failed") from None
        self._last_recv = envelope.sequence
        return plaintext


# ---------------------------------------------------------------------------
# Sealing
# ---------------------------------------------------------------------------

def _sealing_key(measurement: Measurement, platform_secret: bytes) -> bytes:
    return _hkdf(platform_secret, _SEAL_LABEL, 32, salt=measurement.value)


def seal(data: bytes, measurement: Measurement, platform_secret: bytes, aad: bytes) -> bytes:
    """nonce ‖ ciphertext of data under the key bound to the measurement.

    aad is authenticated but not stored; unseal needs the same aad.
    """
    nonce = secrets.token_bytes(NONCE_LEN)
    aead = ChaCha20Poly1305(_sealing_key(measurement, platform_secret))
    return nonce + aead.encrypt(nonce, data, aad)


def unseal(sealed: bytes, measurement: Measurement, platform_secret: bytes, aad: bytes) -> bytes:
    aead = ChaCha20Poly1305(_sealing_key(measurement, platform_secret))
    try:
        return aead.decrypt(sealed[:NONCE_LEN], sealed[NONCE_LEN:], aad)
    except (InvalidTag, ValueError):
        raise SealError("unseal failed") from None
