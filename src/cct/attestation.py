"""Simulated trusted-execution trust layer.

Stands in for the hardware attestation chain: a platform Ed25519 key signs
quotes binding an enclave measurement to an ephemeral session key, clients
verify quotes against a well-known platform verification key, and both sides
run X25519 + HKDF to get direction-separated channel keys. None of this is
hardware-backed; the point is to preserve the trust topology (clients trust
a platform root, not the service operator) so the protocol's privacy
properties are machine-checkable.

Each AEAD use has one form and one entry point:

- Envelopes: a `SecureChannel`, the one session object. The handshake
  (`establish_session` on the client, `accept_session` in the enclave)
  returns it built for its side. `encrypt` returns the canonical envelope
  bytes and `decrypt` opens them, reading them with `wire.decode_envelope`;
  no envelope crosses as a dict. The channel owns the sequence numbers, the
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
import threading
from binascii import hexlify
from typing import NamedTuple

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

from cct import CheckedValue, wire
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

class _MeasurementFields(NamedTuple):
    value: bytes


class Measurement(CheckedValue, _MeasurementFields):
    """32-byte hash identifying the enclave code and configuration."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> "Measurement":
        if len(value) != MEASUREMENT_LEN:
            raise ValueError(f"measurement must be {MEASUREMENT_LEN} bytes")
        return tuple.__new__(cls, (value,))

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


class _QuoteFields(NamedTuple):
    measurement: Measurement
    enclave_session_pub: bytes
    platform_signature: bytes


class AttestationQuote(CheckedValue, _QuoteFields):
    """Platform-signed statement binding a measurement to a session key."""

    __slots__ = ()

    def __new__(
        cls, measurement: Measurement, enclave_session_pub: bytes, platform_signature: bytes
    ) -> "AttestationQuote":
        if len(enclave_session_pub) != 32:
            raise ValueError("enclave session public key must be 32 bytes")
        if len(platform_signature) != 64:
            raise ValueError("platform signature must be 64 bytes")
        return tuple.__new__(cls, (measurement, enclave_session_pub, platform_signature))

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
    return unsigned._replace(platform_signature=signing_key.sign(unsigned.signed_payload()))


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


def _session(shared: bytes, client: bool) -> SecureChannel:
    """The channel of one side: direction-separated keys and the session id."""
    c2e = _hkdf(shared, _C2E_LABEL, 32)
    e2c = _hkdf(shared, _E2C_LABEL, 32)
    session_id = _hkdf(shared, _SID_LABEL, SESSION_ID_LEN)
    if client:
        return SecureChannel(session_id, send_key=c2e, recv_key=e2c)
    return SecureChannel(session_id, send_key=e2c, recv_key=c2e)


def establish_session(
    client_ephemeral_secret: X25519PrivateKey, quote: AttestationQuote
) -> SecureChannel:
    """Client side; callers must have verified the quote first."""
    return _session(_exchange(client_ephemeral_secret, quote.enclave_session_pub), client=True)


def accept_session(
    enclave_ephemeral_secret: X25519PrivateKey, client_session_pub: bytes
) -> SecureChannel:
    """Enclave side of the same derivation."""
    return _session(_exchange(enclave_ephemeral_secret, client_session_pub), client=False)


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def _sequence_nonce(sequence: int) -> bytes:
    return bytes(4) + sequence.to_bytes(8, "big")


class SecureChannel:
    """One endpoint of an established session; the only envelope API.

    The handshake builds it for its side. It encrypts under its own
    direction's key and opens the other direction's envelopes. Sequence
    numbers start at 1 and are the nonce, and an envelope is accepted only
    with a sequence above every one accepted before it. Connections may
    share one session, so each sequence is sent once and accepted once.
    """

    def __init__(self, session_id: bytes, send_key: bytes, recv_key: bytes):
        self.session_id = session_id
        self._session_hex = hexlify(session_id)
        self._send = ChaCha20Poly1305(send_key)
        self._recv = ChaCha20Poly1305(recv_key)
        self._next_send = 1
        self._last_recv = 0
        self._lock = threading.Lock()

    def encrypt(self, plaintext: bytes) -> bytes:
        """The canonical envelope bytes carrying plaintext."""
        with self._lock:
            sequence = self._next_send
            if sequence >= 2**64:
                raise ValueError("sequence out of range")
            self._next_send = sequence + 1
        nonce = _sequence_nonce(sequence)
        ciphertext = self._send.encrypt(nonce, plaintext, self.session_id)
        return wire.ENVELOPE % (hexlify(ciphertext), hexlify(nonce), sequence, self._session_hex)

    def decrypt(self, raw: bytes) -> bytes:
        """The plaintext of the envelope in raw.

        A malformed envelope raises its WireError before anything else is
        checked; then a replayed sequence, then a wrong session id or nonce
        or a bad tag, raise EnvelopeError. A refused envelope does not use
        up its sequence.
        """
        ciphertext, nonce, sequence, session_id = wire.decode_envelope(raw)
        # held across the open, so that racing copies of one envelope open once
        with self._lock:
            if sequence <= self._last_recv:
                raise EnvelopeError("replay")
            if session_id != self.session_id or nonce != _sequence_nonce(sequence):
                raise EnvelopeError("decrypt failed")
            try:
                plaintext = self._recv.decrypt(nonce, ciphertext, self.session_id)
            except InvalidTag:
                raise EnvelopeError("decrypt failed") from None
            self._last_recv = sequence
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
