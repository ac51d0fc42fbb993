"""Health-authority client logic.

The health authority is the only party allowed to register test results with
the backend. It hands the tested user a fresh random token out of band,
keeps only the token's hash, and signs (token_hash, result, interval) with
its Ed25519 key. The backend knows the verification key from its config.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from cct.errors import AuthorizationError
from cct.wire import canonical_encode

TOKEN_LEN = 32

RESULT_POSITIVE = "positive"
RESULT_NEGATIVE = "negative"
RESULT_UNKNOWN = "unknown"
_REPORTABLE = (RESULT_POSITIVE, RESULT_NEGATIVE)


def token_hash(token: bytes) -> bytes:
    """The only form in which a token may exist server-side."""
    if len(token) != TOKEN_LEN:
        raise ValueError(f"token must be {TOKEN_LEN} bytes")
    return hashlib.sha256(token).digest()


def issue_test_token() -> bytes:
    """Fresh 32-byte token handed to the tested user, from the OS CSPRNG."""
    return secrets.token_bytes(TOKEN_LEN)


@dataclass(frozen=True)
class SignedReport:
    """HA-signed test outcome bound to a token hash."""

    token_hash: bytes
    result: str
    interval: int
    signature: bytes

    def to_wire(self) -> dict:
        return {
            "interval": self.interval,
            "result": self.result,
            "signature": self.signature.hex(),
            "token_hash": self.token_hash.hex(),
            "type": "report_req",
        }

    @classmethod
    def from_wire(cls, msg: dict) -> "SignedReport":
        return cls(
            token_hash=bytes.fromhex(msg["token_hash"]),
            result=msg["result"],
            interval=msg["interval"],
            signature=bytes.fromhex(msg["signature"]),
        )


def report_signing_bytes(token_hash_: bytes, result: str, interval: int) -> bytes:
    """Canonical encoding covered by the report signature."""
    if len(token_hash_) != 32:
        raise ValueError("token hash must be 32 bytes")
    if result not in _REPORTABLE:
        raise ValueError(f"result must be one of {_REPORTABLE}")
    if interval < 0:
        raise ValueError("interval must be non-negative")
    return canonical_encode(
        {"interval": interval, "result": result, "token_hash": token_hash_.hex()}
    )


class HealthAuthorityCredential:
    """Ed25519 signing identity of a health authority."""

    def __init__(self, signing_key: Ed25519PrivateKey):
        self._signing_key = signing_key

    @classmethod
    def generate(cls) -> "HealthAuthorityCredential":
        return cls(Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "HealthAuthorityCredential":
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    @property
    def verify_key(self) -> bytes:
        return self._signing_key.public_key().public_bytes_raw()

    def signing_key_bytes(self) -> bytes:
        return self._signing_key.private_bytes_raw()

    def sign_report(self, token_hash_: bytes, result: str, interval: int) -> SignedReport:
        payload = report_signing_bytes(token_hash_, result, interval)
        return SignedReport(
            token_hash=token_hash_,
            result=result,
            interval=interval,
            signature=self._signing_key.sign(payload),
        )


def verify_report(verify_key: bytes, report: SignedReport) -> None:
    """Raises AuthorizationError('unauthorized reporter') unless genuine."""
    try:
        payload = report_signing_bytes(report.token_hash, report.result, report.interval)
        public = Ed25519PublicKey.from_public_bytes(verify_key)
        public.verify(report.signature, payload)
    except (InvalidSignature, ValueError):
        raise AuthorizationError("unauthorized reporter") from None
