"""Health-authority side: test tokens and signed results (host code).

The health authority is the only party allowed to register test results with
the backend. It hands the tested user a fresh random token out of band,
keeps only the token's hash, and signs (token_hash, result, interval) with
its Ed25519 key. The backend knows the verification key from its config and
checks the signature with `cct.enclave.verify_report`; the enclave never
loads this module or the signing key.
"""

from __future__ import annotations

import secrets

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# perfbench/workloads.py imports RESULT_POSITIVE and token_hash from here
from cct.enclave import (  # noqa: F401
    RESULT_POSITIVE,
    TOKEN_LEN,
    SignedReport,
    report_signing_bytes,
    token_hash,
)


def issue_test_token() -> bytes:
    """Fresh 32-byte token handed to the tested user, from the OS CSPRNG."""
    return secrets.token_bytes(TOKEN_LEN)


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

    def sign_report(self, token_hash_: bytes, result: str, interval: int) -> SignedReport:
        payload = report_signing_bytes(token_hash_, result, interval)
        return SignedReport(
            token_hash=token_hash_,
            result=result,
            interval=interval,
            signature=self._signing_key.sign(payload),
        )
