import hashlib

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from cct.authority import HealthAuthorityCredential, issue_test_token
from cct.enclave import SignedReport, report_signing_bytes, token_hash, verify_report
from cct.errors import AuthorizationError

from conftest import HA_SEED


def test_issue_token_fresh_and_sized():
    a, b = issue_test_token(), issue_test_token()
    assert len(a) == 32
    assert a != b


def test_token_hash_definition():
    token = issue_test_token()
    assert token_hash(token) == hashlib.sha256(token).digest()
    with pytest.raises(ValueError):
        token_hash(b"short")


def test_sign_verify_round_trip(ha):
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    verify_report(ha.verify_key, report)


def test_result_flip_rejected(ha):
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    flipped = SignedReport(
        token_hash=report.token_hash,
        result="negative",
        interval=report.interval,
        signature=report.signature,
    )
    with pytest.raises(AuthorizationError, match="unauthorized reporter"):
        verify_report(ha.verify_key, flipped)


def test_interval_change_rejected(ha):
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    moved = SignedReport(
        token_hash=report.token_hash,
        result=report.result,
        interval=13,
        signature=report.signature,
    )
    with pytest.raises(AuthorizationError):
        verify_report(ha.verify_key, moved)


def test_wrong_key_rejected(ha):
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    other = HealthAuthorityCredential.generate()
    with pytest.raises(AuthorizationError):
        verify_report(other.verify_key, report)


def test_forged_signature_rejected(ha):
    forged = HealthAuthorityCredential.generate().sign_report(
        token_hash(bytes(32)), "positive", 12
    )
    with pytest.raises(AuthorizationError):
        verify_report(ha.verify_key, forged)


def test_token_hash_mutation_rejected(ha):
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    for position in range(32):
        corrupted = bytearray(report.token_hash)
        corrupted[position] ^= 0x01
        mutated = SignedReport(
            token_hash=bytes(corrupted),
            result=report.result,
            interval=report.interval,
            signature=report.signature,
        )
        with pytest.raises(AuthorizationError):
            verify_report(ha.verify_key, mutated)


def test_signature_covers_every_encoding_byte(ha):
    """Exhaustive single-byte mutations of the signed canonical encoding."""
    payload = report_signing_bytes(token_hash(bytes(32)), "positive", 12)
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    public = Ed25519PublicKey.from_public_bytes(ha.verify_key)
    public.verify(report.signature, payload)
    for position in range(len(payload)):
        mutated = bytearray(payload)
        mutated[position] ^= 0x01
        with pytest.raises(InvalidSignature):
            public.verify(report.signature, bytes(mutated))


def test_signature_mutation_rejected(ha):
    report = ha.sign_report(token_hash(bytes(32)), "positive", 12)
    for position in range(64):
        corrupted = bytearray(report.signature)
        corrupted[position] ^= 0x01
        mutated = SignedReport(
            token_hash=report.token_hash,
            result=report.result,
            interval=report.interval,
            signature=bytes(corrupted),
        )
        with pytest.raises(AuthorizationError):
            verify_report(ha.verify_key, mutated)


def test_signing_bytes_canonical(ha):
    th = token_hash(bytes(32))
    payload = report_signing_bytes(th, "negative", 3)
    assert payload == (
        b'{"interval":3,"result":"negative","token_hash":"%s"}' % th.hex().encode()
    )


def test_signing_bytes_validation():
    with pytest.raises(ValueError):
        report_signing_bytes(b"short", "positive", 0)
    with pytest.raises(ValueError):
        report_signing_bytes(bytes(32), "unknown", 0)
    with pytest.raises(ValueError):
        report_signing_bytes(bytes(32), "positive", -1)


def test_seed_round_trip(ha):
    clone = HealthAuthorityCredential.from_seed(HA_SEED)
    assert clone.verify_key == ha.verify_key
    report = clone.sign_report(token_hash(b"\x05" * 32), "positive", 1)
    verify_report(ha.verify_key, report)
