"""Acceptance criteria, one test per criterion.

Each test prints exactly one [PASS]/[FAIL] line. The heavyweight scale runs
(seeds 1..20, both upload modes) execute once per session and are shared by
every criterion that needs them.
"""

import math
import time

import pytest

from cct.attestation import (
    AttestationQuote,
    Measurement,
    accept_session,
    compute_measurement,
    establish_session,
    generate_quote,
    platform_signing_key,
    platform_verify_key,
    verify_quote,
)
from cct.contact_log import ContactTuple
from cct.enclave import (
    RESULT_POSITIVE,
    Enclave,
    EnclaveConfig,
    GpsPoint,
    haversine_distance,
    token_hash,
)
from cct.errors import AttestationError, AuthorizationError, EnvelopeError
from cct.ident import TimeParams, derive_identifier
from cct.sim.audit import state_digest
from cct.sim.runner import run_scenario
from cct.sim.scenario import fig1_scenario, flush_scenario, scale_scenario

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

SEEDS = range(1, 21)
MODES = ("tuple", "secret")


def check(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def scale_runs():
    """All 40 scale runs: (mode, seed) -> (report, elapsed_seconds)."""
    runs = {}
    for mode in MODES:
        for seed in SEEDS:
            start = time.perf_counter()
            report = run_scenario(scale_scenario(seed=seed, mode=mode))
            runs[(mode, seed)] = (report, time.perf_counter() - start)
    return runs


def test_criterion_01_walkthrough():
    start = time.perf_counter()
    report = run_scenario(fig1_scenario())
    elapsed = time.perf_counter() - start
    ok = (
        report.notified == (0, 1)
        and 3 not in report.notified
        and report.passed
        and elapsed < 1.0
    )
    check(1, f"walkthrough notifies exactly devices 0,1 in {elapsed:.3f}s", ok)


def test_criterion_02_scale_matches_oracle(scale_runs):
    ok = True
    slowest = 0.0
    for (mode, seed), (report, elapsed) in scale_runs.items():
        slowest = max(slowest, elapsed)
        if report.notified != report.oracle_notified or elapsed >= 10.0:
            ok = False
    check(
        2,
        f"40 scale runs notified == oracle exactly (slowest {slowest:.2f}s)",
        ok,
    )


def test_criterion_03_upload_modes_equivalent(scale_runs):
    ok = all(
        scale_runs[("tuple", seed)][0].notified
        == scale_runs[("secret", seed)][0].notified
        for seed in SEEDS
    )
    check(3, "tuple and secret uploads notify identical sets on all 20 seeds", ok)


def test_criterion_04_flush_audit():
    report = run_scenario(flush_scenario())
    ok = report.state_digest_violations == 0 and report.passed
    check(4, "1000 audited polls, zero state digest changes", ok)


def test_criterion_05_transcript_privacy(scale_runs):
    honest_leaks = scale_runs[("tuple", 1)][0].transcript_leaks
    control = run_scenario(fig1_scenario(), insecure_plaintext=True)
    ok = honest_leaks == 0 and control.transcript_leaks >= 1
    check(
        5,
        f"honest transcript leaks 0, plaintext control leaks {control.transcript_leaks}",
        ok,
    )


def test_criterion_06_attestation_gate():
    platform_secret = b"\x33" * 32
    signing = platform_signing_key(platform_secret)
    verify = platform_verify_key(platform_secret)
    measurement = compute_measurement("cct-enclave/1.0", b"\x44" * 32)
    enclave_key = X25519PrivateKey.generate()
    enclave_pub = enclave_key.public_key().public_bytes_raw()
    quote = generate_quote(signing, measurement, enclave_pub)

    ok = True
    # honest quote and handshake succeed
    verify_quote(quote, measurement, verify)
    client_key = X25519PrivateKey.generate()
    client_side = establish_session(client_key, quote)
    enclave_side = accept_session(
        enclave_key, client_key.public_key().public_bytes_raw()
    )
    # both round trips open only if the ends share the session id and each direction's key
    try:
        enclave_side.decrypt(client_side.encrypt(b"request"))
        client_side.decrypt(enclave_side.encrypt(b"reply"))
    except EnvelopeError:
        ok = False

    # every single-byte corruption of the quote must be rejected
    fields = {
        "measurement": quote.measurement.value,
        "enclave_session_pub": quote.enclave_session_pub,
        "platform_signature": quote.platform_signature,
    }
    mutations = 0
    for name, value in fields.items():
        for i in range(len(value)):
            corrupted = value[:i] + bytes([value[i] ^ 0x01]) + value[i + 1 :]
            parts = dict(fields)
            parts[name] = corrupted
            mutated = AttestationQuote(
                measurement=Measurement(parts["measurement"]),
                enclave_session_pub=parts["enclave_session_pub"],
                platform_signature=parts["platform_signature"],
            )
            mutations += 1
            try:
                verify_quote(mutated, measurement, verify)
                ok = False
            except AttestationError:
                pass

    # a correctly signed quote for the wrong code is still rejected
    other = compute_measurement("cct-enclave/0.9", b"\x44" * 32)
    other_quote = generate_quote(signing, other, enclave_pub)
    try:
        verify_quote(other_quote, measurement, verify)
        ok = False
    except AttestationError as exc:
        ok = ok and str(exc) == "wrong_measurement"

    check(6, f"honest handshake ok, all {mutations} quote mutations rejected", ok)


def test_criterion_07_authorization(scale_runs):
    from cct.authority import HealthAuthorityCredential

    # every simulated run already executes the rogue probes
    ok = all(
        report.auth_violations == 0 for report, _ in scale_runs.values()
    )

    # direct probes against a fresh backend
    credential = HealthAuthorityCredential.generate()
    config = EnclaveConfig(ha_verify_key=credential.verify_key, time=TimeParams(t0=0))
    enclave = Enclave(config, b"\x55" * 32, clock=lambda: 450.0)
    token = b"\x66" * 32
    contact = [
        ContactTuple(
            interval=0,
            sent=derive_identifier(b"\x01" * 32, 0),
            received=derive_identifier(b"\x02" * 32, 0),
        )
    ]
    baseline = state_digest(enclave)
    accepted = 0

    rogue = HealthAuthorityCredential.generate()
    try:
        enclave.register_test_result(
            rogue.sign_report(token_hash(token), RESULT_POSITIVE, 0)
        )
        accepted += 1
    except AuthorizationError:
        pass
    try:
        enclave.upload_contact_log(token, contact)
        accepted += 1
    except AuthorizationError:
        pass
    if state_digest(enclave) != baseline:
        ok = False

    enclave.register_test_result(
        credential.sign_report(token_hash(token), RESULT_POSITIVE, 0)
    )
    enclave.upload_contact_log(token, contact)
    after_upload = state_digest(enclave)
    try:
        enclave.upload_contact_log(token, contact)
        accepted += 1
    except AuthorizationError:
        pass
    if state_digest(enclave) != after_upload:
        ok = False
    ok = ok and accepted == 0

    check(7, "forged reports, unauthorized and repeat uploads all rejected", ok)


def test_criterion_08_pinned_prf_vectors():
    vectors = [
        (bytes(32), 0, "e71ee28b661fa4b5205831d7ab7d7d11"),
        (bytes(32), 1, "93d94d2180fa5d9d00e96e4e42d6a233"),
        (bytes(32), 4031, "191f9ab97f7288b36c1bae32a33fce1b"),
        (b"\x01" * 32, 0, "69a3b2e8df0f2c9c2d14485a115e0edc"),
        (b"\xff" * 32, 0, "10e5c73b83479f59d3c87dc9c8db0423"),
        (bytes(range(32)), 1, "fda7637bf1c1a02dc36d2ccd5b5e7290"),
    ]
    ok = all(
        derive_identifier(secret, index).hex() == expected
        for secret, index, expected in vectors
    )
    check(8, f"{len(vectors)} pinned identifier vectors byte-exact", ok)


def test_criterion_09_gps_matching():
    origin = GpsPoint(lat=0.0, lon=0.0, t=0.0)
    east = GpsPoint(lat=0.0, lon=1.0, t=0.0)
    distance = haversine_distance(origin, east)
    ok = math.isclose(distance, 111_195, rel_tol=0.001)

    from cct.authority import HealthAuthorityCredential

    credential = HealthAuthorityCredential.generate()
    config = EnclaveConfig(ha_verify_key=credential.verify_key, time=TimeParams(t0=0))
    enclave = Enclave(config, b"\x55" * 32, clock=lambda: 450.0)
    token = b"\x66" * 32
    enclave.register_test_result(
        credential.sign_report(token_hash(token), RESULT_POSITIVE, 0)
    )
    enclave.upload_gps_trace(token, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])

    coincident = enclave.match_gps(
        [GpsPoint(lat=0.0, lon=0.0, t=100.0)], d_max=10.0, tau=300.0
    )
    far = enclave.match_gps(
        [GpsPoint(lat=0.0, lon=0.01, t=100.0)], d_max=10.0, tau=300.0
    )
    late = enclave.match_gps(
        [GpsPoint(lat=0.0, lon=0.0, t=500.0)], d_max=10.0, tau=300.0
    )
    ok = ok and coincident == [(100.0, 100.0)] and far == [] and late == []
    check(9, f"haversine 1-degree arc {distance:.1f}m, three match examples", ok)


def test_criterion_10_deterministic_reports(scale_runs):
    ok = True
    for seed in (1, 2, 3):
        cached, _ = scale_runs[("tuple", seed)]
        rerun = run_scenario(scale_scenario(seed=seed, mode="tuple"))
        if rerun.to_json_bytes() != cached.to_json_bytes():
            ok = False
    ok = ok and (
        run_scenario(fig1_scenario()).to_json_bytes()
        == run_scenario(fig1_scenario()).to_json_bytes()
    )
    check(10, "equal seeds produce byte-identical reports", ok)
