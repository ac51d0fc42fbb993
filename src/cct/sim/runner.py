"""End-to-end scenario execution over the real protocol stack.

Everything a deployment would do happens here, in deterministic order: per
interval devices exchange identifiers, scheduled positives go through the
health-authority flow (report, result poll, upload in the configured mode;
each upload also sweeps expired entries from the store), and devices poll
for matches on their schedule. Every byte between clients and backend crosses the wire layer and
is recorded; afterwards the transcript, flush, and authorization audits run
and the whole outcome is reduced to a canonical SimReport.

Devices and backend run in one process over an in-memory channel by
default; `live=True` routes identical bytes through a real TCP server
instead. The negative controls deliberately break the privacy guarantees so
the audits can demonstrate they catch violations.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass

from cct import wire
from cct.attestation import platform_verify_key
from cct.authority import (
    RESULT_NEGATIVE,
    RESULT_POSITIVE,
    HealthAuthorityCredential,
    token_hash,
)
from cct.client import (
    EnclaveClient,
    LoopbackTransport,
    RecordingTransport,
    TcpTransport,
)
from cct.contact_log import ContactLog, ContactTuple
from cct.enclave import Enclave, EnclaveConfig
from cct.errors import RemoteError
from cct.ident import derive_identifier, derive_identifier_range
from cct.sim.audit import audit_transcript, state_digest
from cct.sim.encounters import generate_encounters
from cct.sim.oracle import oracle_notified
from cct.sim.scenario import (
    InfectionSpec,
    ScenarioConfig,
    material,
    poll_intervals,
)
from cct.service import EnclaveServer, EnclaveService


@dataclass(frozen=True)
class SimReport:
    """Reduced outcome of one scenario run; canonical JSON is the wire form."""

    notified: tuple[int, ...]
    oracle_notified: tuple[int, ...]
    transcript_leaks: int
    state_digest_violations: int
    auth_violations: int

    @property
    def passed(self) -> bool:
        return (
            self.notified == self.oracle_notified
            and self.transcript_leaks == 0
            and self.state_digest_violations == 0
            and self.auth_violations == 0
        )

    def to_value(self) -> dict:
        return {
            "auth_violations": self.auth_violations,
            "notified": list(self.notified),
            "oracle_notified": list(self.oracle_notified),
            "passed": self.passed,
            "state_digest_violations": self.state_digest_violations,
            "transcript_leaks": self.transcript_leaks,
        }

    def to_json_bytes(self) -> bytes:
        return wire.canonical_encode(self.to_value())


class _Clock:
    """Simulation-owned time source injected into the enclave."""

    def __init__(self, t0: int, delta_t: int) -> None:
        self._t0 = t0
        self._delta_t = delta_t
        self._now = t0

    def set_interval(self, k: int) -> None:
        # middle of the interval, well away from boundary rounding
        self._now = self._t0 + k * self._delta_t + self._delta_t // 2

    def __call__(self) -> float:
        return self._now


class _PlaintextTranscriptService(EnclaveService):
    """Negative control: every application request and response, as the
    canonical plaintext that `_dispatch` sees, joins the audited transcript."""

    def __init__(self, enclave: Enclave, platform_secret: bytes, transcript: wire.Transcript):
        super().__init__(enclave, platform_secret)
        self._transcript = transcript

    def _dispatch(self, msg: dict) -> dict:
        self._transcript.append("c2e", wire.encode(msg))
        response = super()._dispatch(msg)
        self._transcript.append("e2c", wire.encode(response))
        return response


@dataclass
class _Device:
    index: int
    secret: bytes
    log: ContactLog
    client: EnclaveClient


def run_scenario(
    config: ScenarioConfig,
    insecure_plaintext: bool = False,
    log_polls: bool = False,
    live: bool = False,
) -> SimReport:
    encounters = generate_encounters(config)
    oracle = oracle_notified(config, encounters)

    params = config.time_params()
    clock = _Clock(config.t0, config.delta_t)
    platform_secret = material(config.seed, "platform", 0)
    ha_credential = HealthAuthorityCredential.from_seed(material(config.seed, "ha", 0))
    enclave_config = EnclaveConfig(
        ha_verify_key=ha_credential.verify_key,
        time=params,
        retention=config.retention,
        strict_interval_match=config.strict_interval_match,
    )
    enclave = Enclave(
        enclave_config, platform_secret, clock=clock, log_polls=log_polls
    )
    transcript = wire.Transcript()
    if insecure_plaintext:
        service = _PlaintextTranscriptService(enclave, platform_secret, transcript)
    else:
        service = EnclaveService(enclave, platform_secret)

    server: EnclaveServer | None = None
    server_thread: threading.Thread | None = None
    tcp_transports: list[TcpTransport] = []
    try:
        if live:
            server = EnclaveServer(service, host="127.0.0.1", port=0)
            server_thread = threading.Thread(target=server.serve_forever, daemon=True)
            server_thread.start()
            host, port = server.server_address[:2]

            def new_transport():
                transport = TcpTransport(host, port)
                tcp_transports.append(transport)
                return RecordingTransport(transport, transcript)

        else:

            def new_transport():
                return RecordingTransport(LoopbackTransport(service), transcript)

        verify_key = platform_verify_key(platform_secret)

        def new_client() -> EnclaveClient:
            return EnclaveClient(
                new_transport(),
                expected_measurement=enclave_config.measurement(),
                platform_verify_key=verify_key,
            )

        devices = [
            _Device(
                index=d,
                secret=material(config.seed, "secret", d),
                log=ContactLog(retention_intervals=config.retention),
                client=new_client(),
            )
            for d in range(config.n_devices)
        ]
        ha_client = new_client()

        encounters_at: dict[int, list] = defaultdict(list)
        for event in encounters:
            encounters_at[event.interval].append(event)
        infections_at: dict[int, list[tuple[int, InfectionSpec]]] = defaultdict(list)
        for spec_index, spec in enumerate(config.infected):
            infections_at[spec.test_interval].append((spec_index, spec))
        poll_at = set(poll_intervals(config))

        notified: set[int] = set()
        flush_violations = 0

        for k in range(config.n_intervals):
            clock.set_interval(k)

            for event in encounters_at[k]:
                a = devices[event.device_i]
                b = devices[event.device_j]
                id_a = derive_identifier(a.secret, k)
                id_b = derive_identifier(b.secret, k)
                a.log.record(sent=id_a, received=id_b, interval=k)
                b.log.record(sent=id_b, received=id_a, interval=k)

            for spec_index, spec in infections_at[k]:
                token = material(config.seed, "token", spec_index)
                report = ha_credential.sign_report(token_hash(token), RESULT_POSITIVE, k)
                ha_client.register_report(report)
                device = devices[spec.device]
                result = device.client.poll_result(token)
                if result != RESULT_POSITIVE:
                    raise RuntimeError(f"unexpected test result: {result}")
                if spec.uploads:
                    device.log.prune_expired(k)
                    if spec.mode == "tuple":
                        device.client.upload_tuples(token, device.log.export())
                    else:
                        device.client.upload_secret(
                            token,
                            device.secret,
                            max(0, k - config.retention),
                            k,
                        )

            if k in poll_at:
                flush_violations += _poll_round(
                    devices, enclave, k, config.audit_polls, notified
                )

        auth_violations, probe_digest_violations = _authorization_probes(
            config, devices, enclave, ha_credential, ha_client, new_client
        )

        last = config.n_intervals - 1
        identifiers = [
            identifier
            for device in devices
            for identifier in derive_identifier_range(device.secret, 0, last, last)
        ]
        leaks = audit_transcript(
            transcript, identifiers, [device.secret for device in devices]
        )

        return SimReport(
            notified=tuple(sorted(notified)),
            oracle_notified=tuple(sorted(oracle)),
            transcript_leaks=leaks,
            state_digest_violations=flush_violations + probe_digest_violations,
            auth_violations=auth_violations,
        )
    finally:
        for transport in tcp_transports:
            transport.close()
        if server is not None:
            server.shutdown()
            server.server_close()
        if server_thread is not None:
            server_thread.join(timeout=5)


def _poll_round(
    devices: list[_Device],
    enclave: Enclave,
    k: int,
    audit_polls: bool,
    notified: set[int],
) -> int:
    """Run one poll per device; returns flush-audit violations observed."""
    violations = 0
    before = state_digest(enclave)
    for device in devices:
        device.log.prune_expired(k)
        result = device.client.poll(device.log.export())
        if result.matched:
            notified.add(device.index)
        if audit_polls:
            after = state_digest(enclave)
            if after != before:
                violations += 1
                before = after
    if not audit_polls:
        after = state_digest(enclave)
        if after != before:
            violations += 1
    return violations


def _authorization_probes(
    config: ScenarioConfig,
    devices: list[_Device],
    enclave: Enclave,
    ha_credential: HealthAuthorityCredential,
    ha_client: EnclaveClient,
    new_client,
) -> tuple[int, int]:
    """Scripted rogue actions; every acceptance is an authorization violation.

    Runs after the scenario proper. A legitimate negative report is
    registered first (its token then serves as the unauthorized uploader),
    and the state digest is baselined after that: every probe must be
    rejected AND leave the digest untouched.
    """
    k = config.n_intervals - 1
    probe_client = new_client()
    seed = config.seed

    negative_token = material(seed, "probe-negative", 0)
    ha_client.register_report(
        ha_credential.sign_report(token_hash(negative_token), RESULT_NEGATIVE, k)
    )

    probe_tuples = [
        ContactTuple(
            interval=k,
            sent=material(seed, "probe-id", 0)[:16],
            received=material(seed, "probe-id", 1)[:16],
        )
    ]
    forged_credential = HealthAuthorityCredential.from_seed(
        material(seed, "forged-ha", 0)
    )
    forged_report = forged_credential.sign_report(
        token_hash(material(seed, "probe-forged", 0)), RESULT_POSITIVE, k
    )
    unknown_token = material(seed, "probe-unknown", 0)

    probes = [
        lambda: ha_client.register_report(forged_report),
        lambda: probe_client.upload_tuples(negative_token, probe_tuples),
        lambda: probe_client.upload_secret(
            negative_token, material(seed, "probe-secret", 0), 0, 0
        ),
        lambda: probe_client.upload_tuples(unknown_token, probe_tuples),
    ]
    used_uploaders = [
        (index, spec)
        for index, spec in enumerate(config.infected)
        if spec.uploads
    ]
    for spec_index, spec in used_uploaders[:1]:
        token = material(seed, "token", spec_index)
        secret = devices[spec.device].secret
        if spec.mode == "tuple":
            probes.append(lambda: probe_client.upload_tuples(token, probe_tuples))
        else:
            probes.append(lambda: probe_client.upload_secret(token, secret, k, k))

    accepted = 0
    digest_violations = 0
    baseline = state_digest(enclave)
    for probe in probes:
        try:
            probe()
            accepted += 1
        except RemoteError:
            pass
        digest = state_digest(enclave)
        if digest != baseline:
            digest_violations += 1
            baseline = digest
    return accepted, digest_violations
