import pytest

from cct import wire
from cct.attestation import generate_quote, platform_signing_key
from cct.authority import token_hash
from cct.config import DeploymentConfig
from cct.enclave import EnclaveConfig, MatchResult
from cct.ident import TimeParams

from conftest import PLATFORM_SECRET

# every enclave field away from its default
NON_DEFAULT_MEASUREMENT = "fe0fc8879d1311d3e6559c791ae88e28d3cf40cc3ce38add30e0d5d4768041ba"

# one changed value per config field, by whether it enters the measurement
ENCLAVE_CHANGES = {
    "delta_t": 300,
    "gps_d_max": 20.0,
    "gps_tau": 60.0,
    "ha_verify_key": "11" * 32,
    "retention": 10,
    "strict_interval_match": False,
    "t0": 5,
}
DEPLOYMENT_CHANGES = {
    "host": "10.0.0.2",
    "platform_verify_key": "06" * 32,
    "port": 1,
    "store_path": "/elsewhere.sealed",
}


@pytest.fixture
def non_default(ha) -> DeploymentConfig:
    return DeploymentConfig(
        enclave=EnclaveConfig(
            ha_verify_key=ha.verify_key,
            time=TimeParams(t0=1000, delta_t=600),
            retention=77,
            strict_interval_match=True,
            gps_d_max=12.5,
            gps_tau=300.0,
        ),
        host="10.0.0.1",
        port=9999,
        platform_verify_key=b"\x05" * 32,
        store_path="/tmp/x.sealed",
    )


def test_measurement_pinned(non_default):
    assert non_default.enclave.measurement().hex() == NON_DEFAULT_MEASUREMENT


def test_change_tables_cover_every_field(non_default):
    assert set(ENCLAVE_CHANGES) == set(non_default.enclave.to_value())
    assert set(ENCLAVE_CHANGES) | set(DEPLOYMENT_CHANGES) == set(non_default.to_value())


@pytest.mark.parametrize(
    "name, changed",
    [*ENCLAVE_CHANGES.items(), *DEPLOYMENT_CHANGES.items()],
)
def test_measured_fields(non_default, name, changed):
    value = non_default.to_value()
    assert value[name] != changed
    value[name] = changed
    measurement = DeploymentConfig.from_value(value).enclave.measurement()
    if name in ENCLAVE_CHANGES:
        assert measurement != non_default.enclave.measurement()
    else:
        assert measurement == non_default.enclave.measurement()


def test_round_trip(non_default, ha):
    minimal = DeploymentConfig(enclave=EnclaveConfig(ha_verify_key=ha.verify_key))
    for config in (non_default, minimal):
        assert DeploymentConfig.from_value(config.to_value()) == config
        assert EnclaveConfig.from_value(config.enclave.to_value()) == config.enclave
    # absent fields take the dataclass defaults
    assert DeploymentConfig.from_value({"ha_verify_key": ha.verify_key.hex()}) == minimal


def test_missing_ha_verify_key_rejected(non_default):
    value = non_default.to_value()
    del value["ha_verify_key"]
    with pytest.raises(ValueError, match="missing config field: ha_verify_key"):
        DeploymentConfig.from_value(value)


@pytest.mark.parametrize(
    "name, key, reason",
    [
        ("ha_verify_key", "00", "expected 32 bytes, got 1"),
        ("ha_verify_key", "00" * 33, "expected 32 bytes, got 33"),
        ("ha_verify_key", "zz" * 32, "not hex"),
        ("platform_verify_key", "ab", "expected 32 bytes, got 1"),
        ("platform_verify_key", "", "expected 32 bytes, got 0"),
    ],
)
def test_wrong_length_key_rejected(non_default, name, key, reason):
    value = {**non_default.to_value(), name: key}
    with pytest.raises(ValueError, match=f"^config field {name}: {reason}$"):
        DeploymentConfig.from_value(value)
    if name == "ha_verify_key":
        with pytest.raises(ValueError, match=f"^config field {name}: {reason}$"):
            EnclaveConfig.from_value({name: key})


@pytest.mark.parametrize(
    "name, changed, reason",
    [
        ("retention", -1, "retention must be non-negative"),
        ("gps_d_max", -0.5, "gps_d_max must be non-negative"),
        ("gps_tau", -1.0, "gps_tau must be non-negative"),
        ("port", 65536, "port must be in 0-65535"),
        ("port", 70000, "port must be in 0-65535"),
        ("port", -1, "port must be in 0-65535"),
    ],
)
def test_out_of_range_field_rejected(non_default, name, changed, reason):
    value = {**non_default.to_value(), name: changed}
    with pytest.raises(ValueError, match=f"^{reason}$"):
        DeploymentConfig.from_value(value)
    if name in ENCLAVE_CHANGES:
        with pytest.raises(ValueError, match=f"^{reason}$"):
            EnclaveConfig.from_value({k: v for k, v in value.items() if k in ENCLAVE_CHANGES})


@pytest.mark.parametrize(
    "name, edge",
    [("retention", 0), ("gps_d_max", 0.0), ("gps_tau", 0.0), ("port", 0), ("port", 65535)],
)
def test_range_edges_accepted(non_default, name, edge):
    value = {**non_default.to_value(), name: edge}
    assert DeploymentConfig.from_value(value).to_value()[name] == edge


def _wire_round_trip(record):
    msg = wire.decode(wire.encode(record.to_wire()))
    assert type(record).from_wire(msg) == record


def test_attestation_quote_codec(non_default):
    signing_key = platform_signing_key(PLATFORM_SECRET)
    quote = generate_quote(signing_key, non_default.enclave.measurement(), b"\x03" * 32)
    assert quote.to_wire()["type"] == "attest_resp"
    _wire_round_trip(quote)


def test_signed_report_codec(ha):
    report = ha.sign_report(token_hash(b"\x22" * 32), "positive", 12)
    assert report.to_wire()["type"] == "report_req"
    _wire_round_trip(report)


@pytest.mark.parametrize("intervals", [[], [3, 1, 3]])
def test_match_result_codec(intervals):
    result = MatchResult.from_intervals(intervals)
    assert result.to_wire()["type"] == "poll_resp"
    _wire_round_trip(result)
