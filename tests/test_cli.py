import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from cct.attestation import platform_verify_key
from cct.authority import HealthAuthorityCredential, token_hash
from cct.cli import main
from cct.client import EnclaveClient, LoopbackTransport
from cct.config import DeploymentConfig
from cct.contact_log import ContactLog
from cct.enclave import Enclave, EnclaveConfig
from cct.ident import TimeParams, derive_identifier
from cct.service import EnclaveServer, EnclaveService
from cct.wire import canonical_decode, canonical_encode

REPO = Path(__file__).resolve().parent.parent
FIG1 = str(REPO / "scenarios" / "fig1.json")

SECRET_A = b"\x0a" * 32
SECRET_C = b"\x0c" * 32


# -- keygen --------------------------------------------------------------------

def test_keygen(capsys):
    assert main(["keygen"]) == 0
    keys = canonical_decode(capsys.readouterr().out.strip().encode())
    assert sorted(keys) == [
        "ha_signing_key",
        "ha_verify_key",
        "platform_secret",
        "platform_verify_key",
    ]
    credential = HealthAuthorityCredential.from_seed(
        bytes.fromhex(keys["ha_signing_key"])
    )
    assert credential.verify_key.hex() == keys["ha_verify_key"]
    assert (
        platform_verify_key(bytes.fromhex(keys["platform_secret"])).hex()
        == keys["platform_verify_key"]
    )


def test_keygen_fresh_each_time(capsys):
    main(["keygen"])
    first = capsys.readouterr().out
    main(["keygen"])
    assert capsys.readouterr().out != first


# -- simulate --------------------------------------------------------------------

def test_simulate_fig1(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--scenario", FIG1, "--out", str(out_path)]) == 0
    report = canonical_decode(capsys.readouterr().out.strip().encode())
    assert report["passed"] is True
    assert report["notified"] == [0, 1]
    assert out_path.read_bytes().strip() == canonical_encode(report)


def test_simulate_secret_mode(capsys):
    assert main(["simulate", "--scenario", FIG1, "--mode", "secret"]) == 0
    report = canonical_decode(capsys.readouterr().out.strip().encode())
    assert report["notified"] == [0, 1]


def test_simulate_insecure_control_fails(capsys):
    assert main(["simulate", "--scenario", FIG1, "--insecure-plaintext"]) == 1
    report = canonical_decode(capsys.readouterr().out.strip().encode())
    assert report["transcript_leaks"] > 0
    assert report["transcript_leaks"] == 15
    assert report["passed"] is False


def test_simulate_missing_scenario_file(capsys):
    assert main(["simulate", "--scenario", "/nonexistent.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--scenario", FIG1, "--bogus"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_bad_mode_choice_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--scenario", FIG1, "--mode", "carrier"])
    assert excinfo.value.code == 2


# -- serve ----------------------------------------------------------------------------

def test_serve_requires_platform_secret(monkeypatch, capsys):
    monkeypatch.delenv("CCT_PLATFORM_SECRET", raising=False)
    assert main(["serve", "--config", "/nonexistent.json"]) == 2
    assert "CCT_PLATFORM_SECRET" in capsys.readouterr().err


def test_serve_rejects_bad_secret_hex(monkeypatch, capsys):
    monkeypatch.setenv("CCT_PLATFORM_SECRET", "not-hex")
    assert main(["serve", "--config", "/nonexistent.json"]) == 2
    assert "hex" in capsys.readouterr().err


def test_serve_flags_for_negative_controls_are_gone():
    for flag in ("--insecure-plaintext", "--log-polls"):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--config", "/nonexistent.json", flag])
        assert excinfo.value.code == 2


def test_plaintext_constructor_options_are_gone(enclave, enclave_config, platform_secret):
    with pytest.raises(TypeError):
        EnclaveService(enclave, platform_secret, insecure_plaintext=True)
    service = EnclaveService(enclave, platform_secret)
    with pytest.raises(TypeError):
        EnclaveClient(
            LoopbackTransport(service),
            enclave_config.measurement(),
            platform_verify_key(platform_secret),
            insecure_plaintext=True,
        )


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_port_override_out_of_range_reported(monkeypatch, tmp_path, capsys, port):
    # the override is checked like the config field it replaces
    monkeypatch.setenv("CCT_PLATFORM_SECRET", "07" * 32)
    config = tmp_path / "deploy.json"
    config.write_bytes(canonical_encode({"ha_verify_key": "11" * 32}))
    assert main(["serve", "--config", str(config), "--port", port]) == 1
    assert capsys.readouterr().err == "error: port must be in 0-65535\n"


def test_serve_loop_end_to_end(tmp_path, capsys):
    ha_seed = bytes(range(32))
    credential = HealthAuthorityCredential.from_seed(ha_seed)
    platform_secret = b"\x07" * 32
    deployment = DeploymentConfig(
        enclave=EnclaveConfig(ha_verify_key=credential.verify_key, time=TimeParams(t0=0)),
        host="127.0.0.1",
        port=0,
        platform_verify_key=platform_verify_key(platform_secret),
    )
    cfg = tmp_path / "deploy.json"
    deployment.save(cfg)
    store = tmp_path / "state.sealed"
    env = {
        **os.environ,
        "CCT_PLATFORM_SECRET": platform_secret.hex(),
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
    }
    server = subprocess.Popen(
        [sys.executable, "-m", "cct.cli", "serve", "--config", str(cfg), "--store", str(store)],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    token = "24" * 32
    try:
        line = server.stderr.readline()
        match = re.fullmatch(r"serving measurement ([0-9a-f]{64}) on 127\.0\.0\.1:(\d+)\n", line)
        assert match, line
        assert match[1] == deployment.enclave.measurement().hex()
        endpoint = ["--config", str(cfg), "--port", match[2]]
        report = [
            "--key", ha_seed.hex(),
            "--token-hash", token_hash(bytes.fromhex(token)).hex(),
            "--result", "positive",
            "--interval", "0",
        ]
        assert main(["ha", "report", *endpoint, *report]) == 0
        assert main(["device", "result", *endpoint, "--token", token]) == 0
        assert '"result":"positive"' in capsys.readouterr().out
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stderr.close()
    reloaded = Enclave(deployment.enclave, platform_secret, store_path=store)
    assert reloaded.poll_test_result(bytes.fromhex(token)) == "positive"


# -- ha ------------------------------------------------------------------------------

def test_ha_issue_token(capsys):
    assert main(["ha", "issue-token"]) == 0
    issued = canonical_decode(capsys.readouterr().out.strip().encode())
    token = bytes.fromhex(issued["token"])
    assert token_hash(token).hex() == issued["token_hash"]


# -- full TCP round trip ----------------------------------------------------------------

@pytest.fixture
def deployment(tmp_path):
    ha_seed = bytes(range(32))
    credential = HealthAuthorityCredential.from_seed(ha_seed)
    platform_secret = b"\x07" * 32
    enclave_config = EnclaveConfig(
        ha_verify_key=credential.verify_key, time=TimeParams(t0=0)
    )
    enclave = Enclave(enclave_config, platform_secret)
    service = EnclaveService(enclave, platform_secret)
    server = EnclaveServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    config_path = tmp_path / "deploy.json"
    DeploymentConfig(
        enclave=enclave_config,
        host="127.0.0.1",
        port=port,
        platform_verify_key=platform_verify_key(platform_secret),
    ).save(config_path)
    yield SimpleNamespace(
        config=str(config_path), ha_seed=ha_seed, enclave=enclave, tmp=tmp_path
    )
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_cli_end_to_end(deployment, capsys):
    cfg = deployment.config
    token = "22" * 32
    th = token_hash(bytes.fromhex(token)).hex()
    interval = deployment.enclave.current_interval()

    assert (
        main(
            [
                "ha",
                "report",
                "--config",
                cfg,
                "--key",
                deployment.ha_seed.hex(),
                "--token-hash",
                th,
                "--result",
                "positive",
                "--interval",
                str(interval),
            ]
        )
        == 0
    )
    assert th in capsys.readouterr().out

    assert main(["device", "result", "--config", cfg, "--token", token]) == 0
    assert '"result":"positive"' in capsys.readouterr().out

    log_c = ContactLog()
    log_c.record(
        sent=derive_identifier(SECRET_C, 0),
        received=derive_identifier(SECRET_A, 0),
        interval=0,
    )
    c_path = deployment.tmp / "c-log.json"
    log_c.save(c_path)
    assert main(["device", "upload", "--config", cfg, "--token", token, "--log", str(c_path)]) == 0
    assert '"uploaded":1' in capsys.readouterr().out

    log_a = ContactLog()
    log_a.record(
        sent=derive_identifier(SECRET_A, 0),
        received=derive_identifier(SECRET_C, 0),
        interval=0,
    )
    a_path = deployment.tmp / "a-log.json"
    log_a.save(a_path)
    assert main(["device", "poll", "--config", cfg, "--log", str(a_path)]) == 0
    poll = canonical_decode(capsys.readouterr().out.strip().encode())
    assert poll == {"matched": True, "matched_intervals": [0]}

    # the upload credential is single-use
    assert (
        main(
            [
                "device",
                "upload-secret",
                "--config",
                cfg,
                "--token",
                token,
                "--secret",
                SECRET_C.hex(),
                "--from",
                "0",
                "--to",
                "0",
            ]
        )
        == 1
    )
    assert "upload already used" in capsys.readouterr().err


def test_cli_gps_flow(deployment, capsys):
    cfg = deployment.config
    token = "23" * 32
    interval = deployment.enclave.current_interval()
    main(
        [
            "ha",
            "report",
            "--config",
            cfg,
            "--key",
            deployment.ha_seed.hex(),
            "--token-hash",
            token_hash(bytes.fromhex(token)).hex(),
            "--result",
            "positive",
            "--interval",
            str(interval),
        ]
    )
    capsys.readouterr()

    infected_trace = deployment.tmp / "infected.json"
    infected_trace.write_bytes(
        canonical_encode([{"lat": 1.0, "lon": 2.0, "t": 100.0}]) + b"\n"
    )
    assert (
        main(
            ["device", "gps-upload", "--config", cfg, "--token", token, "--trace", str(infected_trace)]
        )
        == 0
    )
    capsys.readouterr()

    poll_trace = deployment.tmp / "poll.json"
    poll_trace.write_bytes(
        canonical_encode([{"lat": 1.0, "lon": 2.0, "t": 250.0}]) + b"\n"
    )
    assert (
        main(
            [
                "device",
                "gps-poll",
                "--config",
                cfg,
                "--trace",
                str(poll_trace),
                "--tau",
                "300",
            ]
        )
        == 0
    )
    events = canonical_decode(capsys.readouterr().out.strip().encode())
    assert events == {"events": [{"t_infected": 100.0, "t_poller": 250.0}]}

    far_trace = deployment.tmp / "far.json"
    far_trace.write_bytes(
        canonical_encode([{"lat": -60.0, "lon": 2.0, "t": 250.0}]) + b"\n"
    )
    assert (
        main(["device", "gps-poll", "--config", cfg, "--trace", str(far_trace)]) == 0
    )
    assert canonical_decode(capsys.readouterr().out.strip().encode()) == {"events": []}


def test_cli_requires_platform_verify_key(deployment, capsys):
    stripped = DeploymentConfig.from_file(deployment.config)
    bare = DeploymentConfig(
        enclave=stripped.enclave,
        host=stripped.host,
        port=stripped.port,
        platform_verify_key=None,
    )
    path = deployment.tmp / "bare.json"
    bare.save(path)
    assert main(["device", "result", "--config", str(path), "--token", "22" * 32]) == 1
    assert "config lacks platform_verify_key" in capsys.readouterr().err


def test_cli_rejects_unknown_config_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(canonical_encode({"ha_verify_key": "00" * 32, "mystery": 1}))
    assert main(["device", "result", "--config", str(path), "--token", "22" * 32]) == 1
    assert "unknown config field" in capsys.readouterr().err


def test_hand_written_config_accepted(deployment, capsys):
    # configs people indent by hand must load; only the wire is canonical
    pretty = deployment.tmp / "pretty.json"
    pretty.write_text(
        json.dumps(DeploymentConfig.from_file(deployment.config).to_value(), indent=2)
    )
    assert main(["device", "result", "--config", str(pretty), "--token", "22" * 32]) == 0
    assert '"result":' in capsys.readouterr().out


def _fig1_with(**fields) -> dict:
    value = json.loads(Path(FIG1).read_text())
    value.update(fields)
    return value


@pytest.mark.parametrize(
    "command, value, reason",
    [
        (
            "simulate",
            _fig1_with(encounters=[{"device_i": 0, "device_j": 1}]),
            "missing encounter field: interval",
        ),
        (
            "simulate",
            _fig1_with(infected=[{"test_interval": 1}]),
            "missing infected field: device",
        ),
        ("simulate", _fig1_with(encounters=[5]), "encounter must be a JSON object"),
        (
            "simulate",
            canonical_encode(_fig1_with(encounters=[])).replace(
                b'"encounter_rate":0.0', b'"encounter_rate":1e400'
            ),
            "number out of range: 1e400",
        ),
        (
            "simulate",
            canonical_encode(_fig1_with(encounters=[])).replace(
                b'"encounter_rate":0.0', b'"encounter_rate":1' + b"0" * 400
            ),
            "scenario field encounter_rate: number out of range",
        ),
        ("simulate", b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
        (
            "device",
            {"ha_verify_key": 5},
            "config field ha_verify_key: expected str, got int",
        ),
        (
            "device",
            {"ha_verify_key": "11" * 32, "retention": -1},
            "retention must be non-negative",
        ),
        ("device", {"ha_verify_key": "11" * 32, "port": 70000}, "port must be in 0-65535"),
    ],
    ids=[
        "encounter-without-interval",
        "infected-without-device",
        "encounter-not-object",
        "encounter-rate-overflows",
        "encounter-rate-integer-overflows",
        "nested-too-deeply",
        "ha-key-not-string",
        "retention-negative",
        "port-out-of-range",
    ],
)
def test_malformed_hand_written_file_reported(tmp_path, capsys, command, value, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(value if isinstance(value, bytes) else canonical_encode(value))
    if command == "simulate":
        argv = ["simulate", "--scenario", str(path)]
    else:
        argv = ["device", "result", "--config", str(path), "--token", "22" * 32]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
