"""Single entry point: serve, simulate, ha, device, and keygen subcommands.

serve runs the backend over TCP (platform secret from CCT_PLATFORM_SECRET).
simulate executes a scenario file end to end and prints its report; exit
status 0 means every audit passed. ha and device issue single protocol
interactions against a live service, always through the attested encrypted
channel. keygen emits a fresh platform/health-authority key set.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import secrets
import sys
from pathlib import Path

from cct import wire
from cct.authority import HealthAuthorityCredential, issue_test_token, token_hash
from cct.client import EnclaveClient, TcpTransport
from cct.config import DeploymentConfig
from cct.contact_log import ContactLog
from cct.enclave import Enclave, GpsPoint, gps_events_to_wire
from cct.errors import ProtocolError
from cct.attestation import platform_verify_key
from cct.service import EnclaveServer, EnclaveService
from cct.sim import ScenarioConfig, run_scenario


def _print_json(value: dict) -> None:
    sys.stdout.write(wire.canonical_encode(value).decode("ascii") + "\n")


def _print_response(msg: dict) -> None:
    """A response message as command output: its fields without the type."""
    _print_json({k: v for k, v in msg.items() if k != "type"})


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_keygen(args: argparse.Namespace) -> int:
    platform_secret = secrets.token_bytes(32)
    ha_seed = secrets.token_bytes(32)
    credential = HealthAuthorityCredential.from_seed(ha_seed)
    _print_json(
        {
            "ha_signing_key": ha_seed.hex(),
            "ha_verify_key": credential.verify_key.hex(),
            "platform_secret": platform_secret.hex(),
            "platform_verify_key": platform_verify_key(platform_secret).hex(),
        }
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    secret_hex = os.environ.get("CCT_PLATFORM_SECRET")
    if not secret_hex:
        return _fail("CCT_PLATFORM_SECRET must be set (64 hex chars)", 2)
    try:
        platform_secret = bytes.fromhex(secret_hex)
    except ValueError:
        return _fail("CCT_PLATFORM_SECRET is not valid hex", 2)
    deployment = _deployment(args)
    store = args.store or deployment.store_path
    enclave = Enclave(deployment.enclave, platform_secret, store_path=store)
    server = EnclaveServer(
        EnclaveService(enclave, platform_secret), host=deployment.host, port=deployment.port
    )
    actual_host, actual_port = server.server_address[:2]
    print(
        f"serving measurement {enclave.measurement.hex()} "
        f"on {actual_host}:{actual_port}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig.from_file(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.mode is not None:
        config = config.with_mode(args.mode)
    report = run_scenario(
        config,
        insecure_plaintext=args.insecure_plaintext,
        log_polls=args.log_polls,
        live=args.live,
    )
    payload = report.to_json_bytes()
    if args.out:
        Path(args.out).write_bytes(payload + b"\n")
    sys.stdout.write(payload.decode("ascii") + "\n")
    return 0 if report.passed else 1


def _deployment(args: argparse.Namespace) -> DeploymentConfig:
    """The --config file with --host and --port applied, checked like the file."""
    deployment = DeploymentConfig.from_file(args.config)
    return dataclasses.replace(
        deployment,
        host=args.host or deployment.host,
        port=deployment.port if args.port is None else args.port,
    )


def _client_from_config(deployment: DeploymentConfig) -> EnclaveClient:
    if deployment.platform_verify_key is None:
        raise ProtocolError("config lacks platform_verify_key")
    return EnclaveClient(
        TcpTransport(deployment.host, deployment.port),
        expected_measurement=deployment.enclave.measurement(),
        platform_verify_key=deployment.platform_verify_key,
    )


def _cmd_ha(args: argparse.Namespace) -> int:
    if args.ha_command == "issue-token":
        token = issue_test_token()
        _print_json({"token": token.hex(), "token_hash": token_hash(token).hex()})
        return 0
    # report
    credential = HealthAuthorityCredential.from_seed(bytes.fromhex(args.key))
    report = credential.sign_report(
        bytes.fromhex(args.token_hash), args.result, args.interval
    )
    client = _client_from_config(_deployment(args))
    client.register_report(report)
    _print_json({"registered": report.token_hash.hex()})
    return 0


def _load_trace(path: str) -> list[GpsPoint]:
    entries = wire.lenient_decode(Path(path).read_bytes())
    if not isinstance(entries, list):
        raise ProtocolError("trace file must contain a JSON array")
    for entry in entries:
        wire.validate_gps_point(entry)
    return [GpsPoint.from_wire(e) for e in entries]


def _cmd_device(args: argparse.Namespace) -> int:
    deployment = _deployment(args)
    client = _client_from_config(deployment)
    command = args.device_command
    if command == "result":
        result = client.poll_result(bytes.fromhex(args.token))
        _print_json({"result": result})
        return 0
    if command == "upload":
        log = ContactLog.load(args.log)
        client.upload_tuples(bytes.fromhex(args.token), log.export())
        _print_json({"uploaded": len(log)})
        return 0
    if command == "upload-secret":
        client.upload_secret(
            bytes.fromhex(args.token),
            bytes.fromhex(args.secret),
            args.from_interval,
            args.to_interval,
        )
        _print_json({"uploaded": args.to_interval - args.from_interval + 1})
        return 0
    if command == "poll":
        log = ContactLog.load(args.log)
        _print_response(client.poll(log.export()).to_wire())
        return 0
    if command == "gps-upload":
        client.upload_gps(bytes.fromhex(args.token), _load_trace(args.trace))
        _print_json({"uploaded": True})
        return 0
    if command == "gps-poll":
        bounds = deployment.enclave
        events = client.poll_gps(
            _load_trace(args.trace),
            d_max=bounds.gps_d_max if args.d_max is None else args.d_max,
            tau=bounds.gps_tau if args.tau is None else args.tau,
        )
        _print_response(gps_events_to_wire(events))
        return 0
    raise AssertionError(f"unhandled device command {command!r}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="deployment config JSON")
    parser.add_argument("--host", help="override config host")
    parser.add_argument("--port", type=int, help="override config port")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cct", description="privacy-preserving contact tracing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the backend service")
    _add_endpoint_args(serve)
    serve.add_argument("--store", help="sealed state file path")
    serve.set_defaults(func=_cmd_serve)

    simulate = sub.add_parser("simulate", help="run a scenario end to end")
    simulate.add_argument("--scenario", required=True, help="scenario JSON file")
    simulate.add_argument("--seed", type=int, help="override scenario seed")
    simulate.add_argument(
        "--mode", choices=("tuple", "secret"), help="override upload mode"
    )
    simulate.add_argument("--out", help="also write the report to this path")
    simulate.add_argument("--insecure-plaintext", action="store_true")
    simulate.add_argument("--log-polls", action="store_true")
    simulate.add_argument(
        "--live", action="store_true", help="drive a real TCP service"
    )
    simulate.set_defaults(func=_cmd_simulate)

    keygen = sub.add_parser("keygen", help="generate platform and HA keys")
    keygen.set_defaults(func=_cmd_keygen)

    ha = sub.add_parser("ha", help="health-authority operations")
    ha_sub = ha.add_subparsers(dest="ha_command", required=True)
    issue = ha_sub.add_parser("issue-token", help="issue a fresh test token")
    issue.set_defaults(func=_cmd_ha)
    report = ha_sub.add_parser("report", help="sign and register a test result")
    _add_endpoint_args(report)
    report.add_argument("--key", required=True, help="HA signing key seed (hex)")
    report.add_argument("--token-hash", required=True, help="SHA-256 of the token")
    report.add_argument(
        "--result", required=True, choices=("positive", "negative")
    )
    report.add_argument("--interval", required=True, type=int)
    report.set_defaults(func=_cmd_ha)

    device = sub.add_parser("device", help="device operations")
    device_sub = device.add_subparsers(dest="device_command", required=True)

    result = device_sub.add_parser("result", help="poll own test result")
    _add_endpoint_args(result)
    result.add_argument("--token", required=True, help="test token (hex)")
    result.set_defaults(func=_cmd_device)

    upload = device_sub.add_parser("upload", help="upload contact log")
    _add_endpoint_args(upload)
    upload.add_argument("--token", required=True)
    upload.add_argument("--log", required=True, help="contact log JSON file")
    upload.set_defaults(func=_cmd_device)

    upload_secret = device_sub.add_parser(
        "upload-secret", help="upload device secret for an interval range"
    )
    _add_endpoint_args(upload_secret)
    upload_secret.add_argument("--token", required=True)
    upload_secret.add_argument("--secret", required=True, help="device secret (hex)")
    upload_secret.add_argument(
        "--from", dest="from_interval", required=True, type=int
    )
    upload_secret.add_argument("--to", dest="to_interval", required=True, type=int)
    upload_secret.set_defaults(func=_cmd_device)

    poll = device_sub.add_parser("poll", help="poll for contact matches")
    _add_endpoint_args(poll)
    poll.add_argument("--log", required=True, help="contact log JSON file")
    poll.set_defaults(func=_cmd_device)

    gps_upload = device_sub.add_parser("gps-upload", help="upload a GPS trace")
    _add_endpoint_args(gps_upload)
    gps_upload.add_argument("--token", required=True)
    gps_upload.add_argument("--trace", required=True, help="trace JSON file")
    gps_upload.set_defaults(func=_cmd_device)

    gps_poll = device_sub.add_parser("gps-poll", help="poll with a GPS trace")
    _add_endpoint_args(gps_poll)
    gps_poll.add_argument("--trace", required=True)
    gps_poll.add_argument("--d-max", type=float, dest="d_max", help="default and cap: gps_d_max")
    gps_poll.add_argument("--tau", type=float, help="default and cap: gps_tau")
    gps_poll.set_defaults(func=_cmd_device)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
