"""Deployment configuration shared by the server and its clients.

One canonical-JSON file describes a deployment: protocol timing, retention,
GPS thresholds, the health-authority verify key, the platform verify key
(for clients checking quotes), and where to reach the service. Both sides
derive the expected enclave measurement from this file, which is what makes
client-side attestation checks meaningful. Only the enclave fields enter the
measurement; the host, port, store path and platform key do not.

The readers of hand-written JSON objects live here too, shared with scenario
loading: the enclave reads no file, so they stay outside its trusted code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, NamedTuple

from cct import CheckedValue
from cct.enclave import EnclaveConfig
from cct.ident import TimeParams
from cct.wire import canonical_encode, fits_float, lenient_decode

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7700


def read_object(value: Any, template: dict, required: Iterable[str], what: str) -> dict:
    """`template` overlaid with a hand-written JSON object, once it is checked.

    `template` is a record's to_value() with its optional fields at their
    defaults. The object may hold only the template's keys, must hold each
    `required` one, and each value must have the type of the template's (an
    int passes for a float if it converts to one). Raises ValueError naming
    the offending field.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(value) - set(template)
    if unknown:
        raise ValueError(f"unknown {what} field: {sorted(unknown)[0]}")
    missing = set(required) - set(value)
    if missing:
        raise ValueError(f"missing {what} field: {sorted(missing)[0]}")
    for name, v in value.items():
        want, got = type(template[name]), type(v)
        if got is not want and not (want is float and got is int):
            raise ValueError(f"{what} field {name}: expected {want.__name__}, got {got.__name__}")
        if want is float and not fits_float(v):
            raise ValueError(f"{what} field {name}: number out of range")
    return {**template, **value}


def read_key(value: dict, name: str, what: str) -> bytes | None:
    """The 32-byte key in hex field `name` of a hand-written object, None if absent."""
    if name not in value:
        return None
    try:
        key = bytes.fromhex(value[name])
    except ValueError:
        raise ValueError(f"{what} field {name}: not hex") from None
    if len(key) != 32:
        raise ValueError(f"{what} field {name}: expected 32 bytes, got {len(key)}")
    return key


class _DeploymentFields(NamedTuple):
    enclave: EnclaveConfig
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    platform_verify_key: bytes | None = None
    store_path: str | None = None


class DeploymentConfig(CheckedValue, _DeploymentFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DeploymentConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0-65535")
        return self

    @classmethod
    def from_value(cls, value: Any) -> "DeploymentConfig":
        """Inverse of to_value; absent optional fields take their defaults."""
        # placeholders give the optional fields their kind in the template
        template = cls(EnclaveConfig(b""), platform_verify_key=b"", store_path="").to_value()
        full = read_object(value, template, ("ha_verify_key",), "config")
        return cls(
            enclave=EnclaveConfig(
                ha_verify_key=read_key(full, "ha_verify_key", "config"),
                time=TimeParams(t0=full["t0"], delta_t=full["delta_t"]),
                retention=full["retention"],
                strict_interval_match=full["strict_interval_match"],
                gps_d_max=full["gps_d_max"],
                gps_tau=full["gps_tau"],
            ),
            host=full["host"],
            port=full["port"],
            platform_verify_key=read_key(value, "platform_verify_key", "config"),
            store_path=value.get("store_path"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "DeploymentConfig":
        return cls.from_value(lenient_decode(Path(path).read_bytes()))

    def to_value(self) -> dict:
        value = {**self.enclave.to_value(), "host": self.host, "port": self.port}
        if self.platform_verify_key is not None:
            value["platform_verify_key"] = self.platform_verify_key.hex()
        if self.store_path is not None:
            value["store_path"] = self.store_path
        return value

    def to_json_bytes(self) -> bytes:
        return canonical_encode(self.to_value())

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_json_bytes())
