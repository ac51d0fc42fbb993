"""Deployment configuration shared by the server and its clients.

One canonical-JSON file describes a deployment: protocol timing, retention,
GPS thresholds, the health-authority verify key, the platform verify key
(for clients checking quotes), and where to reach the service. Both sides
derive the expected enclave measurement from this file, which is what makes
client-side attestation checks meaningful. Only the enclave fields enter the
measurement; the host, port, store path and platform key do not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from cct.enclave import EnclaveConfig
from cct.service import DEFAULT_HOST, DEFAULT_PORT
from cct.wire import canonical_encode, lenient_decode, read_key, read_object


@dataclass(frozen=True)
class DeploymentConfig:
    enclave: EnclaveConfig
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    platform_verify_key: bytes | None = None
    store_path: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0-65535")

    @classmethod
    def from_value(cls, value: Any) -> "DeploymentConfig":
        # placeholders give the optional fields their kind in the template
        template = cls(EnclaveConfig(b""), platform_verify_key=b"", store_path="").to_value()
        full = read_object(value, template, (), "config")
        own = {f.name for f in fields(cls)} - {"enclave"}
        return cls(
            enclave=EnclaveConfig.from_value({k: v for k, v in value.items() if k not in own}),
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
