import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import cct
from cct.authority import HealthAuthorityCredential
from cct.enclave import Enclave, EnclaveConfig
from cct.ident import TimeParams

HA_SEED = bytes(range(32))
PLATFORM_SECRET = b"\x07" * 32

# the modules the enclave runs; every line of them is trusted code, so device-side,
# file-reading and simulator modules (contact_log, client, config, cli, rng, sim),
# the host's TCP server (service) and the health authority's signing code
# (authority) stay out
TRUSTED = [
    "cct",
    "cct.attestation",
    "cct.enclave",
    "cct.errors",
    "cct.ident",
    "cct.wire",
]

# a longer search, for one CI step: pytest --hypothesis-profile=deep
settings.register_profile("deep", max_examples=1000)


def run_fresh(code: str) -> None:
    """Run code in a new interpreter that imports cct from this source tree."""
    src = str(Path(cct.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class ManualClock:
    """Injectable time source; tests move it explicitly."""

    def __init__(self, t: float = 450.0):
        self.t = t

    def set_interval(self, k: int, delta_t: int = 900, t0: int = 0) -> None:
        self.t = t0 + k * delta_t + delta_t // 2

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def ha() -> HealthAuthorityCredential:
    return HealthAuthorityCredential.from_seed(HA_SEED)


@pytest.fixture
def platform_secret() -> bytes:
    return PLATFORM_SECRET


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture
def enclave_config(ha) -> EnclaveConfig:
    return EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0))


@pytest.fixture
def enclave(enclave_config, platform_secret, clock) -> Enclave:
    return Enclave(enclave_config, platform_secret, clock=clock)
