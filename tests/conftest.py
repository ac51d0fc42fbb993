import pytest
from hypothesis import settings

from cct.authority import HealthAuthorityCredential
from cct.enclave import Enclave, EnclaveConfig
from cct.ident import TimeParams

HA_SEED = bytes(range(32))
PLATFORM_SECRET = b"\x07" * 32

# a longer search, for one CI step: pytest --hypothesis-profile=deep
settings.register_profile("deep", max_examples=1000)


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
