"""Privacy-preserving contact tracing on a simulated confidential backend.

Devices broadcast rolling identifiers and keep a local contact log. The
backend runs inside a (simulated) trusted execution environment: clients
verify its measurement through platform-signed attestation quotes, talk to
it only over authenticated encrypted envelopes, and its persistent state is
sealed to the measurement. Positive users, authorized by a health-authority
signed test result, upload their contact log (or a secret that derives their
identifiers); everyone else polls for matches, and polls leave no trace.
"""

from cct.attestation import Measurement, compute_measurement, verify_quote
from cct.authority import (
    HealthAuthorityCredential,
    SignedReport,
    issue_test_token,
    token_hash,
    verify_report,
)
from cct.client import (
    EnclaveClient,
    LoopbackTransport,
    RecordingTransport,
    TcpTransport,
)
from cct.config import DeploymentConfig
from cct.contact_log import ContactLog, ContactTuple
from cct.enclave import (
    Enclave,
    EnclaveConfig,
    GpsPoint,
    MatchResult,
    haversine_distance,
)
from cct.errors import (
    AttestationError,
    AuthorizationError,
    EnvelopeError,
    KeyExchangeError,
    ProtocolError,
    RemoteError,
    SealError,
    WireError,
)
from cct.ident import (
    TimeParams,
    derive_identifier,
    derive_identifier_range,
    generate_secret,
    interval_index,
)
from cct.service import EnclaveServer, EnclaveService

__version__ = "0.1.0"

__all__ = [
    "AttestationError",
    "AuthorizationError",
    "ContactLog",
    "ContactTuple",
    "DeploymentConfig",
    "Enclave",
    "EnclaveClient",
    "EnclaveConfig",
    "EnclaveServer",
    "EnclaveService",
    "EnvelopeError",
    "GpsPoint",
    "HealthAuthorityCredential",
    "KeyExchangeError",
    "LoopbackTransport",
    "MatchResult",
    "Measurement",
    "ProtocolError",
    "RecordingTransport",
    "RemoteError",
    "SealError",
    "SignedReport",
    "TcpTransport",
    "TimeParams",
    "WireError",
    "compute_measurement",
    "derive_identifier",
    "derive_identifier_range",
    "generate_secret",
    "haversine_distance",
    "interval_index",
    "issue_test_token",
    "token_hash",
    "verify_quote",
    "verify_report",
]
