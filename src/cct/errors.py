"""Exception hierarchy shared across the protocol stack.

Everything that a well-formed but unacceptable request can trigger derives
from ProtocolError, whose message is its reason; the enclave's service maps
those onto wire error responses. Programming errors (wrong types, internal
bugs) stay plain exceptions and are never masked as a rejection: the service
answers them with the fixed reason `internal error`, which says nothing
about the request.
"""


class ProtocolError(Exception):
    """Base class for rejections that are part of the protocol contract."""


class WireError(ProtocolError):
    """Malformed, non-canonical, or unknown wire message."""


class AttestationError(ProtocolError):
    """Quote verification failure: 'bad_signature' or 'wrong_measurement'."""


class KeyExchangeError(ProtocolError):
    """Invalid or low-order public key in the session handshake."""


class EnvelopeError(ProtocolError):
    """Envelope decryption failure ('decrypt failed') or replay ('replay')."""


class SealError(ProtocolError):
    """Sealed-record authentication failure ('unseal failed')."""


class AuthorizationError(ProtocolError):
    """Caller lacks the credential or record required for the operation."""


class RemoteError(ProtocolError):
    """An error response returned by the backend over the wire, with its reason."""
