"""Exception hierarchy shared across the protocol stack.

Everything that a well-formed but unacceptable request can trigger derives
from ProtocolError; the service layer maps those onto wire error responses.
Programming errors (wrong types, internal bugs) stay plain exceptions and
are never masked.
"""


class ProtocolError(Exception):
    """Base class for rejections that are part of the protocol contract."""


class WireError(ProtocolError):
    """Malformed, non-canonical, or unknown wire message."""


class AttestationError(ProtocolError):
    """Quote verification failure; .reason is 'bad_signature' or 'wrong_measurement'."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class KeyExchangeError(ProtocolError):
    """Invalid or low-order public key in the session handshake."""


class EnvelopeError(ProtocolError):
    """Envelope decryption failure ('decrypt failed') or replay ('replay')."""


class SealError(ProtocolError):
    """Sealed-record authentication failure ('unseal failed')."""


class AuthorizationError(ProtocolError):
    """Caller lacks the credential or record required for the operation."""


class RemoteError(ProtocolError):
    """An error response returned by the backend over the wire."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
