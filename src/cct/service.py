"""Protocol front-end for the enclave.

Speaks the wire format: answers attestation and session handshakes in
plaintext, then requires every application message to arrive inside an
encrypted envelope bound to an established session. The only plaintext an
observer ever sees after the handshake is envelope metadata (session id,
sequence, nonce, ciphertext). No configuration answers an application
message sent in the clear.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    SecureChannel,
    accept_session,
    generate_quote,
    platform_signing_key,
)
from cct.contact_log import ContactTuple
from cct.enclave import Enclave, GpsPoint, gps_events_to_wire
from cct.errors import ProtocolError, WireError
from cct.authority import SignedReport


def _error(reason: str) -> dict:
    """The one error message; plaintext and enveloped errors both use it."""
    return {"type": "error", "reason": reason}


def _token(msg: dict) -> bytes:
    return bytes.fromhex(msg["token"])


def _tuples(msg: dict) -> list[ContactTuple]:
    return [ContactTuple.from_wire(e) for e in msg["tuples"]]


def _trace(msg: dict) -> list[GpsPoint]:
    return [GpsPoint.from_wire(e) for e in msg["trace"]]


# The application request types, each with the enclave call that answers it;
# a call that returns nothing is acknowledged. Only these may cross the
# boundary, and only inside an envelope.
_APP_HANDLERS: dict[str, Callable[[Enclave, dict], dict | None]] = {
    "report_req": lambda e, m: e.register_test_result(SignedReport.from_wire(m)),
    "result_req": lambda e, m: {"type": "result_resp", "result": e.poll_test_result(_token(m))},
    "upload_req": lambda e, m: e.upload_contact_log(_token(m), _tuples(m)),
    "secret_upload_req": lambda e, m: e.upload_secret(
        _token(m), bytes.fromhex(m["secret"]), m["from_interval"], m["to_interval"]
    ),
    "poll_req": lambda e, m: e.match_poll(_tuples(m)).to_wire(),
    "gps_upload_req": lambda e, m: e.upload_gps_trace(_token(m), _trace(m)),
    "gps_poll_req": lambda e, m: gps_events_to_wire(
        e.match_gps(_trace(m), d_max=m["d_max"], tau=m["tau"])
    ),
}


class EnclaveService:
    """Request/response handler wrapping one Enclave instance."""

    def __init__(self, enclave: Enclave, platform_secret: bytes) -> None:
        self.enclave = enclave
        self._signing_key = platform_signing_key(platform_secret)
        self._pending: dict[bytes, X25519PrivateKey] = {}
        self._sessions: dict[bytes, SecureChannel] = {}
        # one request at a time reaches the enclave: a change's authorization,
        # sealed append and apply must not interleave with another's
        self._enclave_lock = threading.Lock()

    # -- entry point ---------------------------------------------------------

    def handle(self, raw: bytes) -> bytes:
        """One request in, one response out; all failures become error messages.

        Failures outside an established session are answered in plaintext;
        inside one, _handle_envelope answers them enveloped.
        """
        try:
            msg = wire.decode(raw)
            mtype = msg["type"]
            if mtype == "envelope":
                return self._handle_envelope(msg)
            if mtype == "attest_req":
                return wire.encode(self._attest())
            if mtype == "session_req":
                return wire.encode(self._open_session(msg))
            if mtype in _APP_HANDLERS:
                raise ProtocolError("plaintext application message refused")
            raise ProtocolError("unexpected message type")
        except (ProtocolError, ValueError) as exc:
            return wire.encode(_error(str(exc)))

    # -- handshake -------------------------------------------------------------

    def _attest(self) -> dict:
        private = X25519PrivateKey.generate()
        public = private.public_key().public_bytes_raw()
        quote = generate_quote(self._signing_key, self.enclave.measurement, public)
        self._pending[public] = private
        return quote.to_wire()

    def _open_session(self, msg: dict) -> dict:
        public = bytes.fromhex(msg["enclave_session_pub"])
        # one-shot: each attested ephemeral key opens at most one session
        private = self._pending.pop(public, None)
        if private is None:
            raise ProtocolError("unknown handshake")
        channel = accept_session(private, bytes.fromhex(msg["client_session_pub"]))
        self._sessions[channel.session_id] = channel
        return {"type": "session_resp", "session_id": channel.session_id.hex()}

    # -- enveloped application traffic -----------------------------------------

    def _handle_envelope(self, msg: dict) -> bytes:
        channel = self._sessions.get(bytes.fromhex(msg["session_id"]))
        if channel is None:
            raise ProtocolError("unknown session")
        try:
            response = self._dispatch(wire.decode(channel.decrypt(msg)))
        except (ProtocolError, ValueError) as exc:
            response = _error(str(exc))
        reply = self._enveloped(channel, response)
        if len(reply) > wire.MAX_FRAME:
            # no frame could carry it; the session must outlive the refusal
            reply = self._enveloped(channel, _error("response too large"))
        return reply

    def _enveloped(self, channel: SecureChannel, msg: dict) -> bytes:
        return wire.encode(channel.encrypt(wire.encode(msg)))

    # -- application dispatch -----------------------------------------------------

    def _dispatch(self, msg: dict) -> dict:
        handler = _APP_HANDLERS.get(msg["type"])
        if handler is None:
            raise ProtocolError("unexpected message type")
        with self._enclave_lock:
            return handler(self.enclave, msg) or {"type": "ack"}


# ---------------------------------------------------------------------------
# TCP serving
# ---------------------------------------------------------------------------

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7700


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        service: EnclaveService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                raw = wire.recv_frame(self.request)
            except WireError:
                return
            if raw is None:
                return
            wire.send_frame(self.request, service.handle(raw))


class EnclaveServer(socketserver.ThreadingTCPServer):
    """Length-prefixed TCP front for an EnclaveService."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: EnclaveService, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        super().__init__((host, port), _Handler)
        self.service = service

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Serve until shutdown(), which waits up to poll_interval seconds."""
        super().serve_forever(poll_interval)
