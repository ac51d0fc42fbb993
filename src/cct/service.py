"""Protocol front-end for the enclave.

Speaks the wire format: answers attestation and session handshakes in
plaintext, then requires every application message to arrive inside an
encrypted envelope bound to an established session. The only plaintext an
observer ever sees after the handshake is envelope metadata (session id,
sequence, nonce, ciphertext).

`insecure_plaintext` disables that requirement and processes application
messages in the clear. It exists purely as a negative control so the
transcript privacy audit has something to catch.
"""

from __future__ import annotations

import socketserver

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    ENCLAVE_TO_CLIENT,
    EncryptedEnvelope,
    SecureChannel,
    accept_session,
    generate_quote,
    platform_signing_key,
)
from cct.contact_log import ContactTuple
from cct.enclave import Enclave, GpsPoint, gps_events_to_wire
from cct.errors import EnvelopeError, ProtocolError, WireError
from cct.authority import SignedReport


class EnclaveService:
    """Request/response handler wrapping one Enclave instance."""

    def __init__(
        self,
        enclave: Enclave,
        platform_secret: bytes,
        insecure_plaintext: bool = False,
    ) -> None:
        self.enclave = enclave
        self.insecure_plaintext = insecure_plaintext
        self._signing_key = platform_signing_key(platform_secret)
        self._pending: dict[bytes, X25519PrivateKey] = {}
        self._sessions: dict[bytes, SecureChannel] = {}

    # -- entry point ---------------------------------------------------------

    def handle(self, raw: bytes) -> bytes:
        """One request in, one response out; all failures become error messages."""
        try:
            msg = wire.decode(raw)
        except WireError as exc:
            return self._plain_error(str(exc))
        mtype = msg["type"]
        if mtype == "envelope":
            return self._handle_envelope(msg)
        try:
            if mtype == "attest_req":
                return wire.encode(self._attest())
            if mtype == "session_req":
                return wire.encode(self._open_session(msg))
            if mtype in wire.APP_REQUEST_TYPES:
                if not self.insecure_plaintext:
                    return self._plain_error("plaintext application message refused")
                return wire.encode(self._handle_app(msg))
            return self._plain_error("unexpected message type")
        except (ProtocolError, ValueError) as exc:
            return self._plain_error(str(exc))

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
        keys = accept_session(private, bytes.fromhex(msg["client_session_pub"]))
        self._sessions[keys.session_id] = SecureChannel(keys, ENCLAVE_TO_CLIENT)
        return {"type": "session_resp", "session_id": keys.session_id.hex()}

    # -- enveloped application traffic -----------------------------------------

    def _handle_envelope(self, msg: dict) -> bytes:
        envelope = EncryptedEnvelope.from_wire(msg)
        channel = self._sessions.get(envelope.session_id)
        if channel is None:
            return self._plain_error("unknown session")
        try:
            inner_raw = channel.decrypt(envelope)
        except EnvelopeError as exc:
            return self._enveloped(channel, {"type": "error", "reason": str(exc)})
        try:
            inner = wire.decode(inner_raw)
            if inner["type"] in wire.APP_REQUEST_TYPES:
                response = self._handle_app(inner)
            else:
                response = {"type": "error", "reason": "unexpected message type"}
        except (ProtocolError, ValueError) as exc:
            response = {"type": "error", "reason": str(exc)}
        return self._enveloped(channel, response)

    def _enveloped(self, channel: SecureChannel, msg: dict) -> bytes:
        return wire.encode(channel.encrypt(wire.encode(msg)).to_wire())

    @staticmethod
    def _plain_error(reason: str) -> bytes:
        return wire.encode({"type": "error", "reason": reason})

    # -- application dispatch -----------------------------------------------------

    def _handle_app(self, msg: dict) -> dict:
        mtype = msg["type"]
        if mtype == "report_req":
            self.enclave.register_test_result(SignedReport.from_wire(msg))
            return {"type": "ack"}
        if mtype == "result_req":
            result = self.enclave.poll_test_result(bytes.fromhex(msg["token"]))
            return {"type": "result_resp", "result": result}
        if mtype == "upload_req":
            self.enclave.upload_contact_log(
                bytes.fromhex(msg["token"]),
                [ContactTuple.from_wire(e) for e in msg["tuples"]],
            )
            return {"type": "ack"}
        if mtype == "secret_upload_req":
            self.enclave.upload_secret(
                bytes.fromhex(msg["token"]),
                bytes.fromhex(msg["secret"]),
                msg["from_interval"],
                msg["to_interval"],
            )
            return {"type": "ack"}
        if mtype == "poll_req":
            return self.enclave.match_poll(
                [ContactTuple.from_wire(e) for e in msg["tuples"]]
            ).to_wire()
        if mtype == "gps_upload_req":
            self.enclave.upload_gps_trace(
                bytes.fromhex(msg["token"]),
                [GpsPoint.from_wire(e) for e in msg["trace"]],
            )
            return {"type": "ack"}
        if mtype == "gps_poll_req":
            events = self.enclave.match_gps(
                [GpsPoint.from_wire(e) for e in msg["trace"]],
                d_max=msg["d_max"],
                tau=msg["tau"],
            )
            return gps_events_to_wire(events)
        raise ProtocolError("unexpected message type")


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
