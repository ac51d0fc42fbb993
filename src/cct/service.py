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
from collections import OrderedDict
from typing import Any, Callable

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    SecureChannel,
    accept_session,
    generate_quote,
    platform_signing_key,
)
from cct.enclave import Enclave, GpsPoint, gps_events_to_wire
from cct.errors import EnvelopeError, ProtocolError, WireError
from cct.authority import SignedReport


def _error(reason: str) -> dict:
    """The one error message; plaintext and enveloped errors both use it."""
    return {"type": "error", "reason": reason}


def _internal_error(exc: Exception) -> dict:
    """The reply to a failure no rejection foresees.

    Neither the reply nor the log carries the exception's text, which may
    hold request data: the log gets its type and the frames it came through.
    """
    # imported here, as they would add about 10 ms to importing cct
    import logging
    import traceback

    frames = "".join(traceback.format_tb(exc.__traceback__))
    logging.getLogger(__name__).error("internal error: %s\n%s", type(exc).__name__, frames)
    return _error("internal error")


def _token(msg: dict) -> bytes:
    return bytes.fromhex(msg["token"])


def _trace(msg: dict) -> list[GpsPoint]:
    return [GpsPoint.from_wire(e) for e in msg["trace"]]


# The application request types, each with the enclave call that answers it;
# a call that returns nothing is acknowledged. Only these may cross the
# boundary, and only inside an envelope. A handler takes the decoded
# message, or for the tuple requests the (token, tuples) of decode_tuples.
_APP_HANDLERS: dict[str, Callable[[Enclave, Any], dict | None]] = {
    "report_req": lambda e, m: e.register_test_result(SignedReport.from_wire(m)),
    "result_req": lambda e, m: {"type": "result_resp", "result": e.poll_test_result(_token(m))},
    "upload_req": lambda e, r: e.upload_contact_log(*r),
    "secret_upload_req": lambda e, m: e.upload_secret(
        _token(m), bytes.fromhex(m["secret"]), m["from_interval"], m["to_interval"]
    ),
    "poll_req": lambda e, r: e.match_poll(r[1]).to_wire(),
    "gps_upload_req": lambda e, m: e.upload_gps_trace(_token(m), _trace(m)),
    "gps_poll_req": lambda e, m: gps_events_to_wire(
        e.match_gps(_trace(m), d_max=m["d_max"], tau=m["tau"])
    ),
}


# attested handshakes awaiting their session_req; past this many, the oldest
# is dropped and its session_req gets `unknown handshake`
MAX_PENDING_HANDSHAKES = 1024
# open sessions; past this many, the least recently used is dropped and its
# envelopes get `unknown session`
MAX_SESSIONS = 1024


class EnclaveService:
    """Request/response handler wrapping one Enclave instance."""

    def __init__(self, enclave: Enclave, platform_secret: bytes) -> None:
        self.enclave = enclave
        self._signing_key = platform_signing_key(platform_secret)
        self._pending: OrderedDict[bytes, X25519PrivateKey] = OrderedDict()
        # guards _pending and _sessions
        self._tables_lock = threading.Lock()
        self._sessions: OrderedDict[bytes, SecureChannel] = OrderedDict()
        # one request at a time reaches the enclave: a change's authorization,
        # sealed append and apply must not interleave with another's
        self._enclave_lock = threading.Lock()

    # -- entry point ---------------------------------------------------------

    def handle(self, raw: bytes) -> bytes:
        """One request in, one response out; all failures become error messages.

        Failures outside an established session are answered in plaintext;
        inside one, _handle_envelope answers them enveloped. A rejection
        gives its reason; any other exception gives `internal error`, and the
        connection and the session stay up.
        """
        try:
            if wire.message_type(raw) == "envelope":
                return self._handle_envelope(raw)
            msg = wire.decode(raw)
            mtype = msg["type"]
            if mtype == "attest_req":
                return wire.encode(self._attest())
            if mtype == "session_req":
                return wire.encode(self._open_session(msg))
            if mtype in _APP_HANDLERS:
                raise ProtocolError("plaintext application message refused")
            raise ProtocolError("unexpected message type")
        except (ProtocolError, ValueError) as exc:
            return wire.encode(_error(str(exc)))
        except Exception as exc:
            return wire.encode(_internal_error(exc))

    # -- handshake -------------------------------------------------------------

    def _attest(self) -> dict:
        private = X25519PrivateKey.generate()
        public = private.public_key().public_bytes_raw()
        quote = generate_quote(self._signing_key, self.enclave.measurement, public)
        with self._tables_lock:
            self._pending[public] = private
            if len(self._pending) > MAX_PENDING_HANDSHAKES:
                self._pending.popitem(last=False)
        return quote.to_wire()

    def _open_session(self, msg: dict) -> dict:
        public = bytes.fromhex(msg["enclave_session_pub"])
        # one-shot: each attested ephemeral key opens at most one session
        with self._tables_lock:
            private = self._pending.pop(public, None)
        if private is None:
            raise ProtocolError("unknown handshake")
        channel = accept_session(private, bytes.fromhex(msg["client_session_pub"]))
        with self._tables_lock:
            self._sessions[channel.session_id] = channel
            if len(self._sessions) > MAX_SESSIONS:
                self._sessions.popitem(last=False)
        return {"type": "session_resp", "session_id": channel.session_id.hex()}

    # -- enveloped application traffic -----------------------------------------

    def _handle_envelope(self, raw: bytes) -> bytes:
        """The enveloped reply to an envelope of an open session.

        A malformed envelope raises its WireError, and one of no open
        session `unknown session` before anything is decrypted; handle
        answers both in plaintext.
        """
        with self._tables_lock:
            channel = self._sessions.get(wire.envelope_session(raw))
        if channel is None:
            wire.decode_envelope(raw)  # a malformed envelope is refused as such
            raise ProtocolError("unknown session")
        # a canonical envelope names this session where it was read; decrypt
        # proves raw canonical first, so a malformed one still gets its WireError
        try:
            plaintext = channel.decrypt(raw)
        except EnvelopeError as exc:
            return self._enveloped(channel, _error(str(exc)))
        # only an envelope that opened counts as a use of its session
        with self._tables_lock:
            if channel.session_id in self._sessions:
                self._sessions.move_to_end(channel.session_id)
        try:
            response = self._dispatch(plaintext)
        except (ProtocolError, ValueError) as exc:
            response = _error(str(exc))
        except Exception as exc:
            response = _internal_error(exc)
        reply = self._enveloped(channel, response)
        if len(reply) > wire.MAX_FRAME:
            # no frame could carry it; the session must outlive the refusal
            reply = self._enveloped(channel, _error("response too large"))
        return reply

    def _enveloped(self, channel: SecureChannel, msg: dict) -> bytes:
        return channel.encrypt(wire.encode(msg))

    # -- application dispatch -----------------------------------------------------

    def _request(self, plaintext: bytes) -> tuple[str, Any]:
        """The request's type, and what its handler takes."""
        mtype = wire.message_type(plaintext)
        if mtype in ("poll_req", "upload_req"):
            return mtype, wire.decode_tuples(plaintext)
        msg = wire.decode(plaintext)
        return msg["type"], msg

    def _dispatch(self, plaintext: bytes) -> dict:
        mtype, request = self._request(plaintext)
        handler = _APP_HANDLERS.get(mtype)
        if handler is None:
            raise ProtocolError("unexpected message type")
        with self._enclave_lock:
            return handler(self.enclave, request) or {"type": "ack"}


# ---------------------------------------------------------------------------
# TCP serving
# ---------------------------------------------------------------------------

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

    def __init__(self, service: EnclaveService, host: str, port: int):
        super().__init__((host, port), _Handler)
        self.service = service

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Serve until shutdown(), which waits up to poll_interval seconds."""
        super().serve_forever(poll_interval)
