"""Client-side protocol driver.

Every client (device app or health authority) verifies the backend's
attestation quote against the measurement it expects, runs the key
exchange, and from then on sends application messages only inside
encrypted envelopes. A backend that cannot present a valid quote for the
expected measurement never receives a single application byte.
"""

from __future__ import annotations

import socket

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    AttestationQuote,
    Measurement,
    SecureChannel,
    establish_session,
    verify_quote,
)
from cct.authority import SignedReport
from cct.contact_log import ContactTuple
from cct.enclave import (
    DEFAULT_GPS_D_MAX,
    DEFAULT_GPS_TAU,
    GpsPoint,
    MatchResult,
    gps_events_from_wire,
)
from cct.errors import ProtocolError, RemoteError


class LoopbackTransport:
    """In-process transport: hands raw request bytes straight to the service.

    What goes through here is byte-for-byte what a TCP socket would carry,
    so a transcript recorded around it is a faithful eavesdropper's view.
    """

    def __init__(self, service) -> None:
        self._service = service

    def request(self, raw: bytes) -> bytes:
        return self._service.handle(raw)


class RecordingTransport:
    """Wraps any transport and appends its raw traffic to a transcript."""

    def __init__(self, inner, transcript: wire.Transcript) -> None:
        self._inner = inner
        self._transcript = transcript

    def request(self, raw: bytes) -> bytes:
        self._transcript.append("c2e", raw)
        response = self._inner.request(raw)
        self._transcript.append("e2c", response)
        return response


class TcpTransport:
    """One persistent length-prefixed TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, raw: bytes) -> bytes:
        wire.send_frame(self._sock, raw)
        response = wire.recv_frame(self._sock)
        if response is None:
            raise ProtocolError("connection closed")
        return response

    def close(self) -> None:
        self._sock.close()


class EnclaveClient:
    """Attest, establish a session, then issue application calls."""

    def __init__(
        self, transport, expected_measurement: Measurement, platform_verify_key: bytes
    ) -> None:
        self._transport = transport
        self._expected = expected_measurement
        self._verify_key = platform_verify_key
        self._channel: SecureChannel | None = None

    # -- request plumbing -----------------------------------------------------

    @staticmethod
    def _reply(raw: bytes, reply_type: str) -> dict:
        """The one reply check: an error reply raises, so does a wrong type."""
        reply = wire.decode(raw)
        if reply["type"] == "error":
            raise RemoteError(reply["reason"])
        if reply["type"] != reply_type:
            raise ProtocolError("unexpected message type")
        return reply

    def _exchange_plain(self, msg: dict, reply_type: str) -> dict:
        return self._reply(self._transport.request(wire.encode(msg)), reply_type)

    def connect(self) -> None:
        """Verify the quote and set up the encrypted session."""
        resp = self._exchange_plain({"type": "attest_req"}, "attest_resp")
        quote = AttestationQuote.from_wire(resp)
        verify_quote(quote, self._expected, self._verify_key)
        private = X25519PrivateKey.generate()
        channel = establish_session(private, quote)
        resp = self._exchange_plain(
            {
                "type": "session_req",
                "client_session_pub": private.public_key().public_bytes_raw().hex(),
                "enclave_session_pub": quote.enclave_session_pub.hex(),
            },
            "session_resp",
        )
        if bytes.fromhex(resp["session_id"]) != channel.session_id:
            raise ProtocolError("session id mismatch")
        self._channel = channel

    def _request(self, msg: dict, reply_type: str) -> dict:
        if self._channel is None:
            self.connect()
        assert self._channel is not None
        outer = self._exchange_plain(self._channel.encrypt(wire.encode(msg)), "envelope")
        return self._reply(self._channel.decrypt(outer), reply_type)

    # -- application calls -----------------------------------------------------

    def register_report(self, report: SignedReport) -> None:
        self._request(report.to_wire(), "ack")

    def poll_result(self, token: bytes) -> str:
        resp = self._request({"type": "result_req", "token": token.hex()}, "result_resp")
        return resp["result"]

    def upload_tuples(self, token: bytes, tuples: list[ContactTuple]) -> None:
        self._request(
            {
                "type": "upload_req",
                "token": token.hex(),
                "tuples": [t.to_wire() for t in tuples],
            },
            "ack",
        )

    def upload_secret(self, token: bytes, secret: bytes, first: int, last: int) -> None:
        self._request(
            {
                "type": "secret_upload_req",
                "from_interval": first,
                "secret": secret.hex(),
                "to_interval": last,
                "token": token.hex(),
            },
            "ack",
        )

    def poll(self, tuples: list[ContactTuple]) -> MatchResult:
        resp = self._request(
            {"type": "poll_req", "tuples": [t.to_wire() for t in tuples]}, "poll_resp"
        )
        return MatchResult.from_wire(resp)

    def upload_gps(self, token: bytes, trace: list[GpsPoint]) -> None:
        self._request(
            {
                "type": "gps_upload_req",
                "token": token.hex(),
                "trace": [p.to_wire() for p in trace],
            },
            "ack",
        )

    def poll_gps(
        self,
        trace: list[GpsPoint],
        d_max: float = DEFAULT_GPS_D_MAX,
        tau: float = DEFAULT_GPS_TAU,
    ) -> list[tuple[float, float]]:
        """The (t_infected, t_poller) pairs of stored points near `trace`.

        The defaults are the stock 10 m / 900 s. A deployment configured
        with a smaller `gps_d_max` or `gps_tau` refuses them, so pass the
        deployment's values, as `cct device gps-poll` does.
        """
        resp = self._request(
            {
                "type": "gps_poll_req",
                "d_max": d_max,
                "tau": tau,
                "trace": [p.to_wire() for p in trace],
            },
            "gps_poll_resp",
        )
        return gps_events_from_wire(resp)

