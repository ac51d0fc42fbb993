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
    CLIENT_TO_ENCLAVE,
    AttestationQuote,
    EncryptedEnvelope,
    Measurement,
    SecureChannel,
    establish_session,
    verify_quote,
)
from cct.authority import SignedReport
from cct.contact_log import ContactTuple
from cct.enclave import DEFAULT_GPS_D_MAX, DEFAULT_GPS_TAU, GpsPoint, MatchResult
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
        self,
        transport,
        expected_measurement: Measurement,
        platform_verify_key: bytes,
        insecure_plaintext: bool = False,
    ) -> None:
        self._transport = transport
        self._expected = expected_measurement
        self._verify_key = platform_verify_key
        self._channel: SecureChannel | None = None
        self.insecure_plaintext = insecure_plaintext

    # -- handshake ---------------------------------------------------------

    def _exchange_plain(self, msg: dict) -> dict:
        response = wire.decode(self._transport.request(wire.encode(msg)))
        if response["type"] == "error":
            raise RemoteError(response["reason"])
        return response

    def connect(self) -> None:
        """Verify the quote and set up the encrypted session."""
        resp = self._exchange_plain({"type": "attest_req"})
        if resp["type"] != "attest_resp":
            raise ProtocolError("unexpected message type")
        quote = AttestationQuote(
            measurement=Measurement(bytes.fromhex(resp["measurement"])),
            enclave_session_pub=bytes.fromhex(resp["enclave_session_pub"]),
            platform_signature=bytes.fromhex(resp["platform_signature"]),
        )
        verify_quote(quote, self._expected, self._verify_key)
        private = X25519PrivateKey.generate()
        keys = establish_session(private, quote)
        resp = self._exchange_plain(
            {
                "type": "session_req",
                "client_session_pub": private.public_key().public_bytes_raw().hex(),
                "enclave_session_pub": quote.enclave_session_pub.hex(),
            }
        )
        if resp["type"] != "session_resp":
            raise ProtocolError("unexpected message type")
        if bytes.fromhex(resp["session_id"]) != keys.session_id:
            raise ProtocolError("session id mismatch")
        self._channel = SecureChannel(keys, CLIENT_TO_ENCLAVE)

    # -- request plumbing -----------------------------------------------------

    def _request(self, msg: dict) -> dict:
        if self.insecure_plaintext:
            return self._exchange_plain(msg)
        if self._channel is None:
            self.connect()
        assert self._channel is not None
        envelope = self._channel.encrypt(wire.encode(msg))
        outer = wire.decode(self._transport.request(wire.encode(envelope.to_wire())))
        if outer["type"] == "error":
            raise RemoteError(outer["reason"])
        if outer["type"] != "envelope":
            raise ProtocolError("unexpected message type")
        inner = wire.decode(self._channel.decrypt(EncryptedEnvelope.from_wire(outer)))
        if inner["type"] == "error":
            raise RemoteError(inner["reason"])
        return inner

    def _expect(self, msg: dict, expected_type: str) -> dict:
        response = self._request(msg)
        if response["type"] != expected_type:
            raise ProtocolError("unexpected message type")
        return response

    # -- application calls -----------------------------------------------------

    def register_report(self, report: SignedReport) -> None:
        self._expect(
            {
                "type": "report_req",
                "interval": report.interval,
                "result": report.result,
                "signature": report.signature.hex(),
                "token_hash": report.token_hash.hex(),
            },
            "ack",
        )

    def poll_result(self, token: bytes) -> str:
        resp = self._expect({"type": "result_req", "token": token.hex()}, "result_resp")
        return resp["result"]

    def upload_tuples(self, token: bytes, tuples: list[ContactTuple]) -> None:
        self._expect(
            {
                "type": "upload_req",
                "token": token.hex(),
                "tuples": [t.to_wire() for t in tuples],
            },
            "ack",
        )

    def upload_secret(self, token: bytes, secret: bytes, first: int, last: int) -> None:
        self._expect(
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
        resp = self._expect(
            {"type": "poll_req", "tuples": [t.to_wire() for t in tuples]}, "poll_resp"
        )
        return MatchResult(
            matched=resp["matched"],
            matched_intervals=tuple(resp["matched_intervals"]),
        )

    def upload_gps(self, token: bytes, trace: list[GpsPoint]) -> None:
        self._expect(
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
        resp = self._expect(
            {
                "type": "gps_poll_req",
                "d_max": d_max,
                "tau": tau,
                "trace": [p.to_wire() for p in trace],
            },
            "gps_poll_resp",
        )
        return [(e["t_infected"], e["t_poller"]) for e in resp["events"]]

