"""Client-side protocol driver.

Every client (device app or health authority) verifies the backend's
attestation quote against the measurement it expects, runs the key
exchange, and from then on sends application messages only inside
encrypted envelopes. A backend that cannot present a valid quote for the
expected measurement never receives a single application byte.

The client's halves of the wire forms live here, outside the trusted code:
the tuple writer for polls and uploads, the report writer, and the readers
of the enclave's match replies.
"""

from __future__ import annotations

from binascii import hexlify
from typing import Sequence

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from cct import wire
from cct.attestation import (
    AttestationQuote,
    Measurement,
    SecureChannel,
    establish_session,
    verify_quote,
)
from cct.enclave import (
    DEFAULT_GPS_D_MAX,
    DEFAULT_GPS_TAU,
    GpsPoint,
    MatchResult,
    SignedReport,
)
from cct.errors import ProtocolError, RemoteError, WireError


# ---------------------------------------------------------------------------
# The client's side of the wire forms
# ---------------------------------------------------------------------------

_TUPLE_ENTRY = b'{"interval":%d,"received":"%s","sent":"%s"}'


def encode_tuples(tuples: Sequence[tuple[int, bytes, bytes]], token: bytes | None = None) -> bytes:
    """The canonical poll_req, or upload_req with `token`, of (interval, sent, received) tuples.

    The same bytes as wire.encode() of the message whose tuples are
    {"interval", "received", "sent"} objects with hex identifiers, built
    without dicts or json; the enclave reads them with wire.decode_tuples.
    Exact types only: an int interval in 0..2^64-1, 16-byte bytes
    identifiers and a 32-byte bytes token; anything else raises WireError
    naming the message type and field.
    """
    mtype = "poll_req" if token is None else "upload_req"
    if token is not None and (type(token) is not bytes or len(token) != 32):
        raise WireError("upload_req.token: expected 32 bytes")
    entries = []
    for interval, sent, received in tuples:
        if type(interval) is not int or not 0 <= interval < 2**64:
            raise WireError(f"{mtype}.tuples: expected unsigned 64-bit integer")
        if type(sent) is not bytes or len(sent) != 16 or type(received) is not bytes or len(received) != 16:
            raise WireError(f"{mtype}.tuples: expected 16 bytes")
        entries.append(_TUPLE_ENTRY % (interval, hexlify(received), hexlify(sent)))
    body = b",".join(entries)
    if token is None:
        return b'{"tuples":[%s],"type":"poll_req"}' % body
    return b'{"token":"%s","tuples":[%s],"type":"upload_req"}' % (hexlify(token), body)


def report_to_wire(report: SignedReport) -> dict:
    """The report_req message carrying an HA-signed report; SignedReport.from_wire reads it."""
    return {
        "interval": report.interval,
        "result": report.result,
        "signature": report.signature.hex(),
        "token_hash": report.token_hash.hex(),
        "type": "report_req",
    }


def match_result_from_wire(msg: dict) -> MatchResult:
    """The MatchResult of a poll_resp."""
    return MatchResult(matched=msg["matched"], matched_intervals=tuple(msg["matched_intervals"]))


def gps_events_from_wire(msg: dict) -> list[tuple[float, float]]:
    """The (t_infected, t_poller) pairs of a gps_poll_resp."""
    return [(e["t_infected"], e["t_poller"]) for e in msg["events"]]


# ---------------------------------------------------------------------------
# Transports and the client
# ---------------------------------------------------------------------------


class LoopbackTransport:
    """In-process transport: hands raw request bytes straight to the service.

    What goes through here is byte-for-byte what a TCP socket would carry,
    so a transcript recorded around it is a faithful eavesdropper's view.
    """

    def __init__(self, service) -> None:
        self._service = service

    def request(self, raw: bytes) -> bytes:
        return self._service.handle(raw)


class TcpTransport:
    """One persistent length-prefixed TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        # imported here: an in-process run, the simulator's default, opens no socket
        import socket

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

    def _request(self, msg: dict | bytes, reply_type: str) -> dict:
        """Send one application message, or its encoded bytes, in an envelope."""
        if self._channel is None:
            self.connect()
        assert self._channel is not None
        raw = msg if type(msg) is bytes else wire.encode(msg)
        try:
            plaintext = self._open(self._transport.request(self._channel.encrypt(raw)))
        except RemoteError as exc:
            if str(exc) != "unknown session":
                raise
            # the backend dropped the session (it keeps a bounded table) and
            # refused the envelope before decrypting it, so nothing was
            # applied: open a new session and send once more
            self.connect()
            plaintext = self._open(self._transport.request(self._channel.encrypt(raw)))
        return self._reply(plaintext, reply_type)

    def _open(self, raw: bytes) -> bytes:
        """The plaintext of the backend's envelope; any other reply raises as in _reply."""
        if wire.message_type(raw) != "envelope":
            self._reply(raw, "envelope")
        return self._channel.decrypt(raw)

    # -- application calls -----------------------------------------------------

    def register_report(self, report: SignedReport) -> None:
        self._request(report_to_wire(report), "ack")

    def poll_result(self, token: bytes) -> str:
        resp = self._request({"type": "result_req", "token": token.hex()}, "result_resp")
        return resp["result"]

    def upload_tuples(self, token: bytes, tuples: Sequence[tuple[int, bytes, bytes]]) -> None:
        self._request(encode_tuples(tuples, token), "ack")

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

    def poll(self, tuples: Sequence[tuple[int, bytes, bytes]]) -> MatchResult:
        return match_result_from_wire(self._request(encode_tuples(tuples), "poll_resp"))

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

