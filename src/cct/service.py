"""TCP server for the enclave: untrusted host code.

Carries length-prefixed frames between client sockets and
`EnclaveService.handle`, the enclave's one entry point; it reads no message
and holds no secret, so it stays outside the trusted set.
"""

from __future__ import annotations

import socketserver

from cct import wire
from cct.enclave import EnclaveService
from cct.errors import WireError

class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        service: EnclaveService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                raw = wire.recv_frame(self.request)
            except (WireError, OSError):  # a bad frame, or the client reset
                return
            if raw is None:
                return
            reply = service.handle(raw)
            try:
                wire.send_frame(self.request, reply)
            except OSError:  # the client reset before its reply
                return


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
