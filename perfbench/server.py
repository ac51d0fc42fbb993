"""Server child of the TCP workloads: one EnclaveServer on 127.0.0.1.

Started by the load generator with inputs it derived from the seed. Prints
`{"port": N}` once it listens, then answers one JSON line per command read
from stdin:

    digest      sha256 of sealed_bytes(), state_digest(), sealed size, entries
    trace_on    install the span wrappers in this process
    trace_off   remove them
    trace_dump  per-name span aggregates and counts
    stop        shut the server down and exit (spans are written first)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from pathlib import Path


def _reply(value: dict) -> None:
    sys.stdout.write(json.dumps(value) + "\n")
    sys.stdout.flush()


def _digest(enclave, tracer) -> dict:
    # computed with the wrappers off, so the gates add no traced work
    was_installed = tracer.installed
    tracer.uninstall()
    try:
        sealed = enclave.sealed_bytes()
        state = enclave.serialize_state()
    finally:
        if was_installed:
            tracer.install()
    return {
        "entries": sum(len(v) for v in json.loads(state).values()),
        "sealed_len": len(sealed),
        "sealed_sha": hashlib.sha256(sealed).hexdigest(),
        "state_digest": hashlib.sha256(state).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-at-start", action="store_true")
    parser.add_argument("--log-polls", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from inputs import NOW_T, Keys
    from tracer import Tracer

    tracer = Tracer()
    if args.trace_at_start:
        tracer.install()

    from cct.enclave import Enclave
    from cct.service import EnclaveServer, EnclaveService

    keys = Keys(args.seed)
    enclave = Enclave(
        keys.config,
        keys.platform_secret,
        store_path=args.store,
        clock=lambda: float(NOW_T),
        log_polls=args.log_polls,
    )
    server = EnclaveServer(
        EnclaveService(enclave, keys.platform_secret), host="127.0.0.1", port=0
    )
    # a short poll interval lets "stop" end the server without a half-second wait
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _reply({"port": server.server_address[1]})

    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "digest":
                _reply(_digest(enclave, tracer))
            elif command == "trace_on":
                tracer.install()
                _reply({"ok": True})
            elif command == "trace_off":
                tracer.uninstall()
                _reply({"ok": True})
            elif command == "trace_dump":
                _reply(tracer.aggregate())
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        tracer.uninstall()
        if args.spans_out and tracer.spans:
            tracer.write_spans(Path(args.spans_out))
    _reply({"stopped": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
