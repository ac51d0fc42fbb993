"""Shared machinery: the server child, connections, load loops and counting."""

from __future__ import annotations

import itertools
import json
import math
import os
import queue
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from cct.client import EnclaveClient, TcpTransport
from cct.errors import ProtocolError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REQUEST_TIMEOUT_S = 30.0
# A failed, refused or timed-out request is recorded with this latency, so
# it counts as missing every latency percentile.
FAILED_LATENCY_S = REQUEST_TIMEOUT_S
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Failures a load loop absorbs: the connection is replaced and the run goes on.
REQUEST_ERRORS = (ProtocolError, OSError)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


class Ops:
    """Attempts, failures and latencies per operation type."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.reconnects = 0
        self._lock = threading.Lock()

    def ok(self, op: str, seconds: float) -> None:
        with self._lock:
            self.attempted[op] += 1
            self.latency[op].append(seconds)

    def reconnected(self) -> None:
        with self._lock:
            self.reconnects += 1

    def refused(self, op: str) -> None:
        """An expected refusal: attempted, but neither a failure nor a latency."""
        with self._lock:
            self.attempted[op] += 1

    def fail(self, op: str) -> None:
        with self._lock:
            self.attempted[op] += 1
            self.failed[op] += 1
            self.latency[op].append(FAILED_LATENCY_S)

    def ms(self, op: str, q: float) -> float:
        if not self.latency[op]:
            raise RuntimeError(f"no {op} requests were measured")
        return percentile(self.latency[op], q) * 1e3

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def table(self) -> dict:
        return {
            op: {"attempted": self.attempted[op], "failed": self.failed[op]}
            for op in sorted(self.attempted)
        }


class ServerProcess:
    """The enclave server child, driven over its stdin/stdout."""

    def __init__(
        self,
        seed: int,
        store: Path,
        trace_at_start: bool = False,
        log_polls: bool = False,
        spans_out: Path | None = None,
    ) -> None:
        cmd = [
            sys.executable,
            str(HERE / "server.py"),
            "--src",
            str(SRC),
            "--seed",
            str(seed),
            "--store",
            str(store),
        ]
        if trace_at_start:
            cmd.append("--trace-at-start")
        if log_polls:
            cmd.append("--log-polls")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_lines, daemon=True)
        self._reader.start()
        self.port = self._next(60.0)["port"]

    def _read_lines(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("server child did not answer in time") from None
        if line is None:
            raise RuntimeError(f"server child exited with {self.proc.wait()}")
        return json.loads(line)

    def command(self, command: str, timeout: float = 120.0) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._next(timeout)

    def stop(self) -> None:
        """Stop the child and wait for it; kill it if it does not stop."""
        if self.proc.poll() is None:
            try:
                self.command("stop", timeout=60.0)
            except (RuntimeError, OSError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Connection:
    """One client connection that reconnects with a fresh attestation."""

    def __init__(self, server: ServerProcess, keys, ops: Ops) -> None:
        self._port = server.port
        self._keys = keys
        self._ops = ops
        self._open()

    def _open(self) -> None:
        """Connect, verify the attestation quote and set up the session."""
        self._transport = TcpTransport("127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S)
        self.client = EnclaveClient(self._transport, self._keys.measurement, self._keys.verify_key)
        try:
            self.client.connect()
        except BaseException:
            self._transport.close()
            raise

    def call(self, op: str, fn, *args, since: float | None = None):
        """Run fn(client, *args) and record it under op. Returns (ok, result).

        Latency runs from `since` (an open loop's due time) or from the call.
        """
        start = time.perf_counter() if since is None else since
        try:
            result = fn(self.client, *args)
        except REQUEST_ERRORS:
            self._ops.fail(op)
            self._reconnect()
            return False, None
        self._ops.ok(op, time.perf_counter() - start)
        return True, result

    def _reconnect(self) -> None:
        self._transport.close()
        self._ops.reconnected()
        try:
            self._open()
        except REQUEST_ERRORS:
            time.sleep(0.1)

    def close(self) -> None:
        self._transport.close()


def closed_loop(connections: list[Connection], request, limit: int) -> float:
    """Each connection sends its next request when the previous one returns.

    Sends `limit` requests in all; request(connection, index) performs one.
    Returns the elapsed seconds.
    """
    counter = itertools.count()
    start = time.perf_counter()

    def worker(connection):
        for i in iter(lambda: next(counter), None):
            if i >= limit:
                return
            request(connection, i)

    _run_threads(worker, connections)
    return time.perf_counter() - start


def open_loop(
    connections: list[Connection], rate: float, seconds: float, request, keep_going=None
) -> list[float]:
    """Requests fall due at a fixed rate whether or not earlier ones returned.

    Idle connections take the next due request; latency is timed from the
    due time, so a stall also delays the requests queued behind it. The
    schedule covers `seconds`, and goes on while keep_going() is true.
    request(connection, index) builds its request and returns a callable
    that sends it and records its latency from the due time it is given.
    Returns how late each request was sent, in seconds.
    """
    n = max(1, int(rate * seconds))
    counter = itertools.count()
    lag: list[float] = []
    start = time.perf_counter() + 0.05

    def worker(connection):
        while True:
            i = next(counter)
            if i >= n and not (keep_going and keep_going()):
                return
            send = request(connection, i)
            due = start + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lag.append(max(0.0, time.perf_counter() - due))
            send(due)

    _run_threads(worker, connections)
    return lag


def _run_threads(worker, connections) -> None:
    errors = []

    def guarded(connection):
        try:
            worker(connection)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in connections]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_record(workload: str, seed: int, trace: int, load_at_start: tuple) -> dict:
    """Facts about the run that a comparison needs to be fair."""
    from importlib.metadata import PackageNotFoundError, version

    from cct import rng

    try:
        crypto = version("cryptography")
    except PackageNotFoundError:
        crypto = "unknown"
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "kernel_backend": rng.BACKEND,
        "git_revision": revision,
        "python": sys.version.split()[0],
        "cryptography": crypto,
        "nproc": NPROC,
        "loadavg_at_start": list(load_at_start),
        "network": "loopback only (127.0.0.1); no traffic left the host",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
