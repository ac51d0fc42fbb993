"""Span tracing around the public functions of the cct layers.

The benchmark never edits `src/`. Instead `Tracer.install()` replaces each
traced function with a wrapper at every place the program looks it up (for
example `cct.enclave.seal`, not only `cct.attestation.seal`, because the
enclave imported the name), and `uninstall()` puts the originals back.

A span is (span id, parent id, request id, name, start, end). Spans are kept
in memory and written to a file when the process ends. The request id is the
id of the outermost span of the thread's current call, so every span of one
request in one process shares it; the TCP protocol carries no trace context,
so a client span and the server span it caused have different request ids.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

UPLOAD_TYPES = frozenset({"upload_req", "secret_upload_req", "gps_upload_req"})


def _count_draws(tracer, args, kwargs, result):
    # poisson_pair_events(seed, n_intervals, n_pairs, threshold)
    tracer.add("rng.draws", args[1] * args[2])


def _count_encode(tracer, args, kwargs, result):
    tracer.add("wire.bytes_out", len(result))
    if args[0].get("type") in UPLOAD_TYPES:
        tracer.add("wire.upload_bytes", len(result))


def _count_seal(tracer, args, kwargs, result):
    tracer.add("attestation.seal.bytes", len(args[0]))


def _count_persist(tracer, args, kwargs, result):
    enclave = args[0]
    if enclave._store_path is not None:
        tracer.add("enclave.persist.bytes_written", len(enclave.sealed_bytes()))


def _count_match_poll(tracer, args, kwargs, result):
    tracer.add("enclave.match_poll.tuples", len(args[1]))
    tracer.add("enclave.match_poll.hits", int(result.matched))


def _count_match_gps(tracer, args, kwargs, result):
    enclave, trace = args[0], args[1]
    stored = sum(len(points) for _, points in enclave._gps)
    tracer.add("enclave.match_gps.pairs_examined", stored * len(trace))
    tracer.add("enclave.match_gps.events", len(result))


def _count_handle(tracer, args, kwargs, result):
    # plaintext error responses; enveloped ones are counted in _enveloped
    if result.endswith(b'"type":"error"}'):
        tracer.add("service.errors", 1)


def _count_enveloped(tracer, args, kwargs, result):
    if args[2].get("type") == "error":
        tracer.add("service.errors", 1)


def _count_audit(tracer, args, kwargs, result):
    tracer.add("sim.audit.transcript_bytes", sum(len(m) for m in args[0].messages()))


def patch_table():
    """(owner, attribute, span name or None for count-only, counter) rows."""
    import cct.attestation
    import cct.client
    import cct.contact_log
    import cct.enclave
    import cct.ident
    import cct.rng
    import cct.service
    import cct.sim.runner
    import cct.wire

    enclave = cct.enclave.Enclave
    service = cct.service.EnclaveService
    client = cct.client.EnclaveClient
    return [
        (cct.rng, "poisson_pair_events", "rng.poisson_pair_events", _count_draws),
        (cct.sim.runner, "generate_encounters", "sim.encounters.generate", None),
        (cct.ident, "derive_identifier", "ident.derive_identifier", None),
        (cct.sim.runner, "derive_identifier", "ident.derive_identifier", None),
        (cct.contact_log.ContactLog, "export", "contact_log.export", None),
        (cct.contact_log.ContactLog, "record", "contact_log.record", None),
        (cct.wire, "encode", "wire.encode", _count_encode),
        (cct.wire, "decode", "wire.decode", None),
        (cct.wire, "send_frame", "wire.frame", None),
        (cct.attestation.SecureChannel, "encrypt", "attestation.envelope", None),
        (cct.attestation.SecureChannel, "decrypt", "attestation.envelope", None),
        (client, "connect", "attestation.handshake", None),
        (cct.client, "verify_quote", "attestation.handshake", None),
        (cct.client, "establish_session", "attestation.handshake", None),
        (service, "_attest", "attestation.handshake", None),
        (service, "_open_session", "attestation.handshake", None),
        (cct.enclave, "seal", "attestation.seal", _count_seal),
        (cct.attestation, "seal", "attestation.seal", _count_seal),
        (cct.enclave, "unseal", "attestation.unseal", None),
        (cct.attestation, "unseal", "attestation.unseal", None),
        (cct.enclave, "verify_report", "authority.verify_report", None),
        (enclave, "register_test_result", "enclave.register", None),
        (enclave, "match_poll", "enclave.match_poll", _count_match_poll),
        (enclave, "match_gps", "enclave.match_gps", _count_match_gps),
        (enclave, "upload_contact_log", "enclave.upload", None),
        (enclave, "upload_secret", "enclave.upload", None),
        (enclave, "upload_gps_trace", "enclave.upload", None),
        (enclave, "serialize_state", "enclave.serialize_state", None),
        (enclave, "_persist", "enclave.persist", _count_persist),
        (enclave, "expire_store", "enclave.expire_store", None),
        (service, "handle", "service.handle", _count_handle),
        (service, "_enveloped", None, _count_enveloped),
        (client, "_request", "client.request", None),
        (cct.client.TcpTransport, "request", "client.transport", None),
        (cct.client.LoopbackTransport, "request", "client.transport", None),
        (cct.sim.runner, "audit_transcript", "sim.audit.audit_transcript", _count_audit),
        (cct.sim.runner, "state_digest", "sim.audit.state_digest", None),
        (cct.sim.runner, "oracle_notified", "sim.oracle", None),
    ]


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, counter in patch_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        if name is None:

            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(tracer, args, kwargs, result)
                return result

            return count_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent, request = stack[-1], local.request
            else:
                parent, request = 0, span_id
                local.request = span_id
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, request, name, start, end))
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus the counts.

        Also sums the client transport time spent directly under
        client.request, so the client's own cost can be separated from the
        round trip it waited on.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        transport_under_request = 0.0
        for span_id, parent, _, name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
                if name == "client.transport":
                    parent_span = by_id.get(parent)
                    if parent_span is not None and parent_span[3] == "client.request":
                        transport_under_request += end - start
        names: dict[str, dict[str, float]] = {}
        for span_id, _, _, name, start, end in self.spans:
            entry = names.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["incl"] += end - start
            entry["self"] += end - start - child_time.get(span_id, 0.0)
        counts = dict(self.counts)
        counts["client.transport_under_request_s"] = transport_under_request
        return {"names": names, "counts": counts}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def merge(aggregates: list[dict]) -> dict:
    names: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = defaultdict(float)
    for agg in aggregates:
        for name, entry in agg["names"].items():
            into = names.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
            for key in into:
                into[key] += entry[key]
        for key, value in agg["counts"].items():
            counts[key] += value
    return {"names": names, "counts": dict(counts)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(agg: dict, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The named per-layer metrics, computed from merged aggregates.

    `extra` carries the figures the load generator measures itself:
    loadgen.lag_p99_ms, trace.base_s and trace.overhead_s.
    """
    names, counts = agg["names"], agg["counts"]

    def self_s(name):
        return names.get(name, {}).get("self", 0.0)

    def incl_s(name):
        return names.get(name, {}).get("incl", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def count(key):
        return counts.get(key, 0)

    metrics = {
        "rng.poisson_pair_events.s": (self_s("rng.poisson_pair_events"), "s"),
        "rng.draws": (count("rng.draws"), "count"),
        "sim.encounters.generate.s": (self_s("sim.encounters.generate"), "s"),
        "ident.derive_identifier.s": (self_s("ident.derive_identifier"), "s"),
        "ident.derive_identifier.calls": (calls("ident.derive_identifier"), "count"),
        "contact_log.export.s": (self_s("contact_log.export"), "s"),
        "contact_log.record.s": (self_s("contact_log.record"), "s"),
        "wire.encode.s": (self_s("wire.encode"), "s"),
        "wire.decode.s": (self_s("wire.decode"), "s"),
        "wire.encode.calls": (calls("wire.encode"), "count"),
        "wire.bytes_out": (count("wire.bytes_out"), "bytes"),
        "wire.frame.s": (self_s("wire.frame"), "s"),
        "attestation.envelope.s": (self_s("attestation.envelope"), "s"),
        "attestation.envelope.calls": (calls("attestation.envelope"), "count"),
        "attestation.handshake.s": (self_s("attestation.handshake"), "s"),
        "attestation.seal.s": (self_s("attestation.seal"), "s"),
        "attestation.seal.calls": (calls("attestation.seal"), "count"),
        "attestation.seal.bytes": (count("attestation.seal.bytes"), "bytes"),
        "attestation.unseal.s": (self_s("attestation.unseal"), "s"),
        "authority.verify_report.s": (self_s("authority.verify_report"), "s"),
        "enclave.match_poll.s": (self_s("enclave.match_poll"), "s"),
        "enclave.match_poll.tuples": (count("enclave.match_poll.tuples"), "count"),
        "enclave.match_poll.hit_ratio": (
            _ratio(count("enclave.match_poll.hits"), calls("enclave.match_poll")),
            "ratio",
        ),
        "enclave.match_gps.s": (self_s("enclave.match_gps"), "s"),
        "enclave.match_gps.pairs_examined": (
            count("enclave.match_gps.pairs_examined"),
            "count",
        ),
        "enclave.match_gps.event_ratio": (
            _ratio(
                count("enclave.match_gps.events"),
                count("enclave.match_gps.pairs_examined"),
            ),
            "ratio",
        ),
        "enclave.upload.s": (self_s("enclave.upload"), "s"),
        "enclave.serialize_state.s": (self_s("enclave.serialize_state"), "s"),
        "enclave.serialize_state.calls": (calls("enclave.serialize_state"), "count"),
        "enclave.persist.s": (self_s("enclave.persist"), "s"),
        "enclave.persist.bytes_written": (
            count("enclave.persist.bytes_written"),
            "bytes",
        ),
        "enclave.write_amp": (
            _ratio(count("enclave.persist.bytes_written"), count("wire.upload_bytes")),
            "ratio",
        ),
        "enclave.expire_store.s": (self_s("enclave.expire_store"), "s"),
        "service.handle.s": (self_s("service.handle"), "s"),
        "service.handle.calls": (calls("service.handle"), "count"),
        "service.errors": (count("service.errors"), "count"),
        "service.wait_s": (
            max(0.0, incl_s("client.transport") - incl_s("service.handle")),
            "s",
        ),
        "client.request.s": (
            incl_s("client.request") - count("client.transport_under_request_s"),
            "s",
        ),
        "sim.audit.audit_transcript.s": (self_s("sim.audit.audit_transcript"), "s"),
        "sim.audit.transcript_bytes": (count("sim.audit.transcript_bytes"), "bytes"),
        "sim.audit.state_digest.s": (self_s("sim.audit.state_digest"), "s"),
        "sim.audit.state_digest.calls": (calls("sim.audit.state_digest"), "count"),
        "sim.oracle.s": (self_s("sim.oracle"), "s"),
        "loadgen.lag_p99_ms": (extra.get("loadgen.lag_p99_ms", 0.0), "ms"),
        "trace.base_s": (extra.get("trace.base_s", 0.0), "s"),
        "trace.overhead_s": (extra.get("trace.overhead_s", 0.0), "s"),
    }
    return metrics
