"""The two workloads. See README.md for why each exists and how it loads.

Each workload returns a Result: the metrics of the last output line
(end-to-end with tracing off, per-layer with tracing on), the figures that
exist on this workload only, the correctness gates, and the operation
counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from cct.authority import RESULT_POSITIVE, token_hash
from cct.client import EnclaveClient
from cct.enclave import Enclave
from cct.errors import RemoteError
from cct.sim import run_scenario, scale_scenario
from cct.sim import runner as sim_runner
from cct.sim.scenario import InfectionSpec, ScenarioConfig

from common import (
    OUT,
    Connection,
    Ops,
    ServerProcess,
    child_env,
    closed_loop,
    median,
    open_loop,
    percentile,
)
from inputs import (
    NOW_INTERVAL,
    NOW_T,
    Keys,
    Store,
    contact_poll,
    expected_gps_events,
    gps_poll,
    gps_walk,
    random_tuples,
    rng_for,
    secret_range,
)
from tracer import Tracer, merge, per_layer_metrics


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses. SMOKE shrinks them for the tests only."""

    sim_setup_reps: int = 15
    setup_reps: int = 15
    restart_reps: int = 3
    sim_small: bool = False
    calib_pairs: int = 5
    calib_polls: int = 40
    check_polls: int = 20
    poll_tuples: int = 200
    planted: int = 10
    gps_every: int = 10
    gps_poll_points: int = 48
    gps_trace_points: int = 96
    writer_steps: int = 100
    writer_tuples: int = 500
    writer_secret_width: int = 640
    writer_gps_every: int = 10
    reader_rate: float = 25.0
    reader_tuples: int = 50


# one contact poll in PLANT_EVERY carries planted matches
PLANT_EVERY = 4

FULL = Sizes()
SMOKE = Sizes(
    sim_setup_reps=2,
    setup_reps=2,
    restart_reps=2,
    sim_small=True,
    calib_pairs=2,
    calib_polls=10,
    check_polls=4,
    poll_tuples=20,
    planted=2,
    gps_every=5,
    gps_poll_points=12,
    gps_trace_points=24,
    writer_steps=6,
    writer_tuples=50,
    writer_secret_width=20,
    writer_gps_every=3,
    reader_rate=20.0,
    reader_tuples=10,
)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    log_polls: bool = False
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    named: dict[str, tuple[float, str]]
    gates: list[tuple[str, bool, str]]
    ops: Ops


def _gate(gates, name: str, passed: bool, detail: str = "") -> None:
    gates.append((name, bool(passed), detail))


def _spans_path(ctx: Context, part: str):
    return OUT / f"spans-{ctx.workload}-seed{ctx.seed}-{part}.jsonl"


def _tracing_overhead(pairs: int, burst, trace_on, trace_off) -> dict:
    """Untraced and traced runs of one burst, alternated after a warm-up.

    trace.base_s is the median untraced burst and trace.overhead_s the median
    of the paired differences: the two runs of a pair are seconds apart, so
    a change of host speed over the run cancels in each difference.
    """
    burst()
    base, overhead = [], []
    for _ in range(pairs):
        untraced = burst()
        trace_on()
        try:
            traced = burst()
        finally:
            trace_off()
        base.append(untraced)
        overhead.append(traced - untraced)
    return {"trace.base_s": median(base), "trace.overhead_s": median(overhead)}


# ---------------------------------------------------------------------------
# sim-scale
# ---------------------------------------------------------------------------

MODES = ("tuple", "secret")
_SETUP_PROBE = (
    "import sys, cct, cct.sim; "
    "[cct.sim.scale_scenario(int(sys.argv[1]), m).validate() for m in ('tuple', 'secret')]; "
    "print('ready', flush=True)"
)


def _small_scenario(seed: int, mode: str) -> ScenarioConfig:
    return ScenarioConfig(
        name=f"smoke-{mode}-seed{seed}",
        n_devices=12,
        n_intervals=60,
        seed=seed,
        encounter_rate=0.3,
        infected=(
            InfectionSpec(device=2, test_interval=20, mode=mode),
            InfectionSpec(device=5, test_interval=40, mode=mode),
        ),
        poll_every=10,
    )


def _fresh_interpreter_ready(seed: int) -> float:
    """Seconds from starting a new interpreter to package and scenario ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready":
        raise RuntimeError("set-up probe interpreter failed")
    return elapsed


class _SimObserver:
    """Times the client calls the simulator makes and keeps its enclaves.

    Installed for the whole workload, traced or not: it is the load
    generator's own stopwatch, as the TCP workloads time their requests.
    """

    CALLS = {
        "poll": "poll",
        "upload_tuples": "upload",
        "upload_secret": "upload",
        "register_report": "register",
        "poll_result": "result",
    }

    def __init__(self, ops: Ops) -> None:
        self.ops = ops
        self.enclaves: list[Enclave] = []
        self.active = True
        self._saved = []

    def __enter__(self):
        for attr, op in self.CALLS.items():
            original = EnclaveClient.__dict__[attr]
            self._saved.append((EnclaveClient, attr, original))
            setattr(EnclaveClient, attr, self._timed(original, op))
        self._saved.append((sim_runner, "Enclave", sim_runner.Enclave))
        sim_runner.Enclave = self._make_enclave
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _make_enclave(self, *args, **kwargs):
        enclave = Enclave(*args, **kwargs)
        self.enclaves.append(enclave)
        return enclave

    def _timed(self, fn, op):
        observer = self

        def timed(*args, **kwargs):
            if not observer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except RemoteError:
                # the simulator's authorization probes expect these refusals
                observer.ops.refused("probe")
                raise
            observer.ops.ok(op, time.perf_counter() - start)
            return result

        return timed


def _entries(state: bytes) -> int:
    return sum(len(v) for v in json.loads(state).values())


def _scenario_runs(scenario, scenario_seed: int, ops: Ops, gates: list) -> list | None:
    """Both modes of one scenario seed; None when a run raised."""
    out = []
    try:
        for mode in MODES:
            t = time.perf_counter()
            out.append(run_scenario(scenario(scenario_seed, mode)))
            ops.ok("scenario", time.perf_counter() - t)
    except Exception as exc:  # a crashed run is a failed gate, not a crash
        ops.fail("scenario")
        _gate(gates, "scenario_ran", False, repr(exc))
        return None
    for report in out:
        _gate(gates, "report_passed", report.passed, report.to_json_bytes().decode())
    return out


def sim_scale(ctx: Context) -> Result:
    sizes = ctx.sizes
    ops = Ops()
    gates: list = []
    scenario = _small_scenario if sizes.sim_small else scale_scenario
    setup = [_fresh_interpreter_ready(ctx.seed) for _ in range(sizes.sim_setup_reps)]
    r = rng_for(ctx.seed, "sim")
    seeds: list[int] = []
    samples: list[float] = []
    per_entry: list[float] = []
    reports: dict[int, list[bytes]] = {}
    extra: dict = {}
    if ctx.trace:
        # measured on the small scenario with a tracer of its own, so the
        # per-layer figures stay those of the one traced scale sample
        calibration = Tracer()
        calib_seed = rng_for(ctx.seed, "calibrate").randrange(2**63)

        def burst():
            t = time.perf_counter()
            _scenario_runs(_small_scenario, calib_seed, ops, gates)
            return time.perf_counter() - t

        extra = _tracing_overhead(
            sizes.calib_pairs, burst, calibration.install, calibration.uninstall
        )
    start = time.perf_counter()
    with _SimObserver(ops) as observer:
        while True:
            i = len(samples)
            if i // 2 >= len(seeds):
                seeds.append(r.randrange(2**63))
            scenario_seed = seeds[i // 2]
            # with --trace 1: sample 0 untraced, sample 1 traced, same seed
            traced = ctx.trace and i == 1
            observer.enclaves.clear()
            if traced:
                ctx.tracer.install()
            try:
                out = _scenario_runs(scenario, scenario_seed, ops, gates)
            finally:
                if traced:
                    ctx.tracer.uninstall()
            if out is None:
                break
            samples.append(sum(ops.latency["scenario"][-len(MODES):]))
            blobs = [report.to_json_bytes() for report in out]
            if scenario_seed in reports:
                _gate(gates, "report_repeatable", reports[scenario_seed] == blobs)
            reports[scenario_seed] = blobs
            for enclave in observer.enclaves:
                per_entry.append(len(enclave.sealed_bytes()) / _entries(enclave.serialize_state()))
            if ctx.trace and len(samples) == 2:
                break
            elapsed = time.perf_counter() - start
            mean = elapsed / len(samples)
            if len(samples) >= 2 and elapsed + mean > ctx.seconds:
                break
    _gate(gates, "seed_repeated", len(samples) > len(reports))

    if ctx.trace:
        metrics = per_layer_metrics(ctx.tracer.aggregate(), extra)
        ctx.tracer.write_spans(_spans_path(ctx, "loadgen"))
        return Result(metrics, {}, gates, ops)

    metrics = {
        "setup_s": (median(setup), "s"),
        "work_s": (median(samples), "s"),
        "sealed_bytes_per_entry": (median(per_entry), "bytes"),
    }
    named = {
        "sim_scale_s": (median(samples), "s"),
        "poll_p50_ms": (ops.ms("poll", 0.5), "ms"),
        "poll_p90_ms": (ops.ms("poll", 0.9), "ms"),
        "samples": (len(samples), "count"),
        "poll_p99_ms": (ops.ms("poll", 0.99), "ms"),
        "upload_p50_ms": (ops.ms("upload", 0.5), "ms"),
        "upload_p90_ms": (ops.ms("upload", 0.9), "ms"),
        "register_p50_ms": (ops.ms("register", 0.5), "ms"),
    }
    return Result(metrics, named, gates, ops)


# ---------------------------------------------------------------------------
# ingest-mixed
# ---------------------------------------------------------------------------


def _register(conn: Connection, keys: Keys, token: bytes):
    report = keys.ha.sign_report(token_hash(token), RESULT_POSITIVE, NOW_INTERVAL)
    return conn.call("register", lambda c: c.register_report(report))


def _upload(conn: Connection, kind: str, token: bytes, payload):
    if kind == "tuple":
        return conn.call("upload", lambda c: c.upload_tuples(token, payload))
    if kind == "secret":
        return conn.call("upload", lambda c: c.upload_secret(token, *payload))
    return conn.call("upload", lambda c: c.upload_gps(token, payload))


def _acknowledge(store: Store, kind: str, payload) -> None:
    if kind == "tuple":
        store.add_tuples(payload)
    elif kind == "secret":
        store.add_secret(*payload)
    else:
        store.traces.append(payload)


class _Answers:
    """Responses checked against the planted expectation."""

    def __init__(self) -> None:
        self.wrong: list[str] = []
        self.gps: list[tuple[list, list, list]] = []

    def contact(self, result, expected) -> None:
        got = (result.matched, tuple(result.matched_intervals))
        if got != expected:
            self.wrong.append(f"got {got}, expected {expected}")


def _contact_request(
    ctx: Context, store: Store, answers: _Answers, label: str, op: str, n_tuples: int
):
    sizes = ctx.sizes

    def request(conn: Connection, i: int):
        r = rng_for(ctx.seed, f"{label}:{i}")
        planted = sizes.planted if i % PLANT_EVERY == 0 else 0
        tuples, expected = contact_poll(r, store, n_tuples, planted)

        def send(due=None):
            ok, result = conn.call(op, lambda c: c.poll(tuples), since=due)
            if ok:
                answers.contact(result, expected)
            return ok

        return send

    return request


def _check_polls(ctx: Context, conn: Connection, store: Store) -> list:
    """Fixed planted polls asked before a stop and after the restart.

    Returns (answer, expected) pairs; a failed poll answers None.
    """
    answers = []
    for k in range(ctx.sizes.check_polls):
        tuples, expected = contact_poll(
            rng_for(ctx.seed, f"check:{k}"), store, ctx.sizes.poll_tuples, ctx.sizes.planted
        )
        ok, result = conn.call("check_poll", lambda c: c.poll(tuples))
        answers.append(((result.matched, tuple(result.matched_intervals)) if ok else None, expected))
    return answers


def _same_answers(before: list, after: list) -> bool:
    return after == before and all(answer == expected for answer, expected in after)


def _calibrate(ctx: Context, server: ServerProcess, conns: list[Connection], store, answers):
    """Tracing overhead on a burst of closed-loop polls; leaves tracing on."""
    request = _contact_request(
        ctx, store, answers, "calibrate", "calibrate_poll", ctx.sizes.poll_tuples
    )

    def burst():
        return closed_loop(conns, lambda conn, i: request(conn, i)(), ctx.sizes.calib_polls)

    def trace_on():
        server.command("trace_on")
        ctx.tracer.install()

    def trace_off():
        ctx.tracer.uninstall()
        server.command("trace_off")

    extra = _tracing_overhead(ctx.sizes.calib_pairs, burst, trace_on, trace_off)
    trace_on()
    return extra


def _fresh_path(store_path, rep: int):
    return store_path.with_name(f"{store_path.stem}-r{rep}{store_path.suffix}")


def _remove_copies(store_path) -> None:
    store_path.unlink(missing_ok=True)
    for copy in store_path.parent.glob(f"{store_path.stem}-r*{store_path.suffix}"):
        copy.unlink()


def _restarts(
    ctx: Context, server: ServerProcess, keys: Keys, ops: Ops, store_path, dumps: list, reps: range
):
    """Restart the server from a copy of its sealed file; returns (seconds, last server).

    With tracing on, each server's aggregate is appended to `dumps` before
    it stops, the given server's first.

    Each restart gets a fresh copy: the enclave rewrites its file when it
    starts, and rewriting a file whose last rewrite is still being written
    back to disk waits for that write, which back-to-back restarts of one
    file would add to every restart after the first.
    """
    seconds = []
    for rep in reps:
        if ctx.trace and server.proc.poll() is None:
            dumps.append(server.command("trace_dump"))
        server.stop()
        copy = _fresh_path(store_path, rep)
        shutil.copyfile(store_path, copy)
        start = time.perf_counter()
        server = ServerProcess(
            ctx.seed,
            copy,
            log_polls=ctx.log_polls,
            trace_at_start=ctx.trace,
            spans_out=_spans_path(ctx, f"restart{rep}") if ctx.trace else None,
        )
        conn = Connection(server, keys, ops)
        seconds.append(time.perf_counter() - start)
        ops.ok("restart", seconds[-1])
        conn.close()
    return seconds, server


def _finish_trace(ctx: Context, dumps: list, extra: dict, lag: list):
    """Per-layer metrics; dumps[0] is the server that took the uploads.

    A restarted server reseals the whole store as it starts. No uploaded
    bytes stand behind those writes, so they stay out of
    enclave.persist.bytes_written and enclave.write_amp.
    """
    for dump in dumps[1:]:
        dump["counts"].pop("enclave.persist.bytes_written", None)
    ctx.tracer.write_spans(_spans_path(ctx, "loadgen"))
    extra["loadgen.lag_p99_ms"] = percentile(lag, 0.99) * 1e3 if lag else 0.0
    return per_layer_metrics(merge([ctx.tracer.aggregate(), *dumps]), extra)


def _writer_input(seed: int, step: int, sizes: Sizes) -> tuple[str, bytes, object]:
    r = rng_for(seed, f"write:{step}")
    token = r.randbytes(32)
    if step % sizes.writer_gps_every == sizes.writer_gps_every - 1:
        # each trace walks in its own band of latitude (a walk drifts less
        # than 0.1 degree), so a GPS poll planted near one stored trace can
        # meet no other, and its events are known before every upload lands
        band = 47.3 + 0.2 * (step // sizes.writer_gps_every)
        trace = gps_walk(r, sizes.gps_trace_points, band, r.uniform(8.45, 8.60), float(NOW_T))
        return "gps", token, trace
    if (step - step // sizes.writer_gps_every) % 2 == 0:
        return "tuple", token, random_tuples(r, sizes.writer_tuples)
    return "secret", token, secret_range(r, sizes.writer_secret_width)


def _reader_request(ctx: Context, acked: Store, answers: _Answers):
    """Contact polls, and one GPS poll in gps_every once a trace is stored."""
    sizes = ctx.sizes
    contact = _contact_request(ctx, acked, answers, "read", "poll", sizes.reader_tuples)

    def request(conn: Connection, i: int):
        if i % sizes.gps_every != sizes.gps_every - 1 or not acked.traces:
            return contact(conn, i)
        traces = list(acked.traces)
        trace = gps_poll(rng_for(ctx.seed, f"gps:{i}"), acked, sizes.gps_poll_points)

        def send(due):
            ok, events = conn.call("gps_poll", lambda c: c.poll_gps(trace), since=due)
            if ok:
                answers.gps.append((traces, trace, events))

        return send

    return request


def ingest_mixed(ctx: Context) -> Result:
    sizes = ctx.sizes
    keys = Keys(ctx.seed)
    ops = Ops()
    gates: list = []
    store_path = OUT / "work" / f"ingest-mixed-{ctx.seed}.store"
    store_path.parent.mkdir(parents=True, exist_ok=True)
    server = None
    conns: list[Connection] = []
    dumps: list = []
    try:
        setup = []
        for _ in range(sizes.setup_reps):
            for conn in conns:
                conn.close()
            if server is not None:
                server.stop()
            store_path.unlink(missing_ok=True)
            start = time.perf_counter()
            server = ServerProcess(
                ctx.seed,
                store_path,
                log_polls=ctx.log_polls,
                spans_out=_spans_path(ctx, "server") if ctx.trace else None,
            )
            conns = [Connection(server, keys, ops)]
            setup.append(time.perf_counter() - start)
        writer = conns[0]
        reader = Connection(server, keys, ops)
        conns.append(reader)

        acked = Store()
        answers = _Answers()
        extra: dict = {}
        if ctx.trace:
            extra = _calibrate(ctx, server, [reader], acked, answers)

        steps: list[float] = []
        writer_errors: list[BaseException] = []
        first_token: list[bytes] = []

        def write():
            try:
                for step in range(sizes.writer_steps):
                    kind, token, payload = _writer_input(ctx.seed, step, sizes)
                    start = time.perf_counter()
                    ok, _ = _register(writer, keys, token)
                    if ok and _upload(writer, kind, token, payload)[0]:
                        steps.append(time.perf_counter() - start)
                        _acknowledge(acked, kind, payload)
                        if kind == "tuple" and not first_token:
                            first_token.append(token)
            except BaseException as exc:  # re-raised after the reader stops
                writer_errors.append(exc)

        writer_thread = threading.Thread(target=write)
        writer_thread.start()
        try:
            lag = open_loop(
                [reader],
                sizes.reader_rate,
                ctx.seconds,
                _reader_request(ctx, acked, answers),
                writer_thread.is_alive,
            )
        finally:
            writer_thread.join()
        if writer_errors:
            raise writer_errors[0]

        _gate(
            gates,
            "uploads_acknowledged",
            ops.failed["upload"] == 0 and len(ops.latency["upload"]) == sizes.writer_steps,
        )
        try:
            writer.client.upload_tuples(first_token[0], random_tuples(rng_for(ctx.seed, "replay"), 1))
            replay_refused = False
        except RemoteError:
            replay_refused = True
        ops.refused("replay_probe")
        _gate(gates, "replayed_token_refused", replay_refused)
        _gate(gates, "contact_matches", not answers.wrong, "; ".join(answers.wrong[:3]))
        gps_wrong = sum(
            1 for traces, trace, events in answers.gps if events != expected_gps_events(traces, trace)
        )
        _gate(gates, "gps_events", gps_wrong == 0, f"{gps_wrong} of {len(answers.gps)} differ")

        if ctx.trace:
            ctx.tracer.uninstall()
            server.command("trace_off")
        # reads alone must leave the sealed state as it was
        final = server.command("digest")
        checks = _check_polls(ctx, reader, acked)
        after_reads = server.command("digest")
        _gate(gates, "reads_leave_sealed_bytes", final["sealed_sha"] == after_reads["sealed_sha"])
        _gate(gates, "reads_leave_state_digest", final["state_digest"] == after_reads["state_digest"])
        for conn in conns:
            conn.close()
        conns = []
        if ctx.trace:
            ctx.tracer.install()
        reps = range(sizes.restart_reps)
        restarts, server = _restarts(ctx, server, keys, ops, store_path, dumps, reps)
        if ctx.trace:
            ctx.tracer.uninstall()
            dumps.append(server.command("trace_dump"))
            server.command("trace_off")
        again = server.command("digest")
        conn = Connection(server, keys, ops)
        conns = [conn]
        _gate(gates, "restart_same_answers", _same_answers(checks, _check_polls(ctx, conn, acked)))
        _gate(gates, "restart_same_state", again["state_digest"] == after_reads["state_digest"])
    finally:
        for conn in conns:
            conn.close()
        if server is not None:
            server.stop()
        _remove_copies(store_path)

    if ctx.trace:
        return Result(_finish_trace(ctx, dumps, extra, lag), {}, gates, ops)

    metrics = {
        "setup_s": (median(setup), "s"),
        # the mean, over the whole writer phase: each step is costlier than
        # the one before, so the median step falls on one moment of the run
        "work_s": (sum(steps) / len(steps), "s"),
        "sealed_bytes_per_entry": (final["sealed_len"] / final["entries"], "bytes"),
    }
    named = {
        "poll_p50_ms": (ops.ms("poll", 0.5), "ms"),
        "poll_p90_ms": (ops.ms("poll", 0.9), "ms"),
        "poll_p99_ms": (ops.ms("poll", 0.99), "ms"),
        "upload_p50_ms": (ops.ms("upload", 0.5), "ms"),
        "upload_p90_ms": (ops.ms("upload", 0.9), "ms"),
        "register_p50_ms": (ops.ms("register", 0.5), "ms"),
        "restart_s": (median(restarts), "s"),
        "gps_poll_p50_ms": (ops.ms("gps_poll", 0.5), "ms"),
        "gps_poll_p90_ms": (ops.ms("gps_poll", 0.9), "ms"),
        "reader_polls": (len(ops.latency["poll"]), "count"),
        "reader_gps_polls": (len(ops.latency["gps_poll"]), "count"),
        "uploads": (len(ops.latency["upload"]), "count"),
        "loadgen.lag_p99_ms": (percentile(lag, 0.99) * 1e3, "ms"),
        "store_entries": (final["entries"], "count"),
        "sealed_bytes": (final["sealed_len"], "bytes"),
    }
    return Result(metrics, named, gates, ops)


WORKLOADS = {"sim-scale": sim_scale, "ingest-mixed": ingest_mixed}
