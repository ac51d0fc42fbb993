"""The trusted set holds only what the enclave runs.

`test_enclave_loads_only_the_trusted_modules` bounds the trusted code by
module. This gate bounds it by function: in a fresh interpreter, every
function and method of those modules must run while they are imported, or
while the host launches and drives the enclave through its entry points.
What runs nowhere else is on ALLOWED, each with its reason. A name that
appears there without running elsewhere is device, client or host code, and
belongs outside the trusted modules.
"""

import inspect
import textwrap

from conftest import run_fresh

# the host launches the enclave by building its config, its state and its
# service; after that, EnclaveService.handle is the one way in
ENTRY_POINTS = [
    "cct.enclave.EnclaveConfig.__new__",
    "cct.enclave.Enclave.__init__",
    "cct.enclave.EnclaveService.__init__",
    "cct.enclave.EnclaveService.handle",
]

# trusted functions that no entry point runs, each kept inside for its reason
ALLOWED = {
    "cct.ident.derive_identifier":
        "the reference PRF of the range and table differentials; perfbench/tracer.py patches it here",
    "cct.wire.send_frame": "TCP framing; perfbench/tracer.py patches it here",
    "cct.wire.recv_frame": "TCP framing, beside send_frame",
    "cct.wire._recv_exact": "recv_frame's reader",
    "cct.enclave.Enclave.expire_store": "a test entry point; perfbench/tracer.py patches it here",
    "cct.enclave.Enclave.sealed_bytes":
        "the sealed log as the host sees it, for the flush audit and perfbench's bytes per entry",
    "cct.attestation.verify_quote": "the client's half of the quote, kept beside generate_quote",
    "cct.attestation.establish_session": "the client's half of the key exchange, beside accept_session",
    "cct.attestation.AttestationQuote.from_wire": "the client's reader of the quote, beside to_wire",
    "cct.attestation.platform_verify_key":
        "the public half of the platform key; perfbench/inputs.py imports it from here",
}


def _reach(entry_points: list, allowed: set) -> None:
    """Runs alone in a fresh interpreter: import cct.enclave, launch and
    drive the enclave, and fail unless the functions of the loaded cct
    modules that ran in neither are exactly `allowed`."""
    import importlib.util
    import inspect
    import struct
    import sys
    import tempfile
    import types
    from pathlib import Path

    package = importlib.util.find_spec("cct").submodule_search_locations[0]
    entries = set()  # empty while cct.enclave is imported: every call counts then
    reached = set()

    def under_entry(frame) -> bool:
        while frame is not None:
            if frame.f_code in entries:
                return True
            frame = frame.f_back
        return False

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and (not entries or under_entry(frame)):
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    import cct.enclave

    trusted = {m: sys.modules[m] for m in sorted(sys.modules) if m == "cct" or m.startswith("cct.")}
    for name in entry_points:
        module, owner, method = name.rsplit(".", 2)
        entries.add(getattr(getattr(trusted[module], owner), method).__code__)

    # -- the drive: everything below runs host- or client-side, outside the entries

    from cct import wire
    from cct.attestation import AttestationQuote, establish_session, platform_verify_key
    from cct.authority import HealthAuthorityCredential, token_hash
    from cct.client import EnclaveClient, LoopbackTransport
    from cct.enclave import Enclave, EnclaveConfig, EnclaveService, GpsPoint
    from cct.errors import RemoteError
    from cct.ident import derive_identifier
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    secret = b"\x07" * 32
    ha = HealthAuthorityCredential.from_seed(bytes(range(32)))
    now = [450.0]  # the middle of interval 0; None makes the clock fail

    def interval(k: int) -> None:
        now[0] = k * 900 + 450.0

    def clock() -> float:
        if now[0] is None:
            raise RuntimeError("clock failed")
        return now[0]

    def handshake(service):
        """A raw attest_req and session_req; the session's client channel."""
        quote = AttestationQuote.from_wire(wire.decode(service.handle(wire.encode({"type": "attest_req"}))))
        private = X25519PrivateKey.generate()
        channel = establish_session(private, quote)
        public = private.public_key().public_bytes_raw()
        request = {"type": "session_req", "client_session_pub": public.hex(),
                   "enclave_session_pub": quote.enclave_session_pub.hex()}
        assert wire.decode(service.handle(wire.encode(request)))["type"] == "session_resp"
        return channel

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "state.sealed"
        config = EnclaveConfig(ha_verify_key=ha.verify_key, retention=2)

        def launch(path: Path = store) -> tuple:
            service = EnclaveService(Enclave(config, secret, store_path=path, clock=clock), secret)
            client = EnclaveClient(LoopbackTransport(service), config.measurement(), platform_verify_key(secret))
            return service, client

        # a fresh store: every application request type, through the client's handshake
        service, client = launch()
        tokens = [bytes([k]) * 32 for k in range(1, 7)]
        for token in tokens:
            client.register_report(ha.sign_report(token_hash(token), "positive", 0))
        client.register_report(ha.sign_report(token_hash(tokens[0]), "positive", 0))
        assert client.poll_result(tokens[0]) == "positive"
        a, b = derive_identifier(b"\x0a" * 32, 0), derive_identifier(b"\x0b" * 32, 0)
        client.upload_tuples(tokens[0], [(0, a, b)])
        client.upload_secret(tokens[1], b"\x0c" * 32, 0, 1)
        assert client.poll([(0, b, a)]).matched
        client.upload_gps(tokens[2], [GpsPoint(1.0, 1.0, 100.0), GpsPoint(1.0, 1.0, 200.0)])
        assert client.poll_gps([GpsPoint(1, 1, 150)])  # integers on the wire too

        # restarted: the log replays; then refusals on a raw session
        service, client = launch()
        assert client.poll([(0, b, a)]).matched
        channel = handshake(service)
        envelope = channel.encrypt(wire.encode({"type": "result_req", "token": tokens[0].hex()}))
        for raw in (
            envelope,
            envelope,  # replayed
            wire.ENVELOPE % (b"zz", b"00" * 12, 1, channel.session_id.hex().encode()),  # malformed
            wire.ENVELOPE % (b"00" * 16, b"00" * 12, 1, b"11" * 16),  # unknown session
            wire.encode({"type": "result_req", "token": tokens[0].hex()}),  # plaintext
            wire.encode({"type": "ack"}),  # no request
            b'{"type":NaN}',
            b"\xff",
        ):
            assert service.handle(raw)
        now[0] = None  # one internal error: the host's clock fails under a poll
        try:
            client.poll([(0, b, a)])
            raise AssertionError("a failing clock answered")
        except RemoteError as exc:
            assert str(exc) == "internal error"

        # entries expire: the upload's sweep removes them, and the log is compacted
        interval(4)
        size = store.stat().st_size
        trace = [GpsPoint(2.0, 2.0, 3700.0)]
        client.upload_gps(tokens[3], trace)
        assert store.stat().st_size < size
        compacted = Path(tmp) / "compacted.sealed"
        compacted.write_bytes(store.read_bytes())
        assert launch(compacted)[1].poll_gps(trace)  # restarted on the compacted store
        interval(5)
        client.upload_tuples(tokens[4], [(5, a, b)])  # a sweep that finds nothing expired

        # a torn tail: a frame header whose body never arrived
        with open(store, "ab") as f:
            f.write(struct.pack(">I", 64) + b"\x01" * 10)
        size = store.stat().st_size
        service, client = launch()
        assert store.stat().st_size == size - 14
        client.upload_tuples(tokens[5], [(5, b, a)])

    sys.setprofile(None)

    # -- every function in the trusted modules, from their source

    comprehensions = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

    def functions(code, prefix: str):
        """(key, qualified name) of every function and method under code;
        class bodies and comprehensions are walked, not listed."""
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = prefix + const.co_name
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                yield from functions(const, name + ".")
                continue
            if const.co_name not in comprehensions:
                yield (const.co_filename, const.co_firstlineno, const.co_name), name
            yield from functions(const, name + ".<locals>.")

    unreached = set()
    for module_name, module in trusted.items():
        source = Path(module.__file__).read_text(encoding="utf-8")
        top = compile(source, module.__file__, "exec", dont_inherit=True)
        for key, name in functions(top, module_name + "."):
            if key not in reached:
                unreached.add(name)
    assert unreached == allowed, (
        f"ran under no entry point and not allowed: {sorted(unreached - allowed)}; "
        f"allowed but ran: {sorted(allowed - unreached)}"
    )


def test_every_trusted_function_runs_in_the_enclave():
    code = textwrap.dedent(inspect.getsource(_reach))
    run_fresh(f"{code}\n_reach({ENTRY_POINTS!r}, {set(ALLOWED)!r})\n")
