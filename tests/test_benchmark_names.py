"""The names of `cct` that the benchmark in `perfbench/` imports, patches or calls.

`perfbench/server.py` imports the TCP server and the service from
`cct.service`, `perfbench/inputs.py` and `perfbench/workloads.py` import the
health authority's names from `cct.authority`, and `perfbench/tracer.py`
replaces attributes at the places its patch table names. The benchmark also
calls constructors and client methods with the arguments pinned below,
wraps client methods where the class defines them, swaps the simulator's
`Enclave`, and reads a few of an enclave's private attributes. A refactor
that moves or renames one of them breaks the benchmark, which these tests
notice before its own slower tests run.
"""

import importlib
import inspect
import json
import sys
import threading
from pathlib import Path

import pytest

import cct.enclave
import cct.rng
import cct.sim.runner
from cct.attestation import platform_verify_key
from cct.client import EnclaveClient, LoopbackTransport, TcpTransport
from cct.enclave import Enclave, EnclaveService, GpsPoint, token_hash
from cct.service import EnclaveServer
from cct.sim import fig1_scenario, run_scenario
from conftest import TRUSTED, run_fresh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_server_names_import_from_the_service_module():
    from cct.service import EnclaveServer, EnclaveService  # noqa: F401

    assert EnclaveService is cct.enclave.EnclaveService


def test_authority_names_import_from_the_authority_module():
    # perfbench/inputs.py and perfbench/workloads.py import these from cct.authority
    from cct.authority import RESULT_POSITIVE, HealthAuthorityCredential, token_hash  # noqa: F401

    assert token_hash is cct.enclave.token_hash
    assert RESULT_POSITIVE is cct.enclave.RESULT_POSITIVE


def test_service_loads_the_trusted_modules_and_itself():
    expected = sorted([*TRUSTED, "cct.service"])
    run_fresh(
        "import sys, cct.service\n"
        "loaded = sorted(m for m in sys.modules if m == 'cct' or m.startswith('cct.'))\n"
        f"assert loaded == {expected!r}, loaded\n"
    )


def _perfbench_module(monkeypatch, name: str):
    """perfbench/<name>.py, imported as the benchmark imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)


def test_every_patch_target_is_defined_by_its_owner(monkeypatch):
    table = _perfbench_module(monkeypatch, "tracer").patch_table()
    missing = [(owner.__name__, attr) for owner, attr, *_ in table if attr not in vars(owner)]
    assert table and not missing, missing


# (callable, the arguments perfbench/ passes it): server.py, common.py and workloads.py;
# the server's methods, TcpTransport.close and connect run in the server test below
CALLS = [
    (Enclave, ("config", "secret"), {"store_path": "path", "clock": "clock", "log_polls": False}),
    (EnclaveService, ("enclave", "secret"), {}),
    (EnclaveServer, ("service",), {"host": "127.0.0.1", "port": 0}),
    (EnclaveService._enveloped, ("service", "channel", "msg"), {}),
    (TcpTransport, ("127.0.0.1", 7700), {"timeout": 10.0}),
    (EnclaveClient, ("transport", "measurement", "verify_key"), {}),
    (EnclaveClient.register_report, ("client", "report"), {}),
    (EnclaveClient.poll_result, ("client", "token"), {}),
    (EnclaveClient.upload_tuples, ("client", "token", "tuples"), {}),
    (EnclaveClient.upload_secret, ("client", "token", "secret", "first", "last"), {}),
    (EnclaveClient.upload_gps, ("client", "token", "trace"), {}),
    (EnclaveClient.poll, ("client", "tuples"), {}),
    (EnclaveClient.poll_gps, ("client", "trace"), {}),  # d_max and tau at their defaults
]


@pytest.mark.parametrize("fn, args, kwargs", CALLS, ids=[c[0].__qualname__ for c in CALLS])
def test_every_call_takes_the_benchmarks_arguments(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_sim_observer_wraps_methods_the_client_class_defines(monkeypatch):
    # the observer reads EnclaveClient.__dict__[name] and sets its wrapper there
    calls = _perfbench_module(monkeypatch, "workloads")._SimObserver.CALLS
    assert calls and all(inspect.isfunction(EnclaveClient.__dict__.get(name)) for name in calls), calls


def test_sim_runner_builds_its_enclaves_through_its_module_name(monkeypatch):
    # the observer swaps cct.sim.runner.Enclave to keep the enclaves a run builds
    assert cct.sim.runner.Enclave is Enclave
    built = []

    def make(*args, **kwargs):
        built.append(Enclave(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cct.sim.runner, "Enclave", make)
    assert run_scenario(fig1_scenario()).passed
    assert len(built) == 1


def test_enclave_state_the_tracer_and_workloads_read(ha, enclave_config, platform_secret, clock, tmp_path):
    assert Enclave(enclave_config, platform_secret, clock=clock)._store_path is None
    store = tmp_path / "state.sealed"
    enclave = Enclave(enclave_config, platform_secret, store_path=str(store), clock=clock)
    assert enclave._store_path is not None
    service = EnclaveService(enclave, platform_secret)
    client = EnclaveClient(
        LoopbackTransport(service), enclave_config.measurement(), platform_verify_key(platform_secret)
    )
    token = b"\x01" * 32
    client.register_report(ha.sign_report(token_hash(token), "positive", 0))
    trace = [GpsPoint(1.0, 1.0, 100.0), GpsPoint(1.0, 1.0, 200.0)]
    client.upload_gps(token, trace)
    # tracer.py counts the stored points as (expiry, points) pairs
    assert [len(points) for _, points in enclave._gps] == [len(trace)]
    assert enclave.sealed_bytes() == store.read_bytes()
    # workloads.py counts the entries as the lengths of the state's lists
    state = json.loads(enclave.serialize_state())
    assert sum(len(v) for v in state.values()) == 2  # one record, one trace


def test_server_answers_at_its_address_and_stops(enclave, platform_secret):
    server = EnclaveServer(EnclaveService(enclave, platform_secret), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        transport = TcpTransport("127.0.0.1", server.server_address[1], timeout=10.0)
        client = EnclaveClient(transport, enclave.measurement, platform_verify_key(platform_secret))
        client.connect()
        transport.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_kernel_backend_is_named():
    # common.py records it in every run record
    assert isinstance(cct.rng.BACKEND, str) and cct.rng.BACKEND
