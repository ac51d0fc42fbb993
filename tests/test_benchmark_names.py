"""The names of `cct` that the benchmark in `perfbench/` imports or patches.

`perfbench/server.py` imports the TCP server and the service from
`cct.service`, `perfbench/inputs.py` and `perfbench/workloads.py` import the
health authority's names from `cct.authority`, and `perfbench/tracer.py`
replaces attributes at the places its patch table names; a refactor that
moves one of them breaks the benchmark, which these tests notice before its
own slower tests run.
"""

import importlib
import sys
from pathlib import Path

import cct.enclave
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


def test_every_patch_target_is_defined_by_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        table = importlib.import_module("tracer").patch_table()
    finally:
        sys.modules.pop("tracer", None)
    missing = [(owner.__name__, attr) for owner, attr, *_ in table if attr not in vars(owner)]
    assert table and not missing, missing
