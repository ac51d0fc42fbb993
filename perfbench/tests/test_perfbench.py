"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return out.returncode, out.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(workload, trace):
    code, stdout = run("--workload", workload, "--seed", "3", "--seconds", "3", "--trace", trace, "--smoke")
    result = last_json(stdout)
    assert code == 0, stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if trace == "1" and workload == "sim-scale":
        assert result["metrics"]["rng.draws"]["value"] > 0
        assert result["metrics"]["attestation.seal.calls"]["value"] > 0
    if trace == "1" and workload == "ingest-mixed":
        assert result["metrics"]["rng.draws"]["value"] == 0
        assert result["metrics"]["enclave.persist.bytes_written"]["value"] > 0
        assert result["metrics"]["enclave.match_gps.pairs_examined"]["value"] > 0


def test_polls_that_persist_trip_the_no_mutation_gate():
    code, stdout = run(
        "--workload", "ingest-mixed", "--seed", "3", "--seconds", "2", "--trace", "0",
        "--smoke", "--log-polls",
    )
    assert code == 1
    assert last_json(stdout)["correct"] is False
    assert "GATE FAILED reads_leave_sealed_bytes" in stdout
    assert "GATE FAILED reads_leave_state_digest" in stdout


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run("--workload", "sim-scale", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert stdout.strip() == ""


def test_compare_refuses_different_kernel_backends(tmp_path):
    record = {"workload": "sim-scale", "trace": 0, "kernel_backend": "py", "git_revision": "a",
              "seed": 1, "metrics": {"work_s": {"value": 1.0, "unit": "s"}}}
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text(json.dumps(record))
    head.write_text(json.dumps({**record, "kernel_backend": "cy"}))
    compare = [sys.executable, str(ROOT / "perfbench" / "compare.py"), str(base), str(head)]
    assert subprocess.run(compare, capture_output=True).returncode == 2
    head.write_text(json.dumps(record))
    assert subprocess.run(compare, capture_output=True).returncode == 0
