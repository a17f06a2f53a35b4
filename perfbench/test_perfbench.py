"""Smoke test of the benchmark itself, at tiny sizes and without a solver.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload that runs without a solver, listed in BENCHMARK.json or not
RUNNABLE = ("frontend", "oracle-modelcount", "oracle-traces")


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("workload", RUNNABLE)
def test_every_listed_metric_is_emitted(workload):
    # tiny sizes: one frontend pass, path-oram nb=3 and zk-hats R=2
    for trace, key, listed in ((False, "metrics", "end_to_end"), (True, "layers", "per_layer")):
        code, info, _ = run.run_workload(workload, seed=1, seconds=0, trace=trace, tiny=True)
        assert code == 0, info["errors"]
        assert info["attempted"] >= 1 and info["failed"] == 0
        for metric in SPEC[listed]:
            assert isinstance(info[key][metric["name"]], (int, float)), metric["name"]


def test_result_line_follows_the_contract():
    proc = cli("--workload", "frontend", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_verify_suite_is_unavailable_without_a_solver(monkeypatch):
    monkeypatch.setenv("QHENUM_SOLVER", str(ROOT / "no-such-solver"))
    code, info, _ = run.run_workload("verify-suite", seed=1, seconds=0, trace=False)
    assert code == 2
    reason = info["unavailable"]
    assert reason.startswith("unavailable: ") and len(reason) > len("unavailable: ")
    assert info["fingerprint"]["solver"] is None
    assert info["fingerprint"]["solver_version"] == reason
    assert set(info["metrics"].values()) == {reason}
    assert "backend.solve.calls" in info["metrics"]


def test_workloads_without_a_solver_start_no_probe(monkeypatch):
    # the command resolves but cannot start; a probe would mark it unavailable
    monkeypatch.setenv("QHENUM_SOLVER", str(ROOT / "no-such-solver"))
    code, info, _ = run.run_workload("frontend", seed=1, seconds=0, trace=False, tiny=True)
    assert code == 0
    assert info["fingerprint"]["solver"] == str(ROOT / "no-such-solver")
    assert info["fingerprint"]["solver_version"].startswith("not probed")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli("--workload", "frontend", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
