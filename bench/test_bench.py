"""Smoke test of the benchmark harness at tiny n.

Each workload runs once traced with --smoke (10^4 trajectories per batch),
must pass its own output checks and must print every metric BENCHMARK.json
names. Timings are not looked at.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec_metrics(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke_traced(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke")
    )
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_metrics("per_layer")
    if workload == "keyrate":
        # three near-unity channels x 2 detections x 3 sigmas x 2 attacks per pass
        assert result["failed"] * 10 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_end_to_end_metrics_and_compare(tmp_path):
    proc = bench(
        "--workload", "keyrate", "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"
    )
    result = result_of(proc)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_metrics("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    base = tmp_path / "base.txt"
    base.write_text(proc.stdout, encoding="utf-8")
    compare = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), str(base), str(base)],
        capture_output=True, text=True, timeout=60,
    )
    assert compare.returncode == 0, compare.stderr
    assert "op_p50_ms" in compare.stdout and "1.000" in compare.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench("--workload", "keyrate", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
