"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must print every metric BENCHMARK.json names, with its unit,
and fail no case at the default seed and at one other seed; the traced run
must print every per-layer metric; BENCHMARK.json must say why each workload
was chosen; and the command must refuse to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DEFAULT_SEED = 20260810
# 16 cases reach every case kind of every workload, including the jackson
# workload's declared ConvergenceError
TINY = ["--seconds", "1", "--cases", "16"]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: mv["unit"] for name, mv in result["metrics"].items()}
    assert all(isinstance(mv["value"], (int, float)) for mv in result["metrics"].values())


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload, seed):
    result = _result(_run(workload, seed, 0))
    _assert_metrics(result, BENCH["end_to_end"])
    assert result["attempted"] >= 16
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    result = _result(_run(workload, DEFAULT_SEED, 1))
    _assert_metrics(result, BENCH["per_layer"])
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_records_why_each_workload():
    assert WORKLOADS == ["modulus", "jackson", "lattice"]
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = _run(WORKLOADS[0], DEFAULT_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
