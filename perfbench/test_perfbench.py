"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, root=ROOT):
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_have_units(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_metrics_have_units_and_bypasses_hold(workload):
    # the traced run itself fails on outputs that differ from the
    # untraced run's or on call counts that differ between two traced runs
    result = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "plane_search":
        manifold_calls = [v for k, v in metrics.items() if k.startswith("manifold.") and k.endswith(".calls")]
        assert manifold_calls and all(v == 0 for v in manifold_calls)
        assert metrics["critical_points.damped_newton.calls"] > 0
    if workload == "factor_concentration":
        assert metrics["critical_points.damped_newton.calls"] == 0
        assert metrics["manifold.horizontal_basis.calls"] > 0
        assert metrics["risk_models.ensemble_bytes"] > 0
        assert metrics["landscape.sampler.proposals"] >= metrics["landscape.sampler.accepted"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("plane_search", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
