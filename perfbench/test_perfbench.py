"""Smoke test of the benchmark itself: every workload at tiny size, untraced
and traced, passes its output checks and emits every metric BENCHMARK.json
names, with its unit.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]

    assert "# environment: python " in proc.stdout
    assert "# hypervolume reference" in proc.stdout
    assert "failed_share: 0.0000" in proc.stdout
    if workload == "cli-quickstart" and not trace:
        for stage in ("prune", "fit", "tune", "report", "pipeline"):
            for clock in ("cpu", "wall"):
                assert f"# timing {stage}_{clock}_s: " in proc.stdout


def test_front_quality_repeats_for_a_seed():
    first, second = (json.loads(run_bench("tune-wide", 0, seed=7).stdout.splitlines()[-1]) for _ in range(2))
    for name in ("hypervolume", "front_size"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
