"""Every committed ``BENCH_*.json`` trajectory file at the repo root parses
and names only workloads and end-to-end metrics that BENCHMARK.json
declares, with their units."""

import json

import pytest

from conftest import REPO_ROOT

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("path", sorted(REPO_ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_names_declared_workloads_and_metrics(path):
    document = json.loads(path.read_text())
    assert document["runs"], "no runs recorded"
    for run in document["runs"]:
        assert run["workload"] in WORKLOADS
        assert isinstance(run["seed"], int)
        assert isinstance(run["commit"], str) and run["commit"]
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        for name, metric in result["metrics"].items():
            assert name in UNITS, name
            assert metric["unit"] == UNITS[name], name
            assert isinstance(metric["value"], (int, float)), name
