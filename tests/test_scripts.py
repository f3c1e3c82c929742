"""The scripts under scripts/, each run as a fresh process."""

import json
import os
import subprocess
import sys

from cfgtune import (
    Configuration,
    SurrogateModel,
    TunerParams,
    forward_gflops,
    hypervolume,
    load_space,
    tune,
)
from cfgtune.cli import EXIT_OK, derive_seed, main
from conftest import CANONICAL_SPACE_FILE, REPO_ROOT

SMALL_SEARCH = ["--pop", "8", "--generations", "5"]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=280,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_run_pipeline_writes_the_cli_stages_artifacts(tmp_path):
    run_script("run_pipeline.py", "--seed", "3", *SMALL_SEARCH, "--out-dir", str(tmp_path / "script"))

    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    pruned, model, front = cli_dir / "pruned.json", cli_dir / "model.json", cli_dir / "front.jsonl"
    for stage in (
        ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", str(pruned)],
        ["fit", "--space", str(pruned), "--samples", "20", "--seed", "3", "--out", str(model)],
        ["tune", "--space", str(pruned), "--model", str(model), "--seed", "3", *SMALL_SEARCH,
         "--budget-mb", "3.0", "--out", str(front)],
        ["report", "--front", str(front), "--target-mb", "3.0"],
    ):
        assert main(stage) == EXIT_OK

    script_dir = tmp_path / "script"
    assert (script_dir / "front_seed3.jsonl").read_bytes() == front.read_bytes()
    assert (script_dir / "front_seed3.runlog.jsonl").read_bytes() == (
        cli_dir / "front.runlog.jsonl"
    ).read_bytes()


def test_sweep_seeds_hypervolume_uses_one_fixed_reference(tmp_path):
    out = tmp_path / "sweep.jsonl"
    proc = run_script("sweep_seeds.py", "--seeds", "2", *SMALL_SEARCH, "--out", str(out))

    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["seed"] for row in rows] == [0, 1]
    pruned = load_space(tmp_path / "sweep.pruned.json")
    model = SurrogateModel.load(tmp_path / "sweep.model.json")
    corner = Configuration.from_dict(
        {d.name: d.options[0] if d.options else d.max_value() for d in pruned.dimensions}
    )
    reference = (3.0, forward_gflops(corner), 0.0)
    assert str(reference) in proc.stdout
    for row in rows:
        params = TunerParams(population_size=8, generations=5, seed=derive_seed(row["seed"], "tune"))
        result = tune(pruned, model, params, size_budget_mb=3.0)
        assert row["hypervolume"] == hypervolume(result.archive.objective_vectors(), reference)
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
