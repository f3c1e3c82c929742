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


def test_run_pipeline_sweeps_tune_seeds_against_one_fixed_reference(tmp_path):
    # At this size tune seed 2 finds a front and tune seed 1 finds no
    # configuration within 3 MB (tune exits 3).
    out_dir = tmp_path / "sweep"
    proc = run_script(
        "run_pipeline.py", "--seed", "0", "--tune-seeds", "2", "1", *SMALL_SEARCH,
        "--out-dir", str(out_dir),
    )

    rows = [json.loads(line) for line in (out_dir / "seeds.jsonl").read_text().splitlines()]
    assert [row["seed"] for row in rows] == [2, 1]
    assert rows[1] == {"seed": 1, "front_size": 0, "evaluations": None, "hypervolume": 0.0}

    pruned = load_space(out_dir / "pruned.json")
    model = SurrogateModel.load(out_dir / "model_seed0.json")
    corner = Configuration.from_dict(
        {d.name: d.options[0] if d.options else d.max_value() for d in pruned.dimensions}
    )
    manifest = json.loads((out_dir / "front_seed2.manifest.json").read_text())
    reference = manifest["hypervolume_reference"]
    assert reference == [3.0, forward_gflops(corner), 0.0]
    params = TunerParams(population_size=8, generations=5, seed=derive_seed(2, "tune"))
    result = tune(pruned, model, params, size_budget_mb=3.0)
    assert rows[0] == {
        "seed": 2,
        "front_size": len(result.archive),
        "evaluations": len(result.memo),
        "hypervolume": hypervolume(result.archive.objective_vectors(), tuple(reference)),
    }
    params = TunerParams(population_size=8, generations=5, seed=derive_seed(1, "tune"))
    assert not tune(pruned, model, params, size_budget_mb=3.0).archive
    half = rows[0]["hypervolume"] / 2  # the mean and the stdev of [hypervolume, 0.0]
    assert f"range [0, {rows[0]['front_size']}]" in proc.stdout
    assert f"hypervolume: mean {half:.4f}, stdev {half:.4f}" in proc.stdout
    assert not [name for name in os.listdir(out_dir) if name.endswith(".tmp")]
