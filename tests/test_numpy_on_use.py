"""cfgtune runs without numpy.

Every stage is pure Python, so ``import cfgtune`` and no stage loads numpy,
and a Python without it runs the whole pipeline and writes the same bytes.
Each check runs in fresh interpreters, since this test process has numpy
loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfgtune
from cfgtune.cli import EXIT_OK, main
from conftest import CANONICAL_SPACE_FILE

SRC = Path(cfgtune.__file__).resolve().parent.parent
SEARCH = ["--pop", "8", "--generations", "5"]

# Runs the CLI stages given as JSON in argv[1] in order. After the import and
# after each stage it records the exit code and whether numpy is loaded, and
# prints those records as the last line of stdout.
STAGE_RUNNER = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
import cfgtune.cli
loaded = lambda: sys.modules.get("numpy") is not None
records = [["import", None, loaded()]]
for stage in json.loads(sys.argv[1]):
    records.append([stage[0], cfgtune.cli.main(stage), loaded()])
print(json.dumps(records))
"""


def run_fresh(stages, block_numpy=False):
    """(stage records, the stages' own stdout) from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", STAGE_RUNNER, json.dumps(stages), "block" if block_numpy else "-"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.splitlines(keepends=True)
    return json.loads(last), "".join(output)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A pruned space, model and front written by the stages in this process."""
    tmp = tmp_path_factory.mktemp("in-process")
    paths = {name: tmp / name for name in ("pruned.json", "model.json", "front.jsonl")}
    for stage in fit_and_tune_stages(paths):
        assert main(stage) == EXIT_OK
    return paths


def prune_stage(out):
    return ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", str(out)]


def fit_and_tune_stages(paths):
    pruned, model = str(paths["pruned.json"]), str(paths["model.json"])
    return [
        prune_stage(pruned),
        ["fit", "--space", pruned, "--samples", "20", "--seed", "3", "--out", model],
        ["tune", "--space", pruned, "--model", model, "--seed", "3", *SEARCH,
         "--budget-mb", "3.0", "--out", str(paths["front.jsonl"])],
    ]


def report_stage(front):
    return ["report", "--front", str(front), "--target-mb", "3.0",
            "--runtime-hours", "0.8", "--power-kw", "0.4"]


def test_import_prune_and_report_leave_numpy_unloaded(tmp_path, artifacts):
    records, _ = run_fresh([prune_stage(tmp_path / "pruned.json"), report_stage(artifacts["front.jsonl"])])
    assert records == [["import", None, False], ["prune", EXIT_OK, False], ["report", EXIT_OK, False]]


def test_prune_and_report_with_numpy_blocked_match_an_unblocked_run(tmp_path, artifacts):
    outputs = {}
    for mode in ("block", "free"):
        out_dir = tmp_path / mode
        out_dir.mkdir()
        records, stdout = run_fresh(
            [prune_stage(out_dir / "pruned.json"), report_stage(artifacts["front.jsonl"])],
            block_numpy=mode == "block",
        )
        assert [code for _, code, _ in records[1:]] == [EXIT_OK, EXIT_OK]
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert sorted(files) == ["pruned.json", "pruned.report.json"]
        outputs[mode] = (files, stdout.replace(str(out_dir), "<out>"))
    assert outputs["block"] == outputs["free"]
    assert outputs["block"][0]["pruned.json"] == artifacts["pruned.json"].read_bytes()
    assert "deployment pick (closest to 3.0 MB)" in outputs["block"][1]


def test_fit_and_tune_load_numpy_on_use(tmp_path, artifacts):
    """Neither ``fit`` nor ``tune``, each in a process of its own, loads numpy,
    and both write the same bytes as the stages run in this process."""
    paths = {name: tmp_path / name for name in artifacts}
    *prune_and_fit, tune_stage = fit_and_tune_stages(paths)
    records, _ = run_fresh(prune_and_fit)
    assert records == [["import", None, False], ["prune", EXIT_OK, False], ["fit", EXIT_OK, False]]
    records, _ = run_fresh([tune_stage])
    assert records == [["import", None, False], ["tune", EXIT_OK, False]]
    for name, path in artifacts.items():
        assert paths[name].read_bytes() == path.read_bytes(), name


def test_tune_with_numpy_blocked_matches_an_unblocked_run(tmp_path, artifacts):
    tune_stage = fit_and_tune_stages(artifacts)[2]
    outputs = {}
    for mode in ("block", "free"):
        out_dir = tmp_path / mode
        out_dir.mkdir()
        front = out_dir / "front.jsonl"
        stage = tune_stage[: tune_stage.index("--out") + 1] + [str(front)]
        records, stdout = run_fresh([stage], block_numpy=mode == "block")
        assert records[1][:2] == ["tune", EXIT_OK]
        runlog = out_dir / "front.runlog.jsonl"
        outputs[mode] = (front.read_bytes(), runlog.read_bytes(), stdout.replace(str(out_dir), "<out>"))
    assert outputs["block"] == outputs["free"]
    assert outputs["block"][0] == artifacts["front.jsonl"].read_bytes()


def pipeline_stages(out_dir):
    pruned, model, front = (str(out_dir / name) for name in ("pruned.json", "model.json", "front.jsonl"))
    return [
        ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", pruned],
        ["fit", "--space", pruned, "--samples", "20", "--seed", "11", "--out", model],
        ["tune", "--space", pruned, "--model", model, "--seed", "11", "--pop", "8",
         "--generations", "5", "--budget-mb", "3.0", "--out", front],
        ["report", "--front", front, "--target-mb", "3.0", "--runtime-hours", "0.8",
         "--power-kw", "0.4"],
    ]


def test_pipeline_with_numpy_blocked_matches_an_unblocked_run(tmp_path):
    """All four stages exit 0 and never load numpy, and every artifact but
    the manifest, which holds a timestamp, is byte-identical with numpy
    blocked and without."""
    outputs = {}
    for mode in ("block", "free"):
        out_dir = tmp_path / mode
        out_dir.mkdir()
        records, stdout = run_fresh(pipeline_stages(out_dir), block_numpy=mode == "block")
        assert records == [["import", None, False]] + [
            [stage, EXIT_OK, False] for stage in ("prune", "fit", "tune", "report")
        ]
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert sorted(files) == [
            "front.jsonl", "front.manifest.json", "front.runlog.jsonl", "model.json",
            "model.table.jsonl", "pruned.json", "pruned.report.json",
        ]
        del files["front.manifest.json"]
        outputs[mode] = (files, stdout.replace(str(out_dir), "<out>"))
    assert outputs["block"] == outputs["free"]
    assert "deployment pick (closest to 3.0 MB)" in outputs["block"][1]
