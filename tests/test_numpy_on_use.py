"""cfgtune runs without numpy.

Every stage is pure Python, so neither ``import cfgtune`` nor any stage
loads numpy, and a Python without it runs the whole pipeline and writes the
same bytes. The pipeline runs in fresh interpreters, since this test process
has numpy loaded, and once more in this process for comparison.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cfgtune
from cfgtune.cli import EXIT_OK, main
from conftest import CANONICAL_SPACE_FILE

SRC = Path(cfgtune.__file__).resolve().parent.parent

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


def written(out_dir):
    """Every artifact in ``out_dir`` but the manifest, which holds a timestamp."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert sorted(files) == [
        "front.jsonl", "front.manifest.json", "front.runlog.jsonl", "model.json",
        "model.table.jsonl", "pruned.json", "pruned.report.json",
    ]
    del files["front.manifest.json"]
    return files


def test_pipeline_with_numpy_blocked_matches_an_unblocked_run(tmp_path, capsys):
    """All four stages exit 0 and never load numpy, and every artifact and
    the stdout are byte-identical with numpy blocked, without, and in this
    process."""
    outputs = {}
    for mode in ("block", "free"):
        out_dir = tmp_path / mode
        out_dir.mkdir()
        records, stdout = run_fresh(pipeline_stages(out_dir), block_numpy=mode == "block")
        assert records == [["import", None, False]] + [
            [stage, EXIT_OK, False] for stage in ("prune", "fit", "tune", "report")
        ]
        outputs[mode] = (written(out_dir), stdout.replace(str(out_dir), "<out>"))
    out_dir = tmp_path / "in-process"
    out_dir.mkdir()
    capsys.readouterr()
    for stage in pipeline_stages(out_dir):
        assert main(stage) == EXIT_OK
    outputs["in-process"] = (written(out_dir), capsys.readouterr().out.replace(str(out_dir), "<out>"))
    assert outputs["block"] == outputs["free"] == outputs["in-process"]
    assert "deployment pick (closest to 3.0 MB)" in outputs["block"][1]
