"""cfgtune runs without numpy, and starts without what it does not use.

Every stage is pure Python, so neither ``import cfgtune`` nor any stage
loads numpy, and a Python without it runs the whole pipeline and writes the
same bytes. The pipeline runs in fresh interpreters, since this test process
has numpy loaded, and once more in this process for comparison. The same
runner checks that no stage loads the modules that only an external oracle
needs, or that cfgtune's record types no longer use, and that no stage loads
``hashlib``, whose OpenSSL backend costs every process about 3.6 MB of RSS.
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
# after each stage it records the exit code and which of the modules named as
# JSON in argv[3] are loaded, and prints those records as the last line of
# stdout.
STAGE_RUNNER = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
watched = json.loads(sys.argv[3])
import cfgtune.cli
loaded = lambda: [name for name in watched if sys.modules.get(name) is not None]
records = [["import", None, loaded()]]
for stage in json.loads(sys.argv[1]):
    records.append([stage[0], cfgtune.cli.main(stage), loaded()])
print(json.dumps(records))
"""

# Modules that no stage with the synthetic oracle needs: ``dataclasses``
# imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and
# only the external oracle runs a process.
NOT_AT_STARTUP = ["dataclasses", "inspect", "subprocess", "signal"]


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_fresh(stages, block_numpy=False, watched=("numpy",)):
    """(stage records, the stages' own stdout) from a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable, "-c", STAGE_RUNNER, json.dumps(stages),
            "block" if block_numpy else "-", json.dumps(list(watched)),
        ],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.splitlines(keepends=True)
    return json.loads(last), "".join(output)


def pipeline_stages(out_dir):
    pruned, model, front = (str(out_dir / name) for name in ("pruned.json", "model.json", "front.jsonl"))
    return [
        ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", pruned],
        ["fit", "--space", pruned, "--oracle", "synthetic", "--samples", "20", "--seed", "11",
         "--out", model],
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
        assert records == [["import", None, []]] + [
            [stage, EXIT_OK, []] for stage in ("prune", "fit", "tune", "report")
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


def loaded_at_startup(modules):
    """Those of ``modules`` that a bare interpreter, under the same
    environment, already loads at start-up (``site`` may)."""
    bare = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys; print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))",
            json.dumps(modules),
        ],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=120,
        check=True,
    )
    return json.loads(bare.stdout)


def test_stages_load_no_module_they_do_not_use(tmp_path):
    """After ``import cfgtune`` and after each stage, none of
    :data:`NOT_AT_STARTUP` is loaded unless a bare interpreter already loads
    it at start-up."""
    at_startup = loaded_at_startup(NOT_AT_STARTUP)
    records, _ = run_fresh(pipeline_stages(tmp_path), watched=NOT_AT_STARTUP)
    assert records == [["import", None, at_startup]] + [
        [stage, EXIT_OK, at_startup] for stage in ("prune", "fit", "tune", "report")
    ]


def test_no_stage_loads_hashlib_or_openssl(tmp_path):
    """``fit`` and ``tune`` hash through :func:`cfgtune.space.sha256`, the
    interpreter's built-in SHA-256, so after ``import cfgtune`` and after
    each of the four stages neither ``hashlib`` nor the OpenSSL-backed
    ``_hashlib`` is loaded, unless a bare interpreter already loads it."""
    hashing = ["hashlib", "_hashlib"]
    at_startup = loaded_at_startup(hashing)
    records, _ = run_fresh(pipeline_stages(tmp_path), watched=hashing)
    assert records == [["import", None, at_startup]] + [
        [stage, EXIT_OK, at_startup] for stage in ("prune", "fit", "tune", "report")
    ]
