import json
import math
import sys
import textwrap

import pytest

from cfgtune import Configuration, SurrogateModel, load_space, r_squared, reference_point
from cfgtune.cli import (
    EXIT_CONSTRAINT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    derive_seed,
    main,
)
from conftest import CANONICAL_SPACE_FILE, MINI_SPACE_DOCUMENT


@pytest.fixture()
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(MINI_SPACE_DOCUMENT))
    return path


@pytest.fixture()
def pipeline(tmp_path, space_file):
    """Run prune and fit once; return the paths later stages consume."""
    pruned = tmp_path / "pruned.json"
    model = tmp_path / "model.json"
    assert main(
        [
            "prune",
            "--space", str(space_file),
            "--budget-mb", "3.0",
            "--out", str(pruned),
        ]
    ) == EXIT_OK
    assert main(
        [
            "fit",
            "--space", str(pruned),
            "--oracle", "synthetic",
            "--samples", "12",
            "--seed", "7",
            "--out", str(model),
        ]
    ) == EXIT_OK
    return {"tmp": tmp_path, "space": pruned, "model": model}


def run_tune(pipeline_paths, out_name, seed=7, budget="3.0"):
    out = pipeline_paths["tmp"] / out_name
    code = main(
        [
            "tune",
            "--space", str(pipeline_paths["space"]),
            "--model", str(pipeline_paths["model"]),
            "--seed", str(seed),
            "--pop", "12",
            "--generations", "12",
            "--budget-mb", budget,
            "--out", str(out),
        ]
    )
    return code, out


# --- seed fan-out ------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "tune") == derive_seed(7, "tune")
    assert derive_seed(7, "tune") != derive_seed(7, "fit:sample")
    assert derive_seed(7, "tune") != derive_seed(8, "tune")
    assert 0 <= derive_seed(7, "tune") < 2**64


# --- prune -------------------------------------------------------------------


def test_prune_writes_space_and_report(tmp_path, space_file, capsys):
    out = tmp_path / "pruned.json"
    assert main(
        ["prune", "--space", str(space_file), "--out", str(out)]
    ) == EXIT_OK
    assert "cardinality ratio" in capsys.readouterr().out
    pruned = load_space(out)
    # every value of this small space fits the 3 MB budget, so prune keeps all
    assert pruned.cardinality() == load_space(space_file).cardinality()
    report = json.loads((tmp_path / "pruned.report.json").read_text())
    assert report["budget_mb"] == 3.0
    assert report["pruned_cardinality"] == str(pruned.cardinality())
    assert "partitions" not in report


@pytest.mark.parametrize("failing_dump", [1, 2])  # 1: the space, 2: its report
def test_prune_failing_write_keeps_previous_artifacts(
    tmp_path, space_file, monkeypatch, failing_dump
):
    def prune_to(budget):
        return main(
            ["prune", "--space", str(space_file), "--budget-mb", budget,
             "--out", str(tmp_path / "pruned.json")]
        )

    assert prune_to("3.0") == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_dump, dumps = json.dump, []

    def dump_then_fail(obj, handle, **kwargs):
        dumps.append(obj)
        if len(dumps) == failing_dump:
            handle.write('{"dimensions": [')
            raise OSError("no space left on device")
        real_dump(obj, handle, **kwargs)

    monkeypatch.setattr(json, "dump", dump_then_fail)
    # 0.2 MB drops values, so a completed write would change both files.
    assert prune_to("0.2") == EXIT_INTERNAL
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)  # no temporary file left behind
    assert after["pruned.report.json"] == before["pruned.report.json"]
    if failing_dump == 1:
        assert after["pruned.json"] == before["pruned.json"]
    else:  # the space was written whole before the report failed
        assert load_space(tmp_path / "pruned.json").dimension("vocab_size").values == (1000,)


def test_prune_malformed_json_exits_parse(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(
        ["prune", "--space", str(bad), "--out", str(tmp_path / "out.json")]
    ) == EXIT_PARSE


def test_prune_wrong_shape_exits_parse(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vocab_size": [1000]}))
    assert main(
        ["prune", "--space", str(bad), "--out", str(tmp_path / "out.json")]
    ) == EXIT_PARSE


def test_fit_float_integer_dimension_exits_parse(tmp_path, capsys):
    # A float hidden size used to load and then fail inside the divisor search.
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(dict(MINI_SPACE_DOCUMENT, hidden_size=[100.0, 128.0], num_attention_heads=[3, 8]))
    )
    assert main(
        [
            "fit",
            "--space", str(bad),
            "--oracle", "synthetic",
            "--samples", "4",
            "--out", str(tmp_path / "model.json"),
        ]
    ) == EXIT_PARSE
    assert "hidden_size" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_prune_missing_file_exits_internal(tmp_path):
    # unreadable inputs are I/O failures, not parse errors
    assert main(
        [
            "prune",
            "--space", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "out.json"),
        ]
    ) == EXIT_INTERNAL


def test_prune_impossible_budget_exits_constraint(tmp_path, space_file):
    assert main(
        [
            "prune",
            "--space", str(space_file),
            "--budget-mb", "0.000001",
            "--out", str(tmp_path / "out.json"),
        ]
    ) == EXIT_CONSTRAINT


@pytest.mark.parametrize("budget", ["nan", "0", "-1"])
def test_prune_non_positive_budget_exits_parse(tmp_path, space_file, capsys, budget):
    out = tmp_path / "out.json"
    assert main(
        ["prune", "--space", str(space_file), "--budget-mb", budget, "--out", str(out)]
    ) == EXIT_PARSE
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_prune_partitions_flag_is_gone(tmp_path, space_file):
    # ``prune`` bisects the whole space; the library's ``prune(..., partitions=n)``
    # keeps the keyword, with no effect.
    with pytest.raises(SystemExit) as excinfo:
        main(
            ["prune", "--space", str(space_file), "--partitions", "3",
             "--out", str(tmp_path / "out.json")]
        )
    assert excinfo.value.code == 2


# --- fit ---------------------------------------------------------------------


def test_fit_writes_model_and_table(pipeline):
    model = SurrogateModel.load(pipeline["model"])
    assert model.space_checksum == load_space(pipeline["space"]).checksum()
    table = [
        json.loads(line)
        for line in (pipeline["tmp"] / "model.table.jsonl").read_text().splitlines()
    ]
    assert len(table) == 12
    for row in table:
        assert set(row) == {"config", "effectiveness"}
        assert 0.0 <= row["effectiveness"] <= 1.0


def test_fit_prints_training_r_squared(tmp_path, space_file, capsys):
    out = tmp_path / "m.json"
    assert main(
        ["fit", "--space", str(space_file), "--samples", "12", "--seed", "7", "--out", str(out)]
    ) == EXIT_OK
    space = load_space(space_file)
    rows = [json.loads(line) for line in (tmp_path / "m.table.jsonl").read_text().splitlines()]
    vectors = [space.encode(Configuration.from_dict(row["config"])) for row in rows]
    targets = [row["effectiveness"] for row in rows]
    expected = r_squared(SurrogateModel.load(out), vectors, targets)
    assert f"train R^2={expected:.3f}" in capsys.readouterr().out


def test_fit_same_seed_byte_identical(tmp_path, space_file):
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            [
                "fit",
                "--space", str(space_file),
                "--samples", "8",
                "--seed", "3",
                "--out", str(out),
            ]
        ) == EXIT_OK
        table = tmp_path / (out.stem + ".table.jsonl")
        outputs.append((out.read_bytes(), table.read_bytes()))
    assert outputs[0] == outputs[1]


def test_fit_rejects_single_sample(tmp_path, space_file):
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--samples", "1",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_PARSE


def test_fit_tiny_sample_warns_but_succeeds(tmp_path, space_file, capsys):
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--samples", "2",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_OK
    assert "degenerate" in capsys.readouterr().err


def test_fit_unknown_oracle_exits_parse(tmp_path, space_file):
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--oracle", "quantum",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_PARSE


def test_fit_external_oracle_happy_path(tmp_path, space_file):
    script = tmp_path / "eval.py"
    script.write_text(
        textwrap.dedent(
            """\
            import json, sys
            rows = [json.loads(line) for line in open(sys.argv[1])]
            with open(sys.argv[2], "w") as handle:
                for row in rows:
                    handle.write(json.dumps({"id": row["id"], "effectiveness": 0.7}) + "\\n")
            """
        )
    )
    out = tmp_path / "m.json"
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--oracle", f"external:{sys.executable} {script}",
            "--samples", "6",
            "--out", str(out),
        ]
    ) == EXIT_OK
    table = [
        json.loads(line)
        for line in (tmp_path / "m.table.jsonl").read_text().splitlines()
    ]
    assert [row["effectiveness"] for row in table] == [0.7] * 6


def test_fit_crashing_external_oracle_exits_oracle(tmp_path, space_file):
    script = tmp_path / "crash.py"
    script.write_text("import sys\nsys.exit(3)\n")
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--oracle", f"external:{sys.executable} {script}",
            "--samples", "4",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_ORACLE


# --- tune --------------------------------------------------------------------


def test_tune_outputs_and_budget(pipeline):
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records
    space = load_space(pipeline["space"])
    for record in records:
        assert set(record) == {
            "config", "size_mb", "gflops", "predicted_effectiveness",
        }
        assert record["size_mb"] <= 3.0
        assert space.validate(Configuration.from_dict(record["config"]))
    sizes = [r["size_mb"] for r in records]
    assert sizes == sorted(sizes)

    runlog = [
        json.loads(line)
        for line in (pipeline["tmp"] / "front.runlog.jsonl").read_text().splitlines()
    ]
    hv = [row["hypervolume"] for row in runlog]
    assert len(runlog) == 13  # initial snapshot + 12 generations
    assert all(b >= a for a, b in zip(hv, hv[1:]))

    manifest = json.loads((pipeline["tmp"] / "front.manifest.json").read_text())
    assert manifest["space_checksum"] == space.checksum()
    assert manifest["master_seed"] == 7
    assert manifest["front_size"] == len(records)
    assert manifest["tuner_params"]["seed"] == derive_seed(7, "tune")
    assert manifest["hypervolume_reference"] == list(reference_point(space, 3.0))


def test_tune_same_seed_byte_identical_front(pipeline):
    _, first = run_tune(pipeline, "front1.jsonl")
    _, second = run_tune(pipeline, "front2.jsonl")
    assert first.read_bytes() == second.read_bytes()
    assert (pipeline["tmp"] / "front1.runlog.jsonl").read_bytes() == (
        pipeline["tmp"] / "front2.runlog.jsonl"
    ).read_bytes()


def test_tune_different_seed_differs(pipeline):
    _, first = run_tune(pipeline, "front1.jsonl", seed=7)
    _, second = run_tune(pipeline, "front2.jsonl", seed=8)
    assert first.read_bytes() != second.read_bytes()


def test_tune_checksum_mismatch_exits_constraint(pipeline):
    code = main(
        [
            "tune",
            "--space", str(CANONICAL_SPACE_FILE),
            "--model", str(pipeline["model"]),
            "--out", str(pipeline["tmp"] / "front.jsonl"),
        ]
    )
    assert code == EXIT_CONSTRAINT


def test_tune_impossible_budget_exits_constraint(pipeline):
    code, _ = run_tune(pipeline, "front.jsonl", budget="0.0001")
    assert code == EXIT_CONSTRAINT


@pytest.mark.parametrize("budget", ["nan", "0", "-1"])
def test_tune_non_positive_budget_exits_parse(pipeline, capsys, budget):
    code, out = run_tune(pipeline, "front.jsonl", budget=budget)
    assert code == EXIT_PARSE
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_tune_nan_effectiveness_exits_internal(pipeline, monkeypatch):
    # Clamping would score NaN as 0.0; a non-finite prediction is a fault.
    monkeypatch.setattr(SurrogateModel, "predict_mean", lambda self, x: math.nan)
    code, _ = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_INTERNAL


def test_tune_missing_model_exits_internal(pipeline):
    code = main(
        [
            "tune",
            "--space", str(pipeline["space"]),
            "--model", str(pipeline["tmp"] / "missing.json"),
            "--out", str(pipeline["tmp"] / "front.jsonl"),
        ]
    )
    assert code == EXIT_INTERNAL


@pytest.mark.parametrize(
    "breakage",
    [
        lambda doc: doc.pop("weights"),
        lambda doc: doc["weights"].pop(),
        lambda doc: doc["covariance"].pop(),
        lambda doc: doc["covariance"][3].pop(),
        lambda doc: doc["feature_max"].pop(),
    ],
    ids=["no-weights", "weights-short", "covariance-rows", "covariance-row-short", "feature-max-short"],
)
def test_tune_malformed_model_exits_parse(pipeline, capsys, breakage):
    document = json.loads(pipeline["model"].read_text())
    breakage(document)
    pipeline["model"].write_text(json.dumps(document))
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_PARSE
    assert "model file" in capsys.readouterr().err
    assert not out.exists()


# --- report ------------------------------------------------------------------


def test_report_table_pick_and_emissions(pipeline, capsys):
    _, front = run_tune(pipeline, "front.jsonl")
    capsys.readouterr()
    assert main(
        [
            "report",
            "--front", str(front),
            "--target-mb", "3.0",
            "--runtime-hours", "0.8",
            "--power-kw", "0.4",
        ]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "deployment pick (closest to 3.0 MB)" in out
    assert "0.1400 kg CO2" in out
    marked = [line for line in out.splitlines() if line.startswith("*")]
    assert len(marked) == 1


def test_report_without_power_flags_skips_emissions(pipeline, capsys):
    _, front = run_tune(pipeline, "front.jsonl")
    capsys.readouterr()
    assert main(["report", "--front", str(front)]) == EXIT_OK
    assert "kWh" not in capsys.readouterr().out


@pytest.mark.parametrize("target", ["nan", "0", "-1"])
def test_report_non_positive_target_exits_parse(pipeline, capsys, target):
    _, front = run_tune(pipeline, "front.jsonl")
    capsys.readouterr()
    assert main(["report", "--front", str(front), "--target-mb", target]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "must be positive" in captured.err
    assert captured.out == ""


def test_report_empty_front_exits_constraint(tmp_path):
    empty = tmp_path / "front.jsonl"
    empty.write_text("")
    assert main(["report", "--front", str(empty)]) == EXIT_CONSTRAINT


def test_report_malformed_front_exits_parse(tmp_path):
    bad = tmp_path / "front.jsonl"
    bad.write_text('{"config": {"tokenizer": "Word"}}\n')
    assert main(["report", "--front", str(bad)]) == EXIT_PARSE


def test_report_missing_file_exits_internal(tmp_path):
    assert main(["report", "--front", str(tmp_path / "nope.jsonl")]) == EXIT_INTERNAL


# --- parser ------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "cfgtune" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
