import hashlib
import json
import math
import os
import re
import subprocess
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
from conftest import CANONICAL_SPACE_FILE, MINI_SPACE_DOCUMENT, REPO_ROOT


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
        assert load_space(tmp_path / "pruned.json").dimension("vocab_size").domain == (1000,)


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


def test_prune_non_finite_space_value_exits_parse(tmp_path, capsys):
    # Python's json reads NaN; a space holding one used to run every stage
    # and write front lines that are not JSON.
    document = json.loads(CANONICAL_SPACE_FILE.read_text())
    document["learning_rate"] = [math.nan, 0.001]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    out = tmp_path / "pruned.json"
    assert main(["prune", "--space", str(bad), "--out", str(out)]) == EXIT_PARSE
    assert "learning_rate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, entry",
    [
        ("vocab_size", {"min": 1000, "max": 10**400}),
        ("learning_rate", [10**400, 0.001]),
        ("batch_size", [16, 10**400]),
        ("vocab_size", {"min": 1000, "max": 10**300}),  # fits a float, not a range
    ],
)
def test_prune_integer_too_large_exits_parse(tmp_path, capsys, name, entry):
    # Such integers used to load, then overflow in the first float conversion
    # or range length: an internal error, exit 5.
    document = json.loads(CANONICAL_SPACE_FILE.read_text())
    document[name] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    out = tmp_path / "pruned.json"
    assert main(["prune", "--space", str(bad), "--out", str(out)]) == EXIT_PARSE
    assert f"error: {name}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bad]


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


def test_prune_missing_out_directory_names_the_out_path(tmp_path, space_file, capsys):
    out = tmp_path / "nodir" / "p.json"
    assert main(["prune", "--space", str(space_file), "--out", str(out)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["space.json"]


@pytest.mark.parametrize("stage", ["prune", "tune"])
def test_out_path_that_is_a_directory_names_the_out_path(pipeline, capsys, stage):
    # os.replace's error used to name the hidden temporary file.
    out = pipeline["tmp"] / "outdir"
    out.mkdir()
    before = sorted(p.name for p in pipeline["tmp"].iterdir())
    if stage == "prune":
        code = main(["prune", "--space", str(pipeline["space"]), "--out", str(out)])
    else:
        code, _ = run_tune(pipeline, out.name)
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert f"Is a directory: '{out}'" in err
    assert ".tmp" not in err
    assert sorted(p.name for p in pipeline["tmp"].iterdir()) == before
    assert list(out.iterdir()) == []


def test_prune_impossible_budget_exits_constraint(tmp_path, space_file):
    assert main(
        [
            "prune",
            "--space", str(space_file),
            "--budget-mb", "0.000001",
            "--out", str(tmp_path / "out.json"),
        ]
    ) == EXIT_CONSTRAINT


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
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


@pytest.mark.parametrize(
    "samples, code, err",
    [
        ("1", EXIT_PARSE, "error: need k >= 2 samples to fit the surrogate\n"),
        ("3", EXIT_OK, "warning: 3 samples is a degenerate training set\n"),
    ],
    ids=["1-rejected", "3-fitted"],
)
def test_fit_warns_only_about_a_count_it_fits(tmp_path, space_file, capsys, samples, code, err):
    """A count below 2 gets only the error; 2 to 4 samples fit, with a warning."""
    out = tmp_path / "m.json"
    assert main(["fit", "--space", str(space_file), "--samples", samples, "--out", str(out)]) == code
    assert capsys.readouterr().err == err


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


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_fit_non_finite_or_negative_noise_exits_parse(tmp_path, space_file, capsys, sigma):
    # NaN and -1 meant no noise, and inf turned every target into 0.0 or 1.0,
    # all with exit 0.
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--noise-sigma", sigma,
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_PARSE
    assert "noise_sigma must be finite and non-negative" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["space.json"]


@pytest.mark.parametrize("sigma", ["1.5", "1e308"])
def test_fit_noise_above_one_exits_parse(tmp_path, space_file, capsys, sigma):
    # The synthetic oracle clamps every score to [0, 1], so such noise left
    # targets of only 0.0 and 1.0 and a fit that did not converge, with exit 0.
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--noise-sigma", sigma,
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_PARSE
    assert "noise_sigma must be at most 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["space.json"]


def test_fit_noise_with_external_oracle_exits_parse(tmp_path, space_file, capsys):
    # The evaluator never sees the noise, so the flag would be silently ignored.
    marker = tmp_path / "evaluator-ran"
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--oracle", f"external:{sys.executable} -c \"open('{marker}', 'w')\"",
            "--noise-sigma", "0.05",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_PARSE
    assert "--noise-sigma applies only to the synthetic oracle" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["space.json"]


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


@pytest.mark.parametrize(
    "literal", ['"0.7"', "true", str(10**400)], ids=["string", "boolean", "huge-integer"]
)
def test_fit_external_oracle_non_number_exits_oracle(tmp_path, space_file, capsys, literal):
    # A string or a boolean was read as a float and fitted; 10**400 overflowed
    # in that conversion, an internal error (exit 5).
    script = tmp_path / "eval.py"
    script.write_text(
        textwrap.dedent(
            f"""\
            import json, sys
            rows = [json.loads(line) for line in open(sys.argv[1])]
            with open(sys.argv[2], "w") as handle:
                for row in rows:
                    handle.write('{{"id": %s, "effectiveness": %s}}\\n' % (json.dumps(row["id"]), {literal!r}))
            """
        )
    )
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--oracle", f"external:{sys.executable} {script}",
            "--samples", "6",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_ORACLE
    assert "non-numeric effectiveness on response line 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.py", "space.json"]


@pytest.mark.parametrize(
    "response, line_number",
    [
        ('{"id": ["cfg-0"], "effectiveness": 0.7}\n', 1),
        ('{"id": "cfg-unknown", "effectiveness": 0.7}\n{"id": 7, "effectiveness": 0.7}\n', 2),
    ],
    ids=["list-id", "int-id-beside-unknown-string-id"],
)
def test_fit_external_oracle_non_string_id_exits_oracle(
    tmp_path, space_file, capsys, response, line_number
):
    # A list id was used as a dict key ("unhashable type: 'list'"), and an int
    # id beside an unknown string id failed to sort the unexpected ids; both
    # were internal errors (exit 5).
    script = tmp_path / "eval.py"
    script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({response!r})\n")
    assert main(
        [
            "fit",
            "--space", str(space_file),
            "--oracle", f"external:{sys.executable} {script}",
            "--samples", "6",
            "--out", str(tmp_path / "m.json"),
        ]
    ) == EXIT_ORACLE
    assert f"response id on line {line_number} is not a string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.py", "space.json"]


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
    assert manifest["python_version"] == ".".join(map(str, sys.version_info[:3]))


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


def test_tune_null_checksum_exits_constraint(pipeline):
    # A model that names no space is not taken to match this one.
    document = json.loads(pipeline["model"].read_text())
    document["space_checksum"] = None
    pipeline["model"].write_text(json.dumps(document))
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_CONSTRAINT
    assert not out.exists()


def test_tune_impossible_budget_exits_constraint(pipeline, capsys):
    # Below the space's all-minimum corner no configuration fits: tune stops
    # before its search and writes no front, run log or manifest.
    before = sorted(p.name for p in pipeline["tmp"].iterdir())
    code, _ = run_tune(pipeline, "front.jsonl", budget="0.0001")
    assert code == EXIT_CONSTRAINT
    assert "all-minimum corner exceeds" in capsys.readouterr().err
    assert sorted(p.name for p in pipeline["tmp"].iterdir()) == before


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
def test_tune_non_positive_budget_exits_parse(pipeline, capsys, budget):
    code, out = run_tune(pipeline, "front.jsonl", budget=budget)
    assert code == EXIT_PARSE
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget, expected", [("64", EXIT_PARSE), ("3.0", EXIT_OK), ("1.5", EXIT_OK)])
def test_tune_budget_above_the_pruned_one_exits_parse(pipeline, capsys, budget, expected):
    # The space was pruned at 3 MB: a larger budget would search a space
    # pruned for a smaller one, and stops before any evaluation or file.
    before = sorted(p.name for p in pipeline["tmp"].iterdir())
    code, out = run_tune(pipeline, "front.jsonl", budget=budget)
    assert code == expected
    if expected == EXIT_PARSE:
        assert "exceeds the 3.0 MB" in capsys.readouterr().err
        assert sorted(p.name for p in pipeline["tmp"].iterdir()) == before
    else:
        assert out.exists()


@pytest.mark.parametrize("report", ["missing", "another space"])
def test_tune_budget_is_free_without_the_spaces_report(pipeline, report):
    report_path = pipeline["tmp"] / "pruned.report.json"
    if report == "missing":
        report_path.unlink()
    else:
        document = json.loads(report_path.read_text())
        document["pruned_cardinality"] = str(int(document["pruned_cardinality"]) + 1)
        report_path.write_text(json.dumps(document))
    code, out = run_tune(pipeline, "front.jsonl", budget="64")
    assert code == EXIT_OK
    assert out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda report: "[1, 2]", "is not a JSON object"),
        (lambda report: "{not json", "is not valid JSON"),
        (
            lambda report: json.dumps({**report, "budget_mb": "3.0"}),
            "has a budget_mb that is not a finite number",
        ),
        (
            lambda report: json.dumps({**report, "budget_mb": math.nan}),
            "has a budget_mb that is not a finite number",
        ),
    ],
    ids=["list", "not json", "string budget", "nan budget"],
)
def test_tune_malformed_prune_report_exits_parse(pipeline, capsys, edit, message):
    # Valid JSON that is no object used to reach ``.get`` and exit 5, and a
    # report of this space without a numeric budget was ignored.
    report_path = pipeline["tmp"] / "pruned.report.json"
    report_path.write_text(edit(json.loads(report_path.read_text())))
    before = sorted(p.name for p in pipeline["tmp"].iterdir())
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_PARSE
    assert f"prune report {report_path} {message}" in capsys.readouterr().err
    assert sorted(p.name for p in pipeline["tmp"].iterdir()) == before
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "path",
    [("weights", 2), ("alpha",), ("beta",), ("feature_min", 0), ("feature_max", 12), ("covariance", 3, 5)],
    ids=lambda path: path[0],
)
def test_tune_non_finite_model_number_exits_parse(pipeline, capsys, path, value):
    # json writes these as the tokens NaN, Infinity and -Infinity, which
    # json reads back although they are no JSON numbers.
    document = json.loads(pipeline["model"].read_text())
    *keys, last = path
    target = document
    for key in keys:
        target = target[key]
    target[last] = value
    pipeline["model"].write_text(json.dumps(document))
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_PARSE
    assert f"{path[0]} holds a number that is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_tune_model_integer_too_large_for_a_float_exits_parse(pipeline, capsys):
    document = json.loads(pipeline["model"].read_text())
    document["weights"][2] = 10**400
    pipeline["model"].write_text(json.dumps(document))
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_PARSE
    assert "model file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, breakage",
    [
        ("alpha", lambda doc: doc.update(alpha=str(doc["alpha"]))),
        ("beta", lambda doc: doc.update(beta=True)),
        ("weights", lambda doc: doc.update(weights=list(map(str, doc["weights"])))),
        ("converged", lambda doc: doc.update(converged="false")),
        ("n_train", lambda doc: doc.update(n_train=str(doc["n_train"]))),
    ],
    ids=["string-alpha", "boolean-beta", "string-weights", "string-converged", "string-n_train"],
)
def test_tune_model_value_of_the_wrong_type_exits_parse(pipeline, capsys, field, breakage):
    # These were converted by float(), int() or bool(), and tune ran.
    document = json.loads(pipeline["model"].read_text())
    breakage(document)
    pipeline["model"].write_text(json.dumps(document))
    code, out = run_tune(pipeline, "front.jsonl")
    assert code == EXIT_PARSE
    assert field in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_tune_artifacts_are_strict_json_while_the_archive_is_empty(tmp_path):
    # At README defaults with the seed-11 model, tune seed 0 archives nothing
    # in its first three generations; those run-log lines have no best member.
    pruned, model, front = tmp_path / "pruned.json", tmp_path / "model.json", tmp_path / "front.jsonl"
    for stage in (
        ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", str(pruned)],
        ["fit", "--space", str(pruned), "--oracle", "synthetic", "--samples", "20", "--seed", "11",
         "--out", str(model)],
        ["tune", "--space", str(pruned), "--model", str(model), "--seed", "0", "--out", str(front)],
    ):
        assert main(stage) == EXIT_OK
    runlog = [
        json.loads(line, parse_constant=_reject_constant)
        for line in (tmp_path / "front.runlog.jsonl").read_text().splitlines()
    ]
    assert [row["archive_size"] == 0 for row in runlog[:4]] == [True] * 3 + [False]
    for row in runlog:
        best = [row["best_size_mb"], row["best_gflops"], row["best_effectiveness"]]
        assert best == [None] * 3 if row["archive_size"] == 0 else None not in best
    for line in front.read_text().splitlines():
        json.loads(line, parse_constant=_reject_constant)
    json.loads((tmp_path / "front.manifest.json").read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("failing", ["predicted_effectiveness", "hypervolume"], ids=["front", "runlog"])
def test_tune_failing_write_keeps_previous_artifacts(pipeline, monkeypatch, failing):
    assert run_tune(pipeline, "front.jsonl")[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in pipeline["tmp"].iterdir()}
    real_dumps, records = json.dumps, []

    def dumps_then_fail(obj, **kwargs):
        if isinstance(obj, dict) and failing in obj:
            records.append(obj)
            if len(records) == 2:  # the first line is already written
                raise TypeError("Object of type Tensor is not JSON serializable")
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps_then_fail)
    # Seed 8 finds another front, so a completed write would change the files.
    assert run_tune(pipeline, "front.jsonl", seed=8)[0] == EXIT_INTERNAL
    assert len(records) == 2
    after = {p.name: p.read_bytes() for p in pipeline["tmp"].iterdir()}
    assert sorted(after) == sorted(before)  # no temporary file left behind
    assert after["front.runlog.jsonl"] == before["front.runlog.jsonl"]
    assert after["front.manifest.json"] == before["front.manifest.json"]
    if failing == "predicted_effectiveness":
        assert after["front.jsonl"] == before["front.jsonl"]
    else:  # the front was written whole before the run log failed
        assert after["front.jsonl"] != before["front.jsonl"]


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
        lambda doc: doc.pop("space_checksum"),
    ],
    ids=[
        "no-weights",
        "weights-short",
        "covariance-rows",
        "covariance-row-short",
        "feature-max-short",
        "no-space-checksum",
    ],
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


@pytest.mark.parametrize("target", ["nan", "inf", "0", "-1"])
def test_report_non_positive_target_exits_parse(pipeline, capsys, target):
    _, front = run_tune(pipeline, "front.jsonl")
    capsys.readouterr()
    assert main(["report", "--front", str(front), "--target-mb", target]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "workload, message",
    [
        (["--runtime-hours", "nan", "--power-kw", "0.4", "--carbon-intensity", "0.4375"], "non-negative and finite"),
        (["--runtime-hours", "0.8", "--power-kw", "inf", "--carbon-intensity", "0.4375"], "non-negative and finite"),
        (["--runtime-hours", "0.8", "--power-kw", "0.4", "--carbon-intensity", "nan"], "non-negative and finite"),
        (["--runtime-hours", "-1"], "non-negative and finite"),
        (["--power-kw", "-0.5"], "non-negative and finite"),
        (["--carbon-intensity", "nan"], "non-negative and finite"),
        (["--carbon-intensity", "-1"], "non-negative and finite"),
        (["--runtime-hours", "0.8"], "given together"),
        (["--power-kw", "0.4"], "given together"),
        (["--runtime-hours", "1e308", "--power-kw", "10"], "runtime x power overflows"),
        (
            ["--runtime-hours", "1e200", "--power-kw", "1e100", "--carbon-intensity", "1e10"],
            "energy x carbon intensity overflows",
        ),
    ],
    ids=[
        "nan-runtime", "inf-power", "nan-intensity", "lone-negative-runtime", "lone-negative-power",
        "lone-nan-intensity", "lone-negative-intensity", "lone-runtime", "lone-power",
        "overflowing-energy", "overflowing-co2",
    ],
)
def test_report_non_finite_workload_exits_parse(pipeline, capsys, workload, message):
    # A negative or non-finite flag, half of the pair, or finite flags whose
    # energy or CO2 overflows is a usage error, reported before any output.
    _, front = run_tune(pipeline, "front.jsonl")
    capsys.readouterr()
    assert main(["report", "--front", str(front), *workload]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_report_empty_front_exits_constraint(tmp_path):
    empty = tmp_path / "front.jsonl"
    empty.write_text("")
    assert main(["report", "--front", str(empty)]) == EXIT_CONSTRAINT


def _truncate_config(record):
    record.clear()
    record["config"] = {"tokenizer": "Word"}


@pytest.mark.parametrize(
    "breakage",
    [
        _truncate_config,
        lambda record: record.update(predicted_effectiveness=str(record["predicted_effectiveness"])),
        lambda record: record.update(size_mb=math.nan),
        lambda record: record.update(gflops=True),
        lambda record: record.pop("gflops"),
        lambda record: record.update(size_mb=10**400),
    ],
    ids=[
        "truncated-config", "string-effectiveness", "nan-size", "boolean-gflops", "missing-gflops",
        "huge-integer-size",
    ],
)
def test_report_malformed_front_exits_parse(pipeline, capsys, breakage):
    # Line 1 is a real front record; line 2 is a copy of it, broken.
    _, front = run_tune(pipeline, "front.jsonl")
    record = json.loads(front.read_text().splitlines()[0])
    lines = [json.dumps(record)]
    breakage(record)
    lines.append(json.dumps(record))
    front.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--front", str(front)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "malformed front record on line 2" in captured.err
    assert captured.out == ""


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


# --- the README quickstart ---------------------------------------------------

# sha256 of every artifact and of each stage's stdout of the README quickstart
# (seed 11, an 8-member front). The manifest's digest is taken without its
# python_version and written_at lines.
QUICKSTART_DIGESTS = {
    "pruned.json": "6837f3c05c4c27d00edfaa153d919560c47de18b1356125105b1515409707947",
    "pruned.report.json": "daa1033d3200aeb3bd43dbabf1b8f8151d6e4dcea5fea298be967b0404a02e47",
    "model.json": "473a4d0f14c2cb28322c5f4d880c2238aa5a16be74cea2ff47e77f5c1adb0574",
    "model.table.jsonl": "3bf592a890c71349dc6979da6e82b0105cd5b733d4925f26b6f8a07a67c1140d",
    "front.jsonl": "1dfc34f8e4fd30df5a5948a115e106a35bd313198a175adef2e9607f7c87fdb7",
    "front.runlog.jsonl": "96e0ca7e67c4099f818d031cbf1e8ea22f98f2ed0863bcee2a0e3cba250a18f1",
    "front.manifest.json": "878ba6b3b852e7973158897ebd289cc252221f11e9d3469e8d98af0e13bec067",
    "prune stdout": "aa6edd48d5c5b63b6a439934483dc2f452e0d79ade18770be5dccef6f889d433",
    "fit stdout": "29c13c93657f4449d83b7e456e7280250a00a60de2b7e7374ed2e0107a729e8f",
    "tune stdout": "fc735ada0a6e2c78e3cb0b27905120b1dbe71485100af8a196a021a843813f7d",
    "report stdout": "48e238c3b2594603b9283f9cae5b034a20368947adaa32f69cdd531cd3ac2107",
}


def test_readme_quickstart_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    stages = [
        ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", "pruned.json"],
        ["fit", "--space", "pruned.json", "--oracle", "synthetic", "--samples", "20", "--seed", "11",
         "--out", "model.json"],
        ["tune", "--space", "pruned.json", "--model", "model.json", "--seed", "11", "--out", "front.jsonl"],
        ["report", "--front", "front.jsonl", "--target-mb", "3.0", "--runtime-hours", "0.8",
         "--power-kw", "0.4"],
    ]
    digests = {}
    for stage in stages:
        capsys.readouterr()
        assert main(stage) == EXIT_OK
        digests[f"{stage[0]} stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for path in tmp_path.iterdir():
        data = path.read_bytes()
        if path.name == "front.manifest.json":
            data = re.sub(rb'\n  "(python_version|written_at)": "[^"]*",?', b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == QUICKSTART_DIGESTS


def test_readme_python_api_block_runs():
    """The README's one ``python`` block, run from the repo root with
    ``PYTHONPATH=src`` as its documented use of the API."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
