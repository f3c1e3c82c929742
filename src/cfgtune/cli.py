"""Command-line pipeline: prune -> fit -> tune -> report.

One master seed per invocation is fanned out to per-component sub-seeds by
name hashing, so a pipeline rerun with the same seed reproduces every
artifact byte for byte (timestamps live only in the run manifest). Outputs
are line-delimited JSON records plus a JSON manifest sufficient to replay
the run.

Exit codes: 0 success, 2 parse/usage, 3 constraint or empty result,
4 oracle failure, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .costs import (
    DEFAULT_CARBON_INTENSITY,
    co2_emissions_kg,
    training_energy_kwh,
)
from .oracle import (
    ExternalProcessOracle,
    OracleError,
    SyntheticCapacityOracle,
    build_indicator,
)
from .pruning import EmptyFeasibleSpaceError, SizeConstraint, prune, prune_report
from .space import (
    Configuration,
    SpaceFormatError,
    UnsatisfiableSpaceError,
    is_json_number,
    load_space,
    save_space,
    sha256,
    write_json,
    write_jsonl,
)
from .surrogate import SurrogateModel, r_squared
from .tuner import (
    Individual,
    ObjectiveVector,
    ParetoArchive,
    TunerParams,
    select_deployment_config,
    tune,
    update_archive,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


class ChecksumMismatchError(ValueError):
    """Surrogate model was fitted on a different space than the one given."""


class EmptyFrontError(ValueError):
    """A front file contains no members."""


def derive_seed(master_seed: int, component: str) -> int:
    """Stable sub-seed for a named pipeline component."""
    digest = sha256(f"{master_seed}:{component}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _utc_now() -> str:
    import datetime  # only the manifest's timestamp reads the clock

    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _derived_path(out_path: str, suffix: str) -> Path:
    base = Path(out_path)
    return base.with_name(base.stem + suffix)


def _make_oracle(selector: str, space, seed: int, noise_sigma: float):
    if selector == "synthetic":
        return SyntheticCapacityOracle(
            reference_space=space,
            noise_sigma=noise_sigma,
            seed=derive_seed(seed, "oracle"),
        )
    if selector.startswith("external:"):
        import shlex

        command = tuple(shlex.split(selector[len("external:"):]))
        if not command:
            raise SpaceFormatError("external oracle command is empty")
        if noise_sigma:  # the evaluator is never told of it
            raise ValueError("--noise-sigma applies only to the synthetic oracle")
        return ExternalProcessOracle(command=command, space_checksum=space.checksum())
    raise SpaceFormatError(
        f"unknown oracle {selector!r}; expected 'synthetic' or 'external:<cmd>'"
    )


def _front_record(member: Individual) -> dict:
    return {
        "config": member.config.as_dict(),
        "size_mb": member.objectives.size_mb,
        "gflops": member.objectives.gflops,
        "predicted_effectiveness": member.objectives.effectiveness,
    }


def _front_sort_key(member: Individual):
    """Size, GFLOPs, then higher effectiveness first; the configuration's
    JSON breaks ties."""
    return (*member.objectives, json.dumps(member.config.as_dict(), sort_keys=True))


def cmd_prune(args) -> int:
    space = load_space(args.space)
    constraint = SizeConstraint(budget_mb=args.budget_mb)
    pruned = prune(space, constraint)
    save_space(pruned, args.out)
    report = prune_report(space, pruned, constraint)
    write_json(_derived_path(args.out, ".report.json"), report)
    print(f"pruned space written to {args.out}")
    for entry in report["dimensions"]:
        print(
            f"  {entry['name']}: kept {entry['kept_count']}/{entry['original_count']} "
            f"-> {entry['retained']}"
        )
    print(f"cardinality ratio: {report['cardinality_ratio']:.4f}")
    return EXIT_OK


def cmd_fit(args) -> int:
    space = load_space(args.space)
    if 2 <= args.samples < 5:
        print(
            f"warning: {args.samples} samples is a degenerate training set",
            file=sys.stderr,
        )
    oracle = _make_oracle(args.oracle, space, args.seed, args.noise_sigma)
    model, table, configs = build_indicator(
        space, oracle, k=args.samples, seed=derive_seed(args.seed, "fit:sample")
    )
    model.save(args.out)
    table_path = _derived_path(args.out, ".table.jsonl")
    write_jsonl(
        table_path,
        ({"config": c.as_dict(), "effectiveness": t} for c, t in zip(configs, table.targets)),
    )
    print(f"surrogate model written to {args.out}")
    print(f"audit table ({len(table.targets)} rows) written to {table_path}")
    print(
        f"alpha={model.alpha:.6g} beta={model.beta:.6g} "
        f"iterations={model.n_iterations} converged={model.converged} "
        f"train R^2={r_squared(model, table.vectors, table.targets):.3f}"
    )
    return EXIT_OK


def _pruned_for_mb(space_path: str, space) -> float:
    """The budget of the report ``prune`` wrote beside ``space_path`` if it
    describes ``space`` (the same pruned cardinality); else infinity. A
    report that is not a JSON object, or that describes ``space`` without a
    number for its budget, raises ``ValueError`` naming it."""
    path = _derived_path(space_path, ".report.json")
    try:
        report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    except json.JSONDecodeError as err:
        raise ValueError(f"prune report {path} is not valid JSON: {err}") from err
    if not isinstance(report, dict):
        raise ValueError(f"prune report {path} is not a JSON object")
    if report.get("pruned_cardinality") != str(space.cardinality()):
        return math.inf
    if not is_json_number(report.get("budget_mb")):
        raise ValueError(f"prune report {path} has a budget_mb that is not a finite number")
    return report["budget_mb"]


def cmd_tune(args) -> int:
    space = load_space(args.space)
    # A larger budget would search a space pruned for a smaller one; a budget
    # that is not positive and finite is left to ``tune``'s own check.
    pruned_for = _pruned_for_mb(args.space, space)
    if pruned_for < args.budget_mb < math.inf:
        raise ValueError(f"--budget-mb {args.budget_mb} exceeds the {pruned_for} MB {args.space} was pruned for")
    model = SurrogateModel.load(args.model)
    checksum = space.checksum()
    if model.space_checksum != checksum:
        raise ChecksumMismatchError(
            "surrogate model does not name this space's checksum; "
            "refit or pass the matching space file"
        )
    params = TunerParams(
        population_size=args.pop,
        generations=args.generations,
        seed=derive_seed(args.seed, "tune"),
    )
    result = tune(space, model, params, size_budget_mb=args.budget_mb)
    if not result.archive:
        raise EmptyFrontError(
            f"no archived configuration fits {args.budget_mb} MB"
        )

    records = [_front_record(m) for m in sorted(result.archive, key=_front_sort_key)]
    write_jsonl(args.out, records)
    log_path = _derived_path(args.out, ".runlog.jsonl")
    write_jsonl(log_path, (record._asdict() for record in result.records))

    manifest_path = _derived_path(args.out, ".manifest.json")
    manifest = {
        "tool_version": __version__,
        "python_version": ".".join(map(str, sys.version_info[:3])),
        "space_checksum": checksum,
        "size_budget_mb": args.budget_mb,
        "surrogate_file": str(args.model),
        "tuner_params": {
            "population_size": params.population_size,
            "generations": params.generations,
            "seed": params.seed,
        },
        "hypervolume_reference": list(result.reference_point),
        "master_seed": args.seed,
        "evaluations": len(result.memo),
        "front_size": len(records),
        "written_at": _utc_now(),
    }
    write_json(manifest_path, manifest)

    print(f"front ({len(records)} members) written to {args.out}")
    print(f"run log written to {log_path}")
    print(f"manifest written to {manifest_path}")
    return EXIT_OK


def _objective(record: dict, key: str) -> float:
    value = record[key]
    if not is_json_number(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def _load_front(path: str) -> list[Individual]:
    """The members of a front file, one per non-blank line, in file order."""
    front = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                member = Individual(
                    config=Configuration.from_dict(record["config"]),
                    objectives=ObjectiveVector(
                        size_mb=_objective(record, "size_mb"),
                        gflops=_objective(record, "gflops"),
                        neg_effectiveness=-_objective(record, "predicted_effectiveness"),
                    ),
                )
            except (KeyError, TypeError, ValueError) as err:
                raise SpaceFormatError(
                    f"malformed front record on line {line_number}: {err}"
                ) from err
            front.append(member)
    return front


def cmd_report(args) -> int:
    if not 0 < args.target_mb < math.inf:
        raise ValueError(f"--target-mb must be positive and finite, got {args.target_mb}")
    # Before any output: a rejected workload prints nothing.
    for flag in ("runtime_hours", "power_kw", "carbon_intensity"):
        value = getattr(args, flag)
        if value is not None and not 0 <= value < math.inf:
            raise ValueError(f"--{flag.replace('_', '-')} must be non-negative and finite, got {value}")
    if (args.runtime_hours is None) != (args.power_kw is None):
        raise ValueError("--runtime-hours and --power-kw must be given together")
    estimate = args.runtime_hours is not None
    if estimate:
        energy = training_energy_kwh(args.runtime_hours, args.power_kw)
        co2 = co2_emissions_kg(energy, args.carbon_intensity)
    front = _load_front(args.front)
    if not front:
        raise EmptyFrontError(f"front file {args.front} has no solutions")
    front.sort(key=_front_sort_key)
    pick = select_deployment_config(update_archive(ParetoArchive(), front), args.target_mb)

    print(f"{'':2} {'size_mb':>10} {'gflops':>10} {'effectiveness':>13}  configuration")
    for member in front:
        config, objectives = member.config, member.objectives
        marker = "*" if member is pick else " "
        summary = (
            f"v={config.vocab_size} l={config.num_hidden_layers} "
            f"h={config.hidden_size} i={config.intermediate_size} "
            f"heads={config.num_attention_heads} s={config.max_sequence_length} "
            f"tok={config.tokenizer}"
        )
        print(
            f"{marker:2} {objectives.size_mb:>10.4f} {objectives.gflops:>10.4f} "
            f"{objectives.effectiveness:>13.4f}  {summary}"
        )
    print()
    print(f"deployment pick (closest to {args.target_mb} MB):")
    print(json.dumps(pick.config.as_dict(), indent=2, sort_keys=True))

    if estimate:
        print()
        print(
            f"workload estimate: {energy:.4f} kWh at {args.carbon_intensity} "
            f"kg/kWh -> {co2:.4f} kg CO2"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfgtune",
        description=(
            "Find size/compute/effectiveness trade-off configurations for a "
            "small transformer under a model-size budget."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cfgtune {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_prune = commands.add_parser("prune", help="drop values that cannot fit the size budget")
    p_prune.add_argument("--space", required=True, help="space JSON file")
    p_prune.add_argument("--budget-mb", type=float, default=3.0)
    p_prune.add_argument("--out", required=True, help="pruned space JSON file")
    p_prune.set_defaults(handler=cmd_prune)

    p_fit = commands.add_parser("fit", help="sample, score, and fit the effectiveness surrogate")
    p_fit.add_argument("--space", required=True, help="(pruned) space JSON file")
    p_fit.add_argument(
        "--oracle",
        default="synthetic",
        help="'synthetic' or 'external:<command>' evaluator",
    )
    p_fit.add_argument("--samples", type=int, default=20)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--noise-sigma", type=float, default=0.0)
    p_fit.add_argument("--out", required=True, help="surrogate model JSON file")
    p_fit.set_defaults(handler=cmd_fit)

    p_tune = commands.add_parser("tune", help="run the multi-objective search")
    p_tune.add_argument("--space", required=True, help="pruned space JSON file")
    p_tune.add_argument("--model", required=True, help="surrogate model JSON file")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--pop", type=int, default=20)
    p_tune.add_argument("--generations", type=int, default=50)
    p_tune.add_argument("--budget-mb", type=float, default=3.0)
    p_tune.add_argument("--out", required=True, help="Pareto-front JSONL file")
    p_tune.set_defaults(handler=cmd_tune)

    p_report = commands.add_parser("report", help="summarize a front file")
    p_report.add_argument("--front", required=True, help="Pareto-front JSONL file")
    p_report.add_argument("--target-mb", type=float, default=3.0)
    p_report.add_argument("--runtime-hours", type=float, default=None)
    p_report.add_argument("--power-kw", type=float, default=None)
    p_report.add_argument("--carbon-intensity", type=float, default=DEFAULT_CARBON_INTENSITY)
    p_report.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        EmptyFeasibleSpaceError,
        ChecksumMismatchError,
        EmptyFrontError,
        UnsatisfiableSpaceError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except OracleError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as err:  # noqa: BLE001 - last-resort classification
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
