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
import dataclasses
import datetime
import hashlib
import json
import shlex
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
    atomic_open,
    load_space,
    save_space,
)
from .surrogate import SurrogateModel, r_squared
from .tuner import (
    Individual,
    ObjectiveVector,
    ParetoArchive,
    TunerParams,
    select_deployment_config,
    tune,
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
    digest = hashlib.sha256(f"{master_seed}:{component}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _utc_now() -> str:
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
        command = tuple(shlex.split(selector[len("external:"):]))
        if not command:
            raise SpaceFormatError("external oracle command is empty")
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


def _front_sort_key(record: dict):
    return (
        record["size_mb"],
        record["gflops"],
        -record["predicted_effectiveness"],
        json.dumps(record["config"], sort_keys=True),
    )


def cmd_prune(args) -> int:
    space = load_space(args.space)
    constraint = SizeConstraint(budget_mb=args.budget_mb)
    pruned = prune(space, constraint)
    save_space(pruned, args.out)
    report = prune_report(space, pruned, constraint)
    report_path = _derived_path(args.out, ".report.json")
    with atomic_open(report_path) as handle:
        json.dump(report.as_dict(), handle, indent=2)
        handle.write("\n")
    print(f"pruned space written to {args.out}")
    for entry in report.retention:
        print(
            f"  {entry.name}: kept {entry.kept_count}/{entry.original_count} "
            f"-> {entry.retained}"
        )
    print(f"cardinality ratio: {report.cardinality_ratio:.4f}")
    return EXIT_OK


def cmd_fit(args) -> int:
    space = load_space(args.space)
    if args.samples < 2:
        raise SpaceFormatError("--samples must be >= 2")
    if args.samples < 5:
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
    with atomic_open(table_path) as handle:
        for config, target in zip(configs, table.targets):
            handle.write(
                json.dumps(
                    {"config": config.as_dict(), "effectiveness": target},
                    sort_keys=True,
                )
                + "\n"
            )
    print(f"surrogate model written to {args.out}")
    print(f"audit table ({len(table)} rows) written to {table_path}")
    print(
        f"alpha={model.alpha:.6g} beta={model.beta:.6g} "
        f"iterations={model.n_iterations} converged={model.converged} "
        f"train R^2={r_squared(model, table.vectors, table.targets):.3f}"
    )
    return EXIT_OK


def cmd_tune(args) -> int:
    space = load_space(args.space)
    model = SurrogateModel.load(args.model)
    if model.space_checksum is not None and model.space_checksum != space.checksum():
        raise ChecksumMismatchError(
            "surrogate model was fitted on a space with a different checksum; "
            "refit or pass the matching space file"
        )
    params = TunerParams(
        population_size=args.pop,
        generations=args.generations,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        seed=derive_seed(args.seed, "tune"),
    )
    result = tune(space, model, params, size_budget_mb=args.budget_mb)
    members = result.archive.members
    if not members:
        raise EmptyFrontError(
            f"no archived configuration fits {args.budget_mb} MB"
        )

    records = sorted(map(_front_record, members), key=_front_sort_key)
    with atomic_open(args.out) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    log_path = _derived_path(args.out, ".runlog.jsonl")
    with atomic_open(log_path) as handle:
        for rec in result.records:
            handle.write(json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n")

    manifest_path = _derived_path(args.out, ".manifest.json")
    manifest = {
        "tool_version": __version__,
        "space_checksum": space.checksum(),
        "size_budget_mb": args.budget_mb,
        "surrogate_file": str(args.model),
        "tuner_params": dataclasses.asdict(params),
        "hypervolume_reference": list(result.reference_point),
        "master_seed": args.seed,
        "evaluations": result.evaluation_count,
        "front_size": len(records),
        "written_at": _utc_now(),
    }
    with atomic_open(manifest_path) as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")

    print(f"front ({len(records)} members) written to {args.out}")
    print(f"run log written to {log_path}")
    print(f"manifest written to {manifest_path}")
    return EXIT_OK


def _load_front(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                Configuration.from_dict(record["config"])
                float(record["size_mb"])
                float(record["gflops"])
                float(record["predicted_effectiveness"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                raise SpaceFormatError(
                    f"malformed front record on line {line_number}: {err}"
                ) from err
            records.append(record)
    return records


def cmd_report(args) -> int:
    if not args.target_mb > 0:
        raise ValueError(f"--target-mb must be positive, got {args.target_mb}")
    records = _load_front(args.front)
    if not records:
        raise EmptyFrontError(f"front file {args.front} has no solutions")
    records.sort(key=_front_sort_key)
    archive = ParetoArchive()
    for record in records:
        archive.insert(
            Individual(
                config=Configuration.from_dict(record["config"]),
                objectives=ObjectiveVector(
                    size_mb=record["size_mb"],
                    gflops=record["gflops"],
                    neg_effectiveness=-record["predicted_effectiveness"],
                ),
            )
        )
    pick = select_deployment_config(archive, args.target_mb)

    print(f"{'':2} {'size_mb':>10} {'gflops':>10} {'effectiveness':>13}  configuration")
    for record in records:
        config = record["config"]
        marker = "*" if config == pick.config.as_dict() else " "
        summary = (
            f"v={config['vocab_size']} l={config['num_hidden_layers']} "
            f"h={config['hidden_size']} i={config['intermediate_size']} "
            f"heads={config['num_attention_heads']} s={config['max_sequence_length']} "
            f"tok={config['tokenizer']}"
        )
        print(
            f"{marker:2} {record['size_mb']:>10.4f} {record['gflops']:>10.4f} "
            f"{record['predicted_effectiveness']:>13.4f}  {summary}"
        )
    print()
    print(f"deployment pick (closest to {args.target_mb} MB):")
    print(json.dumps(pick.config.as_dict(), indent=2, sort_keys=True))

    if args.runtime_hours is not None and args.power_kw is not None:
        energy = training_energy_kwh(args.runtime_hours, args.power_kw)
        co2 = co2_emissions_kg(energy, args.carbon_intensity)
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
    p_tune.add_argument("--crossover-rate", type=float, default=0.6)
    p_tune.add_argument("--mutation-rate", type=float, default=0.1)
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
    except (SpaceFormatError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
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
