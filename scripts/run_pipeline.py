"""Run the full tuning pipeline against one seed and print a summary.

Prune the configuration space to the size budget, fit the effectiveness
surrogate from synthetic-oracle samples, run the multi-objective search,
and write the front plus run artifacts under --out-dir.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from cfgtune import (
    SizeConstraint,
    SyntheticCapacityOracle,
    TunerParams,
    build_indicator,
    forward_gflops,
    load_space,
    model_size_mb,
    prune,
    prune_report,
    r_squared,
    select_deployment_config,
    tune,
)
from cfgtune.cli import derive_seed
from cfgtune.space import atomic_open

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", type=Path, default=REPO_ROOT / "spaces" / "listing3.json")
    parser.add_argument("--budget-mb", type=float, default=3.0)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pop", type=int, default=20)
    parser.add_argument("--generations", type=int, default=50)
    parser.add_argument("--noise-sigma", type=float, default=0.0)
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT / "runs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    space = load_space(args.space)
    constraint = SizeConstraint(budget_mb=args.budget_mb)
    pruned = prune(space, constraint, partitions=13)
    report = prune_report(space, pruned, constraint, partitions=13)
    print(f"space: {space.cardinality()} -> {pruned.cardinality()} configurations "
          f"(ratio {report.cardinality_ratio:.4f})")
    for entry in report.retention:
        if entry.kept_count != entry.original_count:
            print(f"  {entry.name}: {entry.original_count} -> {entry.kept_count} values")

    oracle = SyntheticCapacityOracle(
        reference_space=pruned,
        noise_sigma=args.noise_sigma,
        seed=derive_seed(args.seed, "oracle"),
    )
    model, table, _ = build_indicator(
        pruned, oracle, k=args.samples, seed=derive_seed(args.seed, "fit:sample")
    )
    score = r_squared(model, table.vectors, table.targets)
    print(f"surrogate: alpha={model.alpha:.4g} beta={model.beta:.4g} "
          f"train R^2={score:.3f} ({len(table)} samples)")

    result = tune(
        pruned,
        model,
        TunerParams(
            population_size=args.pop,
            generations=args.generations,
            seed=derive_seed(args.seed, "tune"),
        ),
        size_budget_mb=args.budget_mb,
    )
    if not len(result.archive):
        print(f"search: {result.evaluation_count} evaluations, but no configuration "
              f"within {args.budget_mb} MB; increase --generations")
        return 3
    front = sorted(result.archive, key=lambda ind: ind.objectives.size_mb)
    print(f"search: {result.evaluation_count} distinct evaluations, "
          f"front size {len(front)}, final hypervolume {result.records[-1].hypervolume:.4f}")

    front_path = args.out_dir / f"front_seed{args.seed}.jsonl"
    with atomic_open(front_path) as handle:
        for member in front:
            handle.write(json.dumps({
                "config": member.config.as_dict(),
                "size_mb": member.objectives.size_mb,
                "gflops": member.objectives.gflops,
                "predicted_effectiveness": member.objectives.effectiveness,
            }, sort_keys=True) + "\n")
    log_path = args.out_dir / f"runlog_seed{args.seed}.jsonl"
    with atomic_open(log_path) as handle:
        for record in result.records:
            handle.write(json.dumps(record.__dict__, sort_keys=True) + "\n")

    pick = select_deployment_config(result.archive, args.budget_mb)
    print(f"\n{'size_mb':>10} {'gflops':>10} {'effectiveness':>13}")
    for member in front:
        marker = "*" if member is pick else " "
        print(f"{member.objectives.size_mb:>10.4f} {member.objectives.gflops:>10.4f} "
              f"{member.objectives.effectiveness:>13.4f} {marker}")
    print(f"\ndeployment pick (closest to {args.budget_mb} MB): "
          f"{model_size_mb(pick.config):.4f} MB, {forward_gflops(pick.config):.4f} GFLOPs")
    print(json.dumps(pick.config.as_dict(), indent=2, sort_keys=True))
    print(f"\nartifacts: {front_path}, {log_path}")
    print(f"total wall time: {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
