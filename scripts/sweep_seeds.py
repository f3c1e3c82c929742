"""Sweep tuner seeds on one pruned space and report front-quality spread.

Prunes the space and fits the surrogate once with the CLI's prune and fit
stages (fit at seed 0), writing both beside --out, then reruns the search under
a range of seeds to show how front size, hypervolume and the deployment pick
vary with search randomness alone. Every hypervolume is the run's last run-log
value, taken against the fixed ``reference_point`` of the pruned space and the
budget: the budget, the pruned max corner's GFLOPs, and zero effectiveness.
"""

from __future__ import annotations

import argparse
import statistics
from pathlib import Path

from cfgtune import (
    SurrogateModel,
    TunerParams,
    cli,
    load_space,
    reference_point,
    select_deployment_config,
    tune,
)
from cfgtune.space import write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", type=Path, default=REPO_ROOT / "spaces" / "listing3.json")
    parser.add_argument("--budget-mb", type=float, default=3.0)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seeds", type=int, default=10, help="number of tuner seeds")
    parser.add_argument("--pop", type=int, default=20)
    parser.add_argument("--generations", type=int, default=50)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "runs" / "seed_sweep.jsonl")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    pruned_path = str(args.out.with_name(args.out.stem + ".pruned.json"))
    model_path = str(args.out.with_name(args.out.stem + ".model.json"))
    for stage in (
        ["prune", "--space", str(args.space), "--budget-mb", str(args.budget_mb),
         "--out", pruned_path],
        ["fit", "--space", pruned_path, "--samples", str(args.samples), "--seed", "0",
         "--out", model_path],
    ):
        code = cli.main(stage)
        if code:
            return code
    pruned = load_space(pruned_path)
    model = SurrogateModel.load(model_path)
    reference = reference_point(pruned, args.budget_mb)
    print(f"\nhypervolume reference (size MB, GFLOPs, -effectiveness): {reference}")

    rows = []
    print(f"{'seed':>4} {'front':>5} {'evals':>6} {'hypervolume':>12} "
          f"{'pick_size_mb':>12} {'pick_eff':>8}")
    for seed in range(args.seeds):
        result = tune(
            pruned,
            model,
            TunerParams(
                population_size=args.pop,
                generations=args.generations,
                seed=cli.derive_seed(seed, "tune"),
            ),
            size_budget_mb=args.budget_mb,
        )
        if len(result.archive):
            pick = select_deployment_config(result.archive, args.budget_mb)
            pick_size = pick.objectives.size_mb
            pick_eff = pick.objectives.effectiveness
            pick_text = f"{pick_size:>12.4f} {pick_eff:>8.4f}"
        else:  # no evaluated configuration fit the budget in this run
            pick_size = pick_eff = None
            pick_text = f"{'-':>12} {'-':>8}"
        row = {
            "seed": seed,
            "front_size": len(result.archive),
            "evaluations": len(result.genome_evaluations),
            "hypervolume": result.records[-1].hypervolume,
            "pick_size_mb": pick_size,
            "pick_effectiveness": pick_eff,
        }
        rows.append(row)
        print(f"{row['seed']:>4} {row['front_size']:>5} {row['evaluations']:>6} "
              f"{row['hypervolume']:>12.4f} {pick_text}")

    write_jsonl(args.out, rows)

    front_sizes = [row["front_size"] for row in rows]
    volumes = [row["hypervolume"] for row in rows]
    print(f"\nfront size: median {statistics.median(front_sizes)}, "
          f"range [{min(front_sizes)}, {max(front_sizes)}]")
    spread = statistics.pstdev(volumes) if len(volumes) > 1 else 0.0
    print(f"hypervolume: mean {statistics.fmean(volumes):.4f}, stdev {spread:.4f}")
    print(f"rows written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
