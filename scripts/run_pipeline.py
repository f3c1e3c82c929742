"""Run the full tuning pipeline for one master seed through the CLI's stages.

Calls prune, fit, tune and report in order. Each flag maps onto the stage flag
of the same name (--budget-mb is also report's --target-mb). Artifacts go under
--out-dir: pruned.json, model_seed<N>.json and front_seed<N>.jsonl, each with
the companion files its stage writes. Exits with the first failing stage's code.
"""

from __future__ import annotations

import argparse
import shlex
from pathlib import Path

from cfgtune import cli

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
    pruned = str(args.out_dir / "pruned.json")
    model = str(args.out_dir / f"model_seed{args.seed}.json")
    front = str(args.out_dir / f"front_seed{args.seed}.jsonl")
    budget, seed = str(args.budget_mb), str(args.seed)
    stages = [
        ["prune", "--space", str(args.space), "--budget-mb", budget, "--out", pruned],
        ["fit", "--space", pruned, "--samples", str(args.samples), "--seed", seed,
         "--noise-sigma", str(args.noise_sigma), "--out", model],
        ["tune", "--space", pruned, "--model", model, "--seed", seed, "--pop", str(args.pop),
         "--generations", str(args.generations), "--budget-mb", budget, "--out", front],
        ["report", "--front", front, "--target-mb", budget],
    ]
    for stage in stages:
        print(f"$ cfgtune {shlex.join(stage)}", flush=True)
        code = cli.main(stage)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
