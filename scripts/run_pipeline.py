"""Run the tuning pipeline through the CLI's stages over one or more tune seeds.

Prunes and fits once at --seed, then runs tune and report for each tune seed
(--tune-seeds, default: --seed). Each flag maps onto the stage flag of the same
name (--budget-mb is also report's --target-mb). Artifacts go under --out-dir:
pruned.json, model_seed<N>.json and front_seed<T>.jsonl, each with its stage's
companion files, and seeds.jsonl, one row per tune seed read back from them:
front size and evaluations from the manifest, and the run log's last
hypervolume, taken against the manifest's fixed reference. A tune that exits 3
(nothing fits the budget) gives an empty-front row and the sweep goes on; any
other failing stage's exit code is the script's.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
from pathlib import Path

from cfgtune import cli
from cfgtune.space import write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", type=Path, default=REPO_ROOT / "spaces" / "listing3.json")
    parser.add_argument("--budget-mb", type=float, default=3.0)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tune-seeds", type=int, nargs="+", metavar="T",
                        help="tune seeds to run on the one fitted model (default: --seed)")
    parser.add_argument("--pop", type=int, default=20)
    parser.add_argument("--generations", type=int, default=50)
    parser.add_argument("--noise-sigma", type=float, default=0.0)
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT / "runs")
    return parser.parse_args(argv)


def run(stage) -> int:
    print(f"$ cfgtune {shlex.join(stage)}", flush=True)
    return cli.main(stage)


def seed_row(seed: int, front: Path) -> dict:
    """One tune seed's row, read back from the artifacts its tune wrote."""
    manifest = json.loads(cli._derived_path(front, ".manifest.json").read_text(encoding="utf-8"))
    runlog = cli._derived_path(front, ".runlog.jsonl").read_text(encoding="utf-8").splitlines()
    return {
        "seed": seed,
        "front_size": manifest["front_size"],
        "evaluations": manifest["evaluations"],
        "hypervolume": json.loads(runlog[-1])["hypervolume"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    pruned = str(args.out_dir / "pruned.json")
    model = str(args.out_dir / f"model_seed{args.seed}.json")
    budget = str(args.budget_mb)
    for stage in (
        ["prune", "--space", str(args.space), "--budget-mb", budget, "--out", pruned],
        ["fit", "--space", pruned, "--samples", str(args.samples), "--seed", str(args.seed),
         "--noise-sigma", str(args.noise_sigma), "--out", model],
    ):
        code = run(stage)
        if code:
            return code

    rows = []
    for seed in args.tune_seeds or [args.seed]:
        front = args.out_dir / f"front_seed{seed}.jsonl"
        code = run(["tune", "--space", pruned, "--model", model, "--seed", str(seed),
                    "--pop", str(args.pop), "--generations", str(args.generations),
                    "--budget-mb", budget, "--out", str(front)])
        if code == cli.EXIT_CONSTRAINT:  # no evaluated configuration fit the budget
            rows.append({"seed": seed, "front_size": 0, "evaluations": None, "hypervolume": 0.0})
            continue
        code = code or run(["report", "--front", str(front), "--target-mb", budget])
        if code:
            return code
        rows.append(seed_row(seed, front))

    rows_path = args.out_dir / "seeds.jsonl"
    write_jsonl(rows_path, rows)
    front_sizes = [row["front_size"] for row in rows]
    volumes = [row["hypervolume"] for row in rows]
    print(f"\nfront size: median {statistics.median(front_sizes)}, "
          f"range [{min(front_sizes)}, {max(front_sizes)}]")
    print(f"hypervolume: mean {statistics.fmean(volumes):.4f}, "
          f"stdev {statistics.pstdev(volumes):.4f}")
    print(f"rows written to {rows_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
