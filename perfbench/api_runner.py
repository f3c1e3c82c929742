"""One in-process cfgtune run in a fresh interpreter: import, load_space,
prune, build_indicator (set-up), then ``prune`` and ``tune`` again and again
while another round fits in --budget-s seconds from the runner's start (at
least one round). Writes a JSON result with the CPU time of the whole set-up
since the interpreter started and of every call, their wall times for
information, the calibration kernel's time around each, and the front as
data. Every repeat must return the first call's pruned space and front.

Run by run.py with PYTHONPATH pointing at the checkout's src/:

    python3 perfbench/api_runner.py --space spaces/listing3.json --budget-mb 3.0 \
        --samples 20 --indicator surrogate --pop 200 --generations 100 \
        --master-seed 0 --budget-s 10 --out result.json [--trace-out t.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time

from calibration import kernel_cpu_s


class Stopwatch:
    """CPU seconds (all threads of this process) and wall seconds of a block."""

    def __enter__(self):
        self._cpu, self._wall = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = time.process_time() - self._cpu
        self.wall = time.perf_counter() - self._wall


def front_data(result) -> list[dict]:
    return [
        {"config": ind.config.as_dict(), "objectives": list(ind.objectives)}
        for ind in result.archive
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", required=True)
    parser.add_argument("--budget-mb", type=float, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--indicator", choices=("surrogate", "oracle"), required=True)
    parser.add_argument("--pop", type=int, required=True)
    parser.add_argument("--generations", type=int, required=True)
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--budget-s", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--trace-out",
        help="trace the run into this file; tune also runs untraced first, "
        "so the caller can compare the two",
    )
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.budget_s

    with Stopwatch() as imported:
        import cfgtune
    # The CLI's own seed derivation, so tune-tight at CLI sizes reproduces
    # the CLI's front for the same master seed.
    from cfgtune.cli import derive_seed

    out = {"import_s": imported.wall}

    tracer = None
    if args.trace_out:
        from tracing import Tracer, installed

        tracer = Tracer()
        tracer.record("cfgtune.import", imported.wall)

    def traced():
        return installed(tracer) if tracer else contextlib.nullcontext()

    seed = args.master_seed
    with traced():
        space = cfgtune.load_space(args.space)
        pruned = cfgtune.prune(space, cfgtune.SizeConstraint(args.budget_mb), partitions=13)
        with Stopwatch() as fitting:
            oracle = cfgtune.SyntheticCapacityOracle(
                reference_space=pruned, seed=derive_seed(seed, "oracle")
            )
            model, _, _ = cfgtune.build_indicator(
                pruned, oracle, k=args.samples, seed=derive_seed(seed, "fit:sample")
            )
    out.update(fit_cpu_s=fitting.cpu, fit_s=fitting.wall)
    # The search either scores with the fitted surrogate, as the CLI does, or
    # with the oracle itself, a documented use when the oracle is cheap.
    indicator = model if args.indicator == "surrogate" else oracle
    params = cfgtune.TunerParams(
        population_size=args.pop,
        generations=args.generations,
        seed=derive_seed(seed, "tune"),
    )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["setup_cpu_s"] = usage.ru_utime + usage.ru_stime
    kernels = [kernel_cpu_s()]
    out["setup_kernel_s"] = kernels[0]

    def run_prune():
        return cfgtune.prune(space, cfgtune.SizeConstraint(args.budget_mb), partitions=13)

    def run_tune():
        return cfgtune.tune(pruned, indicator, params, size_budget_mb=args.budget_mb)

    def measured(call):
        """``call()`` and its timing, with the kernel time around it."""
        with Stopwatch() as watch:
            value = call()
        kernels.append(kernel_cpu_s())
        timing = {"cpu_s": watch.cpu, "wall_s": watch.wall, "kernel_s": (kernels[-2] + kernels[-1]) / 2}
        return value, timing

    if tracer:
        with Stopwatch() as untraced_tune:
            untraced = run_tune()
        out["untraced_tune_cpu_s"] = untraced_tune.cpu
        out["untraced_front"] = front_data(untraced)
        with traced(), Stopwatch() as tuning:
            result = run_tune()
        out.update(tune_cpu_s=tuning.cpu, front=front_data(result))
    else:
        out.update(prunes=[], tunes=[], repeats_equal=True)
        while True:
            round_start = time.perf_counter()
            again, timing = measured(run_prune)
            out["prunes"].append(timing)
            out["repeats_equal"] &= again.checksum() == pruned.checksum()
            result, timing = measured(run_tune)
            out["tunes"].append(timing)
            front = front_data(result)
            out.setdefault("front", front)
            out["repeats_equal"] &= front == out["front"]
            if 2 * time.perf_counter() - round_start > deadline:
                break

    if tracer:
        tracer.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
