"""cfgtune benchmark: three workloads over the public entry points.

    python3 perfbench/run.py --workload cli-quickstart --seed 1 --seconds 40 --trace 0

Run from the root of a cfgtune checkout; the program is imported from its
src/ directory, so nothing needs to be installed. Workloads:

- cli-quickstart: the README quickstart as four fresh `python3 -m cfgtune`
  processes per master seed (prune, fit, tune, report), in whole passes over
  the panel, after fresh-interpreter `import cfgtune` probes.
- tune-tight: one fresh interpreter per master seed runs load_space, prune to
  3 MB and build_indicator (set-up), then rounds of `prune` and an
  evaluation-heavy `tune` scored by the fitted surrogate.
- tune-wide: the same on the space pruned to 64 MB, scored by the synthetic
  oracle itself; the archive grows large, and hypervolume telemetry takes
  about half of `tune`.

Children run one at a time, pinned with this process to one CPU, and add no
threads of their own. Each workload runs a fixed panel of master seeds
(0..K-1), so front quality is compared seed for seed between commits; the
workload seed sets the order of the panel and picks the seed whose tune
stage is rerun for the determinism check. A run ends within --seconds of its
start, except that the first pass or round always completes. Every repeated
call must return what the first returned.

Every timed unit (a child process, or a call inside one) is measured in CPU
seconds with the calibration kernel (calibration.py) run right before and
after it on the same CPU, and reported in reference seconds; a timing is the
mean over seeds of each seed's median unit.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 every child runs with layer tracing (tracing.py)
and the JSON carries the per-layer metrics instead. Lines before it give the
environment, the fixed hypervolume reference, and each timing's median, p90
and sample count in reference, CPU and wall seconds. Output checks (front
within budget and mutually non-dominated, sizes recomputed, pruned space as
expected, report prints a pick, repeats and reruns identical) count
failures; any failure makes the exit code 1. See README.md in this directory
for what each metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, kernel_cpu_s, reference_s

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
SAMPLES = 20  # oracle samples the surrogate is fitted on, as in the README quickstart
IMPORT_PROBES = 15  # fresh `import cfgtune` processes per cli-quickstart run

END_TO_END = {
    "setup_s": "s",
    "prune_s": "s",
    "tune_s": "s",
    "pipeline_s": "s",
    "evals_per_s": "1/s",
    "hypervolume": "MB.GFLOP",
    "front_size": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cfgtune.import_s": "s",
    "cli.main_s": "s",
    "space.load_s": "s",
    "pruning.prune_s": "s",
    "pruning.min_corner_calls": "count",
    "oracle.build_indicator_s": "s",
    "oracle.evaluate_calls": "count",
    "oracle.evaluate_s": "s",
    "surrogate.fit_s": "s",
    "surrogate.fit_iterations": "count",
    "space.encode_calls": "count",
    "space.encode_s": "s",
    "surrogate.predict_calls": "count",
    "surrogate.predict_s": "s",
    "space.correct_calls": "count",
    "space.correct_s": "s",
    "space.correct_repair_share": "share",
    "costs.size_calls": "count",
    "costs.size_s": "s",
    "costs.flops_calls": "count",
    "costs.flops_s": "s",
    "tuner.init_s": "s",
    "tuner.crossover_s": "s",
    "tuner.mutation_s": "s",
    "tuner.archive_update_s": "s",
    "tuner.archive_insert_calls": "count",
    "tuner.archive_insert_s": "s",
    "tuner.archive_admit_share": "share",
    "tuner.select_s": "s",
    "tuner.crowding_s": "s",
    "tuner.hypervolume_s": "s",
    "tuner.tune_s": "s",
    "tuner.self_s": "s",
    "tuner.trace_overhead_s": "s",
    "tuner.distinct_evaluations": "count",
    "tuner.memo_hit_share": "share",
    "tuner.feasible_share": "share",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    mode: str  # "cli": four CLI processes per seed; "api": one in-process run
    budget_mb: float
    pop: int
    generations: int
    panel: int  # master seeds 0..panel-1
    indicator: str = "surrogate"


WORKLOADS = {
    "cli-quickstart": Workload(mode="cli", budget_mb=3.0, pop=20, generations=50, panel=6),
    "tune-tight": Workload(mode="api", budget_mb=3.0, pop=200, generations=100, panel=3),
    "tune-wide": Workload(mode="api", budget_mb=64.0, pop=100, generations=200, panel=3, indicator="oracle"),
}
SMOKE = {"pop": 20, "generations": 50, "panel": 2}


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def median_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


class Bench:
    """One benchmark run: spawns the children, checks their outputs, and
    collects timing samples, front quality and trace files."""

    def __init__(self, name: str, workload: Workload, seed: int, trace: bool, root: Path):
        self.start = time.perf_counter()  # --seconds counts from here
        import cfgtune

        self.cfgtune = cfgtune
        self.w, self.trace = workload, trace
        self.space_file = root / "spaces" / "listing3.json"
        self.workdir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
        # One thread per BLAS call, so the children add no threads and their
        # CPU time is not inflated by idle BLAS workers spinning.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, dict[object, list[float]]] = {}  # metric -> seed -> seconds
        self.quality: dict[int, tuple[float, int]] = {}
        self.fronts: dict[int, object] = {}
        self.traces: dict[int, list[dict]] = {}
        self.overheads: list[float] = []
        self.passes, self.elapsed = 0, 0.0
        self.kernel_s: list[float] = []  # every calibration kernel time of the run

        self.order = random.Random(f"{name}:{seed}").sample(range(workload.panel), workload.panel)
        self.pruned = cfgtune.prune(
            cfgtune.load_space(self.space_file),
            cfgtune.SizeConstraint(workload.budget_mb),
            partitions=13,
        )
        # Fixed hypervolume reference from the space and budget (not from the
        # run): the budget, the GFLOPs of the pruned space's maximum corner,
        # and zero effectiveness. FLOPs do not depend on categorical values.
        corner = cfgtune.Configuration.from_dict(
            {d.name: d.options[0] if d.options else d.max_value() for d in self.pruned.dimensions}
        )
        self.reference = (workload.budget_mb, cfgtune.forward_gflops(corner), 0.0)

    # -- children -----------------------------------------------------------

    def spawn(self, argv: list[str], label: str, cwd: Path):
        """Run one child to completion; returns (completed process or None,
        wall s, CPU s, kernel s). Children run one at a time, so the growth
        of this process's reaped-children CPU time is the child's own user +
        system time, all its threads included. The calibration kernel runs
        before and after each child on the same CPU, and its mean time is
        returned; one run serves as the next child's before."""
        if not self.kernel_s:
            self.kernel_s.append(kernel_cpu_s())
        before = self.kernel_s[-1]
        try:
            proc, wall, cpu = self._spawn(argv, label, cwd)
        finally:
            self.kernel_s.append(kernel_cpu_s())
        return proc, wall, cpu, (before + self.kernel_s[-1]) / 2

    def _spawn(self, argv: list[str], label: str, cwd: Path):
        self.attempted += 1
        cpu_before = children_cpu_s()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: timed out after {CHILD_TIMEOUT_S} s")
            return None, time.perf_counter() - start, children_cpu_s() - cpu_before
        wall = time.perf_counter() - start
        cpu = children_cpu_s() - cpu_before
        if proc.returncode != 0:
            self.failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None, wall, cpu
        return proc, wall, cpu

    def sample(self, metric: str, key, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(key, []).append(value)

    def timed(self, name: str, key, cpu: float, wall: float | None, kernel: float) -> None:
        """Samples ``{name}_s`` in reference seconds, and the raw CPU and wall."""
        self.sample(f"{name}_s", key, reference_s(cpu, kernel))
        self.sample(f"{name}_cpu_s", key, cpu)
        if wall is not None:
            self.sample(f"{name}_wall_s", key, wall)

    def typical(self, metric: str) -> float:
        """Mean over seeds of each seed's median sample. Seeds differ in cost
        by about as much as samples vary, so a median over seeds would jump
        from one seed to another between runs."""
        return statistics.fmean(statistics.median(values) for values in self.samples[metric].values())

    # -- output checks --------------------------------------------------------

    def check_front(self, label: str, vectors_and_configs) -> list | None:
        """Front members fit the budget, match the size formula, validate in the
        pruned space and are mutually non-dominated; returns the vectors."""
        cfgtune = self.cfgtune
        vectors = []
        for config_dict, vector in vectors_and_configs:
            config = cfgtune.Configuration.from_dict(config_dict)
            if vector[0] > self.w.budget_mb:
                return self.fail(f"{label}: member of {vector[0]} MB exceeds {self.w.budget_mb} MB")
            if vector[0] != cfgtune.model_size_mb(config):
                return self.fail(f"{label}: size_mb disagrees with the size formula")
            if not self.pruned.validate(config):
                return self.fail(f"{label}: member not valid in the pruned space")
            vectors.append(tuple(vector))
        if not vectors:
            return self.fail(f"{label}: empty front")
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                if i != j and all(a <= b for a, b in zip(u, v)):
                    return self.fail(f"{label}: front member {v} is dominated or duplicated by {u}")
        return vectors

    def fail(self, message: str):
        self.failures.append(message)
        return None

    def record_front(self, seed: int, first_pass: bool, label: str, vectors, identity) -> None:
        if first_pass:
            self.fronts[seed] = identity
            self.quality[seed] = (self.cfgtune.hypervolume(vectors, self.reference), len(vectors))
        elif seed in self.fronts and identity != self.fronts[seed]:
            self.failures.append(f"{label}: front differs from the first pass of this seed")

    # -- cli-quickstart ---------------------------------------------------------

    def cli_argv(self, stage_args: list[str], trace_file: Path | None) -> list[str]:
        if trace_file is None:
            return [sys.executable, "-m", "cfgtune", *stage_args]
        return [sys.executable, str(HERE / "cli_runner.py"), str(trace_file), *stage_args]

    def cli_stage(self, stage_args, label, cwd, trace_files):
        trace_file = None
        if self.trace:
            trace_file = cwd / f"trace-{stage_args[0]}.json"
            trace_files.append(trace_file)
        return self.spawn(self.cli_argv(stage_args, trace_file), label, cwd)

    def cli_tune_args(self, seed: int, out: str) -> list[str]:
        w = self.w
        return [
            "tune", "--space", "pruned.json", "--model", "model.json", "--seed", str(seed),
            "--pop", str(w.pop), "--generations", str(w.generations),
            "--budget-mb", str(w.budget_mb), "--out", out,
        ]

    def cli_pipeline(self, seed: int, first_pass: bool) -> None:
        w = self.w
        label = f"seed {seed}"
        cwd = self.workdir / f"cli-{seed}-{self.attempted}"
        cwd.mkdir(parents=True)
        trace_files: list[Path] = []
        walls, cpus, kernels = {}, {}, {}
        stages = [
            ("prune", ["prune", "--space", str(self.space_file), "--budget-mb", str(w.budget_mb),
                       "--out", "pruned.json"]),
            ("fit", ["fit", "--space", "pruned.json", "--oracle", "synthetic",
                     "--samples", str(SAMPLES), "--seed", str(seed), "--out", "model.json"]),
            ("tune", self.cli_tune_args(seed, "front.jsonl")),
            ("report", ["report", "--front", "front.jsonl", "--target-mb", str(w.budget_mb),
                        "--runtime-hours", "0.8", "--power-kw", "0.4"]),
        ]
        for stage, args in stages:
            proc, walls[stage], cpus[stage], kernels[stage] = self.cli_stage(
                args, f"{label} {stage}", cwd, trace_files
            )
            if proc is None:
                return
            if stage == "prune":
                pruned = self.cfgtune.load_space(cwd / "pruned.json")
                if pruned.checksum() != self.pruned.checksum():
                    return self.fail(f"{label} prune: pruned space differs from in-process prune")
            elif stage == "tune":
                records = [json.loads(line) for line in (cwd / "front.jsonl").read_text().splitlines()]
                vectors = self.check_front(
                    f"{label} tune",
                    [
                        (r["config"], (r["size_mb"], r["gflops"], -r["predicted_effectiveness"]))
                        for r in records
                    ],
                )
                if vectors is None:
                    return
                front_bytes = (cwd / "front.jsonl").read_bytes()
            elif stage == "report" and not self.report_ok(label, proc.stdout, records):
                return
        self.record_front(seed, first_pass, label, vectors, front_bytes)
        for stage in walls:
            self.timed(stage, seed, cpus[stage], walls[stage], kernels[stage])
        self.sample("pipeline_s", seed, sum(reference_s(cpus[s], kernels[s]) for s in cpus))
        self.sample("pipeline_cpu_s", seed, sum(cpus.values()))
        self.sample("pipeline_wall_s", seed, sum(walls.values()))
        if first_pass and trace_files:
            self.traces[seed] = [json.loads(f.read_text()) for f in trace_files]
        if seed == self.order[0] and first_pass:
            self.cli_rerun(seed, cwd, cpus["tune"])

    def report_ok(self, label: str, stdout: str, records) -> bool:
        marker = "deployment pick (closest to"
        if marker not in stdout or "kg CO2" not in stdout:
            self.failures.append(f"{label} report: no deployment pick or CO2 estimate printed")
            return False
        pick_text = stdout.split(marker, 1)[1].split("\n", 1)[1].split("\n\n", 1)[0]
        try:
            pick = json.loads(pick_text)
        except json.JSONDecodeError:
            self.failures.append(f"{label} report: pick is not a JSON configuration")
            return False
        if pick not in [r["config"] for r in records]:
            self.failures.append(f"{label} report: pick is not a front member")
            return False
        return True

    def cli_rerun(self, seed: int, cwd: Path, tune_cpu: float) -> None:
        """Reruns the tune stage (untraced); front and run log must be
        byte-identical. In a traced run the CPU difference is the overhead."""
        label = f"seed {seed} tune rerun"
        argv = self.cli_argv(self.cli_tune_args(seed, "rerun.jsonl"), None)
        proc, _, cpu, _ = self.spawn(argv, label, cwd)
        if proc is None:
            return
        for first, second in (("front.jsonl", "rerun.jsonl"), ("front.runlog.jsonl", "rerun.runlog.jsonl")):
            if (cwd / first).read_bytes() != (cwd / second).read_bytes():
                self.failures.append(f"{label}: {first} and {second} differ")
        if self.trace:
            self.overheads.append(tune_cpu - cpu)

    def cli_probe(self, index: int) -> None:
        argv = [sys.executable, "-c", "import cfgtune"]
        proc, wall, cpu, kernel = self.spawn(argv, f"import probe {index}", self.workdir)
        if proc is not None:
            self.timed("setup", index, cpu, wall, kernel)

    # -- tune-tight / tune-wide -------------------------------------------------

    def api_run(self, seed: int, budget_s: float) -> None:
        w = self.w
        label = f"seed {seed}"
        out = self.workdir / f"api-{seed}.json"
        argv = [
            sys.executable, str(HERE / "api_runner.py"), "--space", str(self.space_file),
            "--budget-mb", str(w.budget_mb), "--samples", str(SAMPLES),
            "--indicator", w.indicator, "--pop", str(w.pop), "--generations", str(w.generations),
            "--master-seed", str(seed), "--budget-s", f"{budget_s:.3f}", "--out", str(out),
        ]
        trace_file = out.with_suffix(".trace.json")
        if self.trace:
            argv += ["--trace-out", str(trace_file)]
        proc, _, _, _ = self.spawn(argv, label, self.workdir)
        if proc is None:
            return
        spawned_kernel = self.kernel_s[-2]  # the parent's kernel run just before the child
        result = json.loads(out.read_text())
        front = [(m["config"], m["objectives"]) for m in result["front"]]
        vectors = self.check_front(label, front)
        if vectors is None:
            return
        identity = sorted(json.dumps(m, sort_keys=True) for m in result["front"])
        self.record_front(seed, True, label, vectors, identity)
        if self.trace:
            if sorted(json.dumps(m, sort_keys=True) for m in result["untraced_front"]) != identity:
                self.failures.append(f"{label}: traced and untraced fronts differ")
            self.overheads.append(result["tune_cpu_s"] - result["untraced_tune_cpu_s"])
            self.traces[seed] = [json.loads(trace_file.read_text())]
            return
        if not result["repeats_equal"]:
            self.failures.append(f"{label}: a repeated prune or tune call returned another result")
        self.attempted += len(result["tunes"]) - 1
        self.kernel_s.append(result["setup_kernel_s"])
        self.kernel_s += [t["kernel_s"] for t in result["prunes"] + result["tunes"]]
        kernel = (spawned_kernel + result["setup_kernel_s"]) / 2
        self.timed("setup", seed, result["setup_cpu_s"], None, kernel)
        self.timed("fit", seed, result["fit_cpu_s"], result["fit_s"], kernel)
        setup = reference_s(result["setup_cpu_s"], kernel)
        for stage in ("prune", "tune"):
            for t in result[f"{stage}s"]:
                self.timed(stage, seed, t["cpu_s"], t["wall_s"], t["kernel_s"])
        for t in result["tunes"]:
            self.sample("pipeline_s", seed, setup + reference_s(t["cpu_s"], t["kernel_s"]))

    # -- the run -------------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """cli-quickstart: import probes, then whole passes over the panel,
        the first always and another while it is expected to end within
        ``seconds`` of the start. tune-*: one process per master seed, each
        given an equal share of the time left. A traced run makes one pass
        and no probes, and calls ``tune`` once traced per seed."""
        start = self.start
        self.workdir.mkdir(parents=True)
        if self.w.mode == "api":
            for index, seed in enumerate(self.order):
                left = seconds - (time.perf_counter() - start)
                self.api_run(seed, left / (len(self.order) - index))
            self.passes = 1
        else:
            if not self.trace:
                for index in range(IMPORT_PROBES):
                    self.cli_probe(index)
            passes, pass_s = 0, 0.0
            while passes == 0 or (not self.trace and time.perf_counter() - start + pass_s <= seconds):
                pass_start = time.perf_counter()
                for seed in self.order:
                    self.cli_pipeline(seed, passes == 0)
                passes += 1
                pass_s = time.perf_counter() - pass_start
            self.passes = passes
        self.elapsed = time.perf_counter() - start

    def end_to_end(self) -> dict[str, float]:
        hypervolumes = [hv for hv, _ in self.quality.values()]
        sizes = [size for _, size in self.quality.values()]
        metrics = {name: self.typical(name) for name in ("prune_s", "tune_s", "pipeline_s")}
        # Set-up is a separate process per probe or seed, so its plain median.
        metrics["setup_s"] = statistics.median(
            v for values in self.samples["setup_s"].values() for v in values
        )
        evaluations = self.w.pop * (self.w.generations + 1)
        metrics["evals_per_s"] = evaluations / metrics["tune_s"]
        metrics["hypervolume"] = statistics.median(hypervolumes)
        metrics["front_size"] = statistics.median(sizes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return {name: metrics[name] for name in END_TO_END}

    def per_layer(self) -> dict[str, float]:
        per_seed = [layer_metrics(trace_docs) for trace_docs in self.traces.values()]
        metrics = {name: statistics.median(m[name] for m in per_seed) for name in PER_LAYER}
        metrics["tuner.trace_overhead_s"] = statistics.median(self.overheads)
        return metrics


def layer_metrics(trace_docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one master seed from the span files of its processes."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for doc in trace_docs:
        for name, (calls, total, child) in doc["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += child
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def share(part, whole):
        return part / whole if whole else 0.0

    tune_span = spans.get("tuner.tune", [0, 0.0, 0.0])
    distinct = counters.get("tuner.distinct_evaluations", 0)
    return {
        "cfgtune.import_s": total("cfgtune.import"),
        "cli.main_s": total("cli.main"),
        "space.load_s": total("space.load_space"),
        "pruning.prune_s": total("pruning.prune"),
        "pruning.min_corner_calls": counters.get("pruning.min_corner_calls", 0),
        "oracle.build_indicator_s": total("oracle.build_indicator"),
        "oracle.evaluate_calls": calls("oracle.evaluate"),
        "oracle.evaluate_s": total("oracle.evaluate"),
        "surrogate.fit_s": total("surrogate.fit"),
        "surrogate.fit_iterations": counters.get("surrogate.fit_iterations", 0),
        "space.encode_calls": calls("space.encode"),
        "space.encode_s": total("space.encode"),
        "surrogate.predict_calls": calls("surrogate.predict_mean"),
        "surrogate.predict_s": total("surrogate.predict_mean"),
        "space.correct_calls": calls("space.correct"),
        "space.correct_s": total("space.correct"),
        "space.correct_repair_share": share(
            counters.get("space.correct_repairs", 0), calls("space.correct")
        ),
        "costs.size_calls": calls("costs.model_size_mb"),
        "costs.size_s": total("costs.model_size_mb"),
        "costs.flops_calls": calls("costs.forward_gflops"),
        "costs.flops_s": total("costs.forward_gflops"),
        "tuner.init_s": total("tuner.adaptive_random_init"),
        "tuner.crossover_s": total("tuner.two_point_crossover"),
        "tuner.mutation_s": total("tuner.boundary_random_mutation"),
        "tuner.archive_update_s": total("tuner.update_archive"),
        "tuner.archive_insert_calls": calls("tuner.archive_insert"),
        "tuner.archive_insert_s": total("tuner.archive_insert"),
        "tuner.archive_admit_share": share(
            counters.get("tuner.archive_admits", 0), calls("tuner.archive_insert")
        ),
        "tuner.select_s": total("tuner.tournament_select"),
        "tuner.crowding_s": total("tuner.crowding_distances"),
        "tuner.hypervolume_s": total("tuner.hypervolume"),
        "tuner.tune_s": tune_span[1],
        "tuner.self_s": tune_span[1] - tune_span[2],
        "tuner.trace_overhead_s": 0.0,  # filled in from the paired untraced runs
        "tuner.distinct_evaluations": distinct,
        "tuner.memo_hit_share": 1 - share(distinct, counters.get("tuner.attempted_evaluations", 0)),
        "tuner.feasible_share": share(counters.get("tuner.feasible_evaluations", 0), distinct),
    }


def environment(args, nproc: int, cpu: int) -> str:
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {nproc}, pinned to CPU {cpu}, workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds}, trace {args.trace}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not ((root / "src" / "cfgtune" / "__init__.py").is_file() and (root / "spaces" / "listing3.json").is_file()):
        print(
            "error: run from the root of a cfgtune checkout (src/cfgtune and spaces/ not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    # The children and the calibration kernel share one CPU, so the kernel
    # sees the same contention as the measured code.
    available = os.sched_getaffinity(0)
    cpu = min(available)
    os.sched_setaffinity(0, {cpu})

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = dataclasses.replace(workload, **SMOKE)
    bench = Bench(args.workload, workload, args.seed, bool(args.trace), root)
    try:
        bench.run(args.seconds)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    print(f"# environment: {environment(args, len(available), cpu)}")
    print(f"# workload: {dataclasses.asdict(workload)}")
    print(f"# master seeds in run order: {bench.order} (rerun: {bench.order[0]})")
    print(f"# hypervolume reference (budget MB, max-corner GFLOPs, -effectiveness): {bench.reference}")
    for seed in sorted(bench.quality):
        hv, size = bench.quality[seed]
        print(f"# seed {seed}: hypervolume {hv:.6f}, front_size {size}")
    print(
        f"# calibration kernel: median {statistics.median(bench.kernel_s):.6g} CPU s over "
        f"{len(bench.kernel_s)} runs (reference {REFERENCE_S} s)"
    )
    print(f"# passes over the panel: {bench.passes}, in {bench.elapsed:.2f} s (--seconds {args.seconds:g})")
    for name, by_seed in sorted(bench.samples.items()):
        values = [v for seed_values in by_seed.values() for v in seed_values]
        med, p90 = median_p90(values)
        print(
            f"# timing {name}: mean over seeds of each seed's median {bench.typical(name):.6g} s; "
            f"all {len(values)} samples: median {med:.6g} s, p90 {p90:.6g} s"
        )
    failed = len(bench.failures)
    print(
        f"failed_share: {failed / max(bench.attempted, 1):.4f} "
        f"({failed} of {bench.attempted} child runs and tune calls)"
    )
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    ok = not bench.failures
    if ok:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        units = PER_LAYER if args.trace else END_TO_END
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
        report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        report = {}
    print(json.dumps({"correct": ok, "attempted": bench.attempted, "failed": failed, "metrics": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
