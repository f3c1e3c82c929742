"""Layer tracing from outside the program.

``installed(tracer)`` rebinds the public names through which each cfgtune
layer is called (module globals the callers look up at call time, and a few
class methods) to wrappers that time every call. Spans are aggregated in
memory per name as (calls, inclusive seconds, seconds spent in traced
children), so a layer's self time is its inclusive time minus its children's;
``Tracer.dump`` writes them out when the traced process ends. Keeping every
span individually would hold about a million records for one evaluation-heavy
``tune`` call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}
        self._call_counts: dict[str, itertools.count] = {}
        self._lock = threading.Lock()  # a traced call may run on a worker thread
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name: str, seconds: float, child_seconds: float = 0.0) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += child_seconds

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(tracer, args, result)``
        records counters that need the call's outcome."""
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.record(name, elapsed, child)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """``fn`` with its calls counted but not timed, for calls too small
        and too many to time without distorting their caller."""
        calls = self._call_counts.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            next(calls)  # atomic under the interpreter lock, unlike += on a dict
            return fn(*args, **kwargs)

        return counting

    def dump(self, path) -> None:
        counters = dict(self.counters)
        for name, calls in self._call_counts.items():
            counters[name] = next(calls)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": counters}, handle)


def _count_repairs(tracer, args, kwargs, result):
    if result is not args[0]:
        tracer.count("space.correct_repairs")


def _count_admits(tracer, args, kwargs, result):
    if result:
        tracer.count("tuner.archive_admits")


def _count_fit_iterations(tracer, args, kwargs, result):
    tracer.count("surrogate.fit_iterations", result.n_iterations)


def _count_evaluations(tracer, args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    budget = args[3] if len(args) > 3 else kwargs.get("size_budget_mb")
    distinct = result.evaluations.values()
    tracer.count("tuner.attempted_evaluations", params.population_size * (params.generations + 1))
    tracer.count("tuner.distinct_evaluations", len(distinct))
    tracer.count(
        "tuner.feasible_evaluations",
        sum(1 for v in distinct if budget is None or v.size_mb <= budget),
    )


def _targets():
    """(owner, attribute, span name, result hook) for every traced entry point."""
    import cfgtune
    import cfgtune.cli as cli
    import cfgtune.oracle as oracle
    import cfgtune.tuner as tuner
    from cfgtune.oracle import SyntheticCapacityOracle
    from cfgtune.space import ConfigurationSpace
    from cfgtune.surrogate import SurrogateModel
    from cfgtune.tuner import ParetoArchive

    stages = [
        ("load_space", "space.load_space", None),
        ("prune", "pruning.prune", None),
        ("build_indicator", "oracle.build_indicator", None),
        ("tune", "tuner.tune", _count_evaluations),
    ]
    targets = [(owner, attr, name, hook) for owner in (cfgtune, cli) for attr, name, hook in stages]
    targets += [
        (cli, "main", "cli.main", None),
        (tuner, "correct", "space.correct", _count_repairs),
        (tuner, "model_size_mb", "costs.model_size_mb", None),
        (tuner, "forward_gflops", "costs.forward_gflops", None),
        (tuner, "adaptive_random_init", "tuner.adaptive_random_init", None),
        (tuner, "two_point_crossover", "tuner.two_point_crossover", None),
        (tuner, "boundary_random_mutation", "tuner.boundary_random_mutation", None),
        (tuner, "update_archive", "tuner.update_archive", None),
        (tuner, "tournament_select", "tuner.tournament_select", None),
        (tuner, "crowding_distances", "tuner.crowding_distances", None),
        (tuner, "hypervolume", "tuner.hypervolume", None),
        (ConfigurationSpace, "encode", "space.encode", None),
        (SurrogateModel, "predict_mean", "surrogate.predict_mean", None),
        (ParetoArchive, "insert", "tuner.archive_insert", _count_admits),
        (SyntheticCapacityOracle, "evaluate", "oracle.evaluate", None),
        (oracle, "fit", "surrogate.fit", _count_fit_iterations),
    ]
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced entry point through ``tracer`` until exit."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        # About 100k calls of a few microseconds from pruning's worker threads.
        import cfgtune.pruning as pruning

        saved.append((pruning, "min_corner_bytes", pruning.min_corner_bytes))
        pruning.min_corner_bytes = tracer.counted("pruning.min_corner_calls", pruning.min_corner_bytes)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
