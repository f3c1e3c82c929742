"""Multi-objective evolutionary tuner over a pruned configuration space.

Minimizes (model size, forward GFLOPs, negated predicted effectiveness)
with a generational loop: distance-maximizing random initialization,
two-point crossover over the canonical dimension order, per-dimension
boundary random mutation, divisibility correction, binary tournament
selection from parents plus offspring, and an elitist archive of all
non-dominated evaluated configurations. Deterministic for a fixed seed.

The search runs on genomes (see :mod:`cfgtune.space`): tuples of value
indices, so crossover is tuple slicing, mutation is an index draw, and the
memo is keyed by small int tuples. A :class:`Configuration` is built only to
score a new genome (the cost models, and an oracle or callable indicator; a
surrogate reads the genome's encoding) and for archive candidates within
the budget. :attr:`TuneResult.evaluations` decodes the memo on first access.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .costs import forward_gflops, model_size_mb
from .space import Configuration, ConfigurationSpace, Genome, correct


class ObjectiveVector(NamedTuple):
    """One point in minimization space; effectiveness enters negated."""

    size_mb: float
    gflops: float
    neg_effectiveness: float

    @property
    def effectiveness(self) -> float:
        return -self.neg_effectiveness


@dataclass(frozen=True)
class Individual:
    config: Configuration
    objectives: ObjectiveVector


class _Member(NamedTuple):
    """A population member inside :func:`tune`."""

    genome: Genome
    objectives: ObjectiveVector


def dominates(u: ObjectiveVector, v: ObjectiveVector) -> bool:
    """u is at least as good everywhere and strictly better somewhere."""
    return (
        u[0] <= v[0]
        and u[1] <= v[1]
        and u[2] <= v[2]
        and (u[0] < v[0] or u[1] < v[1] or u[2] < v[2])
    )


class ParetoArchive:
    """Mutually non-dominated individuals, one per objective vector.

    A candidate enters iff no member dominates it and no member already has
    an identical objective vector (first insert wins); entering candidates
    evict every member they dominate. The final vector set is independent of
    insertion order for a fixed candidate multiset.
    """

    def __init__(self):
        self._members: list[Individual] = []

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    @property
    def members(self) -> tuple[Individual, ...]:
        return tuple(self._members)

    def objective_vectors(self) -> list[ObjectiveVector]:
        return [m.objectives for m in self._members]

    def insert(self, candidate: Individual) -> bool:
        """Returns True iff the candidate was admitted."""
        cu0, cu1, cu2 = candidate.objectives
        survivors = []
        for member in self._members:
            m0, m1, m2 = member.objectives
            if (
                m0 <= cu0 and m1 <= cu1 and m2 <= cu2
                and (m0 < cu0 or m1 < cu1 or m2 < cu2)
            ):
                return False  # dominated by an existing member
            if m0 == cu0 and m1 == cu1 and m2 == cu2:
                return False  # objective duplicate: first insert wins
            if not (
                cu0 <= m0 and cu1 <= m1 and cu2 <= m2
                and (cu0 < m0 or cu1 < m1 or cu2 < m2)
            ):
                survivors.append(member)
        survivors.append(candidate)
        self._members = survivors
        return True

    def update(self, candidates) -> "ParetoArchive":
        for candidate in candidates:
            self.insert(candidate)
        return self


def update_archive(archive: ParetoArchive, candidates) -> ParetoArchive:
    return archive.update(candidates)


@dataclass(frozen=True)
class TunerParams:
    population_size: int = 20
    generations: int = 50
    crossover_rate: float = 0.6
    mutation_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")


def _normalized_distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return math.sqrt(sum([(x - y) ** 2 for x, y in zip(a, b)]))


def adaptive_random_init(
    space: ConfigurationSpace,
    n: int,
    seed: int | random.Random,
    candidate_pool: int = 10,
) -> list[Genome]:
    """Distance-maximizing random population of genomes.

    The first member is a plain uniform sample; each later member is the best
    of ``candidate_pool`` uniform samples, maximizing its minimum Euclidean
    distance (over normalized encodings) to the members chosen so far. All
    samples pass through correction, so every member validates.

    A candidate's distances are scanned with a running minimum that stops as
    soon as it is ``<= best_score``: the candidate's minimum can then only be
    lower, and only a score ``> best_score`` wins, so the choice is exactly
    that of the full minimum. Every candidate is still sampled and encoded,
    so the ``rng`` stream is unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    chosen = [space.sample_genome(rng)]
    encodings = [space.encode_genome(chosen[0], normalize=True)]
    while len(chosen) < n:
        best_genome = None
        best_encoding = None
        best_score = -1.0
        for _ in range(candidate_pool):
            candidate = space.sample_genome(rng)
            encoding = space.encode_genome(candidate, normalize=True)
            # The running minimum replaces on ``<`` only, as ``min`` does.
            score = _normalized_distance(encoding, encodings[0])
            for index in range(1, len(encodings)):
                if score <= best_score:
                    break
                distance = _normalized_distance(encoding, encodings[index])
                if distance < score:
                    score = distance
            if score > best_score:
                best_genome, best_encoding, best_score = candidate, encoding, score
        chosen.append(best_genome)
        encodings.append(best_encoding)
    return chosen


def crossover_at(g1: Genome, g2: Genome, x1: int, x2: int) -> tuple[Genome, Genome]:
    """Swap the canonical-order segment [x1, x2) between the parents."""
    if not 0 <= x1 < x2 <= 13:
        raise ValueError("cut points must satisfy 0 <= x1 < x2 <= 13")
    return g1[:x1] + g2[x1:x2] + g1[x2:], g2[:x1] + g1[x1:x2] + g2[x2:]


def two_point_crossover(g1: Genome, g2: Genome, rng: random.Random) -> tuple[Genome, Genome]:
    """Children swap a random middle segment; cut points 0 <= x1 < x2 <= 13.
    Children are returned uncorrected; the caller corrects after mutation."""
    x1, x2 = sorted(rng.sample(range(14), 2))
    return crossover_at(g1, g2, x1, x2)


def boundary_random_mutation(
    genome: Genome,
    space: ConfigurationSpace,
    rate: float,
    rng: random.Random,
) -> Genome:
    """Independently redraw each dimension's index with probability ``rate``,
    uniformly over its (pruned) range. Uncorrected; the caller corrects
    afterwards. Returns the same object when no dimension is redrawn."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    mutated = None
    for position, dim in enumerate(space.dimensions):
        if rng.random() < rate:
            if mutated is None:
                mutated = list(genome)
            mutated[position] = rng.randrange(dim.size())
    return genome if mutated is None else tuple(mutated)


def crowding_distances(objectives: list[ObjectiveVector]) -> list[float]:
    """NSGA-style crowding distance over one pool of objective vectors;
    boundary points per objective get infinity."""
    n = len(objectives)
    distances = [0.0] * n
    if n <= 2:
        return [math.inf] * n
    for axis in range(3):
        order = sorted(range(n), key=lambda idx: objectives[idx][axis])
        lo = objectives[order[0]][axis]
        hi = objectives[order[-1]][axis]
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        if hi == lo:
            continue
        for rank in range(1, n - 1):
            gap = (
                objectives[order[rank + 1]][axis] - objectives[order[rank - 1]][axis]
            ) / (hi - lo)
            if distances[order[rank]] != math.inf:
                distances[order[rank]] += gap
    return distances


def tournament_select(
    pool: list, count: int, tournament_size: int, rng: random.Random
) -> list:
    """``count`` winners of independent tournaments drawn without replacement
    from the pool, whose entries (individuals, or the population members of
    :func:`tune`) carry ``objectives``. Within a tournament, dominated
    entrants lose; mutually non-dominated entrants tie-break by larger
    pool-level crowding distance, then uniformly at random."""
    if not pool:
        raise ValueError("selection pool must be non-empty")
    crowding = crowding_distances([ind.objectives for ind in pool])
    k = min(tournament_size, len(pool))
    winners = []
    for _ in range(count):
        entrant_indices = rng.sample(range(len(pool)), k)
        non_dominated = [
            i
            for i in entrant_indices
            if not any(
                dominates(pool[j].objectives, pool[i].objectives)
                for j in entrant_indices
                if j != i
            )
        ]
        best_crowding = max(crowding[i] for i in non_dominated)
        finalists = [i for i in non_dominated if crowding[i] == best_crowding]
        winners.append(pool[rng.choice(finalists)])
    return winners


def reference_point(
    space: ConfigurationSpace, size_budget_mb: float | None = None
) -> tuple[float, float, float]:
    """Fixed hypervolume reference for runs on ``space``: the size budget
    (without one, the max corner's size), the max corner's GFLOPs, and zero
    effectiveness. The max corner takes each numeric dimension's largest
    value and each categorical dimension's first option; size and FLOPs grow
    with every numeric dimension, so it bounds every configuration."""
    corner = Configuration.from_dict(
        {d.name: d.options[0] if d.options else d.max_value() for d in space.dimensions}
    )
    size = model_size_mb(corner) if size_budget_mb is None else size_budget_mb
    return (size, forward_gflops(corner), 0.0)


def hypervolume(points: list[ObjectiveVector], reference: tuple[float, float, float]) -> float:
    """Volume dominated by the point set within the reference box
    (3 objectives, minimization); points outside the box count for nothing.
    :func:`reference_point` gives the box :func:`tune` records against.

    A dimension sweep: points inside the box are inserted in ascending third
    coordinate into one 2-d staircase (x strictly ascending, y strictly
    descending); after each distinct level, the staircase area times the gap
    to the next level (or the reference) is added. O(n log n) for the sort
    plus O(n) per level, so O(n^2) in all. The staircase and the
    left-to-right order of the area sums are those of rebuilding the
    staircase at every level, so the value equals that per-level definition
    exactly.
    """
    rx, ry, rz = reference
    clipped = sorted(
        (p for p in points if p[0] <= rx and p[1] <= ry and p[2] <= rz),
        key=lambda p: p[2],
    )
    xs: list[float] = []
    ys: list[float] = []
    volume = 0.0
    for idx, (x, y, z) in enumerate(clipped):
        right = bisect.bisect_right(xs, x)
        # Skip a point weakly dominated by the staircase; the member with the
        # largest x' <= x has the smallest y' among those.
        if not (right and ys[right - 1] <= y):
            left = bisect.bisect_left(xs, x)
            end = left
            while end < len(ys) and ys[end] >= y:
                end += 1
            xs[left:end] = [x]
            ys[left:end] = [y]
        if idx + 1 < len(clipped) and clipped[idx + 1][2] == z:
            continue
        upper = clipped[idx + 1][2] if idx + 1 < len(clipped) else rz
        area = 0.0
        for x0, x1, y0 in zip(xs, xs[1:] + [rx], ys):
            area += max(0.0, x1 - x0) * max(0.0, ry - y0)
        volume += area * max(0.0, upper - z)
    return volume


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    archive_size: int
    hypervolume: float
    best_size_mb: float
    best_gflops: float
    best_effectiveness: float


@dataclass
class TuneResult:
    archive: ParetoArchive
    records: list[GenerationRecord]
    reference_point: tuple[float, float, float]
    space: ConfigurationSpace
    genome_evaluations: dict[Genome, ObjectiveVector]

    @functools.cached_property
    def evaluations(self) -> dict[Configuration, ObjectiveVector]:
        """Every distinct evaluated configuration in evaluation order,
        decoded from ``genome_evaluations`` on first access."""
        configuration = self.space.configuration
        return {configuration(g): v for g, v in self.genome_evaluations.items()}

    @property
    def evaluation_count(self) -> int:
        return len(self.genome_evaluations)


def _effectiveness_callable(
    indicator, space: ConfigurationSpace
) -> Callable[[Genome, Configuration], float]:
    """Accepts a fitted surrogate (which reads the genome's encoding), an
    oracle, or a plain callable (which read the configuration)."""
    if hasattr(indicator, "predict_mean"):
        return lambda genome, config: indicator.predict_mean(space.encode_genome(genome))
    if hasattr(indicator, "evaluate"):
        return lambda genome, config: indicator.evaluate(config)
    if callable(indicator):
        return lambda genome, config: indicator(config)
    raise TypeError(
        "indicator must be a fitted surrogate, an oracle, or a callable"
    )


def tune(
    space: ConfigurationSpace,
    indicator,
    params: TunerParams,
    size_budget_mb: float | None = None,
) -> TuneResult:
    """Run the full generational loop and return the archive plus telemetry.

    ``indicator`` provides predicted effectiveness per configuration (fitted
    surrogate, oracle, or callable). When ``size_budget_mb`` is given, only
    individuals within the budget may enter the archive, so every front
    member honors the size constraint even where single-dimension pruning
    cannot exclude a combination. A budget that is not positive (NaN
    included) raises ``ValueError`` before any evaluation.

    Each :class:`GenerationRecord` follows one archive update (the initial
    population's, then each generation's). Its hypervolume is taken against
    :func:`reference_point`, so the series never decreases and compares
    across seeds and runs.
    """
    if size_budget_mb is not None and not size_budget_mb > 0:
        raise ValueError(f"size_budget_mb must be positive, got {size_budget_mb}")
    reference = reference_point(space, size_budget_mb)
    effectiveness_of = _effectiveness_callable(indicator, space)
    rng = random.Random(params.seed)
    memo: dict[Genome, ObjectiveVector] = {}

    def evaluate(genome: Genome) -> _Member:
        cached = memo.get(genome)
        if cached is None:
            config = space.configuration(genome)
            effectiveness = float(effectiveness_of(genome, config))
            cached = ObjectiveVector(
                size_mb=model_size_mb(config),
                gflops=forward_gflops(config),
                neg_effectiveness=-min(1.0, max(0.0, effectiveness)),
            )
            # The raw effectiveness is checked: the clamp maps NaN to 0.0.
            if not all(math.isfinite(v) for v in (cached.size_mb, cached.gflops, effectiveness)):
                raise RuntimeError(f"non-finite objectives for {config}")
            memo[genome] = cached
        return _Member(genome, cached)

    def archive_candidates(members: list[_Member]) -> list[Individual]:
        return [
            Individual(space.configuration(m.genome), m.objectives)
            for m in members
            if size_budget_mb is None or m.objectives.size_mb <= size_budget_mb
        ]

    archive = ParetoArchive()
    records: list[GenerationRecord] = []

    def record_generation() -> None:
        snapshot = archive.objective_vectors()
        records.append(
            GenerationRecord(
                generation=len(records),
                archive_size=len(snapshot),
                hypervolume=hypervolume(snapshot, reference),
                best_size_mb=min((p[0] for p in snapshot), default=math.nan),
                best_gflops=min((p[1] for p in snapshot), default=math.nan),
                best_effectiveness=max((-p[2] for p in snapshot), default=math.nan),
            )
        )

    population = [
        evaluate(genome)
        for genome in adaptive_random_init(space, params.population_size, rng)
    ]
    update_archive(archive, archive_candidates(population))
    record_generation()

    for _ in range(params.generations):
        order = list(range(len(population)))
        rng.shuffle(order)
        children: list[Genome] = []
        for pair_start in range(0, len(order) - 1, 2):
            g1 = population[order[pair_start]].genome
            g2 = population[order[pair_start + 1]].genome
            if rng.random() < params.crossover_rate:
                c1, c2 = two_point_crossover(g1, g2, rng)
            else:
                c1, c2 = g1, g2
            children.extend((c1, c2))
        if len(order) % 2 == 1:
            children.append(population[order[-1]].genome)

        offspring = []
        for child in children:
            mutated = boundary_random_mutation(child, space, params.mutation_rate, rng)
            offspring.append(evaluate(correct(mutated, space, rng)))

        update_archive(archive, archive_candidates(offspring))
        record_generation()

        pool = population + offspring
        population = tournament_select(pool, params.population_size, 2, rng)  # binary tournament

    return TuneResult(
        archive=archive,
        records=records,
        reference_point=reference,
        space=space,
        genome_evaluations=memo,
    )


def select_deployment_config(archive: ParetoArchive, target_mb: float) -> Individual:
    """Archive member with size closest to the target; ties prefer higher
    predicted effectiveness, then lower GFLOPs."""
    members = list(archive)
    if not members:
        raise ValueError("archive is empty")
    return min(
        members,
        key=lambda ind: (
            abs(ind.objectives.size_mb - target_mb),
            ind.objectives.neg_effectiveness,
            ind.objectives.gflops,
        ),
    )
