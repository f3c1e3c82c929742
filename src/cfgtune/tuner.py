"""Multi-objective evolutionary tuner over a pruned configuration space.

Minimizes (model size, forward GFLOPs, negated predicted effectiveness)
with a generational loop: distance-maximizing random initialization,
two-point crossover over the canonical dimension order, per-dimension
boundary random mutation, divisibility correction, binary tournament
selection from parents plus offspring, and an elitist archive of all
non-dominated evaluated configurations. Deterministic for a fixed seed.

The search runs on genomes (see :mod:`cfgtune.space`): tuples of value
indices, so crossover is tuple slicing, mutation is an index draw, and the
population and the archive hold small int tuples. Every genome is costed by
index with :func:`~cfgtune.costs.genome_costs`, whose size and FLOPs are exact
integer arithmetic, so the memo, the one structure that grows with the
evaluations, holds only what cannot be recomputed: each genome packed into
bytes (:func:`_genome_struct`) and its negated, clamped effectiveness as one
float. A new genome's effectiveness comes from the indicator's
``genome_predictor`` (a fitted surrogate's, or the synthetic oracle's). A
:class:`Configuration` is built once per new genome only for an indicator
without one (an external oracle, a callable) or with noise (the noisy
synthetic oracle), and for the members of the final archive when
:func:`tune` returns. :attr:`TuneResult.genome_evaluations` and
:attr:`TuneResult.evaluations` decode the memo, and recompute the costs, on
each access. The archive and the hypervolume are :mod:`cfgtune.pareto`'s.
Each record's hypervolume resumes the archive's own sweep, whose staircases
also answer the archive's rejection test, and the record reads the best size
and GFLOPs off the last staircase. A memo hit gives a new vector equal to the
genome's first one, and the archive rejects a vector equal to a member's, so
the sweep's points, which it matches by identity, stay the objects first
inserted.
Sampling, repair, variation and selection draw indices with
:func:`~cfgtune.space.below`, which draws what ``randrange`` would. Every
distinct pair, crossover's cut points and a tournament's entrants alike,
comes from one rule (:func:`_distinct_pair`), and a decided tournament draws
nothing more.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from typing import Callable, NamedTuple

from .costs import forward_gflops, genome_costs, model_size_mb
from .pareto import Individual, ObjectiveVector, ParetoArchive, hypervolume, update_archive
from .pruning import SizeConstraint, feasible_min_corner_bytes
from .space import Configuration, ConfigurationSpace, Genome, below, correct


class _Member(NamedTuple):
    """A population member inside :func:`tune`."""

    genome: Genome
    objectives: ObjectiveVector


CROSSOVER_RATE = 0.6  # per pair of parents
MUTATION_RATE = 0.1  # per dimension of each child
CANDIDATE_POOL = 10  # uniform samples per initial member after the first


class TunerParams:
    def __init__(self, population_size: int = 20, generations: int = 50, seed: int = 0):
        if population_size < 1:
            raise ValueError("population_size must be >= 1")
        if generations < 0:
            raise ValueError("generations must be >= 0")
        self.population_size, self.generations, self.seed = population_size, generations, seed


def adaptive_random_init(
    space: ConfigurationSpace,
    n: int,
    seed: int | random.Random,
) -> list[Genome]:
    """Distance-maximizing random population of genomes.

    The first member is a plain uniform sample; each later member is the best
    of :data:`CANDIDATE_POOL` uniform samples, maximizing its minimum Euclidean
    distance (over normalized encodings) to the members chosen so far, the
    earliest sample winning a tie. All samples pass through correction, so
    every member validates.

    A candidate's distances are scanned in C with ``math.dist``, which stops
    at its first member no farther than the best score so far: the candidate
    loses, since its minimum is no larger. A scan that reaches every member
    wins with their minimum. ``math.dist`` is correctly rounded on CPython
    3.10+, so each distance, and so the pick, does not depend on the
    interpreter or on the order of the components. Every candidate is still
    sampled and encoded, so the ``rng`` stream does not depend on the scan.
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
        for _ in range(CANDIDATE_POOL):
            candidate = space.sample_genome(rng)
            encoding = space.encode_genome(candidate, normalize=True)
            distances = list(itertools.takewhile(
                best_score.__lt__, map(math.dist, itertools.repeat(encoding), encodings)
            ))
            if len(distances) == len(encodings):
                best_genome, best_encoding, best_score = candidate, encoding, min(distances)
        chosen.append(best_genome)
        encodings.append(best_encoding)
    return chosen


def crossover_at(g1: Genome, g2: Genome, x1: int, x2: int) -> tuple[Genome, Genome]:
    """Swap the canonical-order segment [x1, x2) between the parents."""
    if not 0 <= x1 < x2 <= 13:
        raise ValueError("cut points must satisfy 0 <= x1 < x2 <= 13")
    return g1[:x1] + g2[x1:x2] + g1[x2:], g2[:x1] + g1[x1:x2] + g2[x2:]


def _distinct_pair(n: int, rng: random.Random) -> tuple[int, int]:
    """Two distinct indices in ``range(n)``, ``n >= 2``, every ordered pair
    equally likely: the first by :func:`below` over ``n``, the second by
    :func:`below` over the ``n - 1`` others, shifted past the first. Two draws
    for every ``n``; :func:`tournament_select` makes the same draws inline."""
    bits = rng.getrandbits
    first = below(bits, n)
    second = below(bits, n - 1)
    second += second >= first
    return first, second


def _permutation(n: int, rng: random.Random) -> list[int]:
    """``range(n)`` as ``rng.shuffle`` shuffles it: the same Fisher-Yates
    loop, its draws made by :func:`below`."""
    bits = rng.getrandbits
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = below(bits, i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def two_point_crossover(g1: Genome, g2: Genome, rng: random.Random) -> tuple[Genome, Genome]:
    """Children swap a random middle segment; cut points 0 <= x1 < x2 <= 13.
    Children are returned uncorrected; the caller corrects after mutation."""
    x1, x2 = _distinct_pair(14, rng)
    if x1 > x2:
        x1, x2 = x2, x1
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
    draw, bits = rng.random, rng.getrandbits
    for position, domain in enumerate(space._domains):
        if draw() < rate:
            if mutated is None:
                mutated = list(genome)
            mutated[position] = below(bits, len(domain))
    return genome if mutated is None else tuple(mutated)


def crowding_distances(objectives: list[ObjectiveVector]) -> list[float]:
    """NSGA-style crowding distance over one pool of objective vectors;
    boundary points per objective get infinity."""
    n = len(objectives)
    distances = [0.0] * n
    if n <= 2:
        return [math.inf] * n
    for axis in range(3):
        column = [point[axis] for point in objectives]
        order = sorted(range(n), key=column.__getitem__)
        lo = column[order[0]]
        hi = column[order[-1]]
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        if hi == lo:
            continue
        span = hi - lo
        ranked = [column[index] for index in order]
        for index, previous, following in zip(order[1:-1], ranked, ranked[2:]):
            distances[index] += (following - previous) / span  # infinity stays infinity
    return distances


def tournament_select(pool: list, count: int, rng: random.Random) -> list:
    """``count`` winners of binary tournaments, each between two distinct
    entries of the pool, whose entries (individuals, or the population
    members of :func:`tune`) carry ``objectives``. An entrant that dominates
    the other wins; otherwise the larger pool-level crowding distance wins;
    an exact tie is broken by ``below(2)``. The pair is
    :func:`_distinct_pair`'s, drawn inline; a decided tournament draws
    nothing more."""
    size = len(pool)
    if size < 2:
        raise ValueError("selection pool needs at least 2 entries")
    objectives = [entry.objectives for entry in pool]
    crowding = crowding_distances(objectives)
    bits = rng.getrandbits
    winners = []
    for _ in range(count):
        a = below(bits, size)
        b = below(bits, size - 1)
        b += b >= a
        u0, u1, u2 = objectives[a]
        v0, v1, v2 = objectives[b]
        if u0 <= v0 and u1 <= v1 and u2 <= v2 and (u0 < v0 or u1 < v1 or u2 < v2):
            winner = a
        elif v0 <= u0 and v1 <= u1 and v2 <= u2 and (v0 < u0 or v1 < u1 or v2 < u2):
            winner = b
        elif crowding[a] != crowding[b]:
            winner = a if crowding[a] > crowding[b] else b
        else:
            winner = b if below(bits, 2) else a
        winners.append(pool[winner])
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


class GenerationRecord(NamedTuple):
    generation: int
    archive_size: int
    hypervolume: float
    best_size_mb: float | None
    best_gflops: float | None
    best_effectiveness: float | None


def _genome_struct(space: ConfigurationSpace) -> struct.Struct:
    """The memo's key layout for ``space``: 13 unsigned ints of the narrowest
    of ``B``/``H``/``I``/``Q`` that holds every index of the space."""
    bits = (max(map(len, space._domains)) - 1).bit_length()
    return struct.Struct("<13" + next(c for c in "BHIQ" if bits <= 8 * struct.calcsize("<" + c)))


class TuneResult(NamedTuple):
    archive: ParetoArchive
    records: list[GenerationRecord]
    reference_point: tuple[float, float, float]
    space: ConfigurationSpace
    memo: dict[bytes, float]  # packed genome -> negated, clamped effectiveness

    @property
    def genome_evaluations(self) -> dict[Genome, ObjectiveVector]:
        """Every distinct evaluated genome in evaluation order, decoded from
        ``memo`` on each access: size and GFLOPs recomputed by
        :func:`~cfgtune.costs.genome_costs`, bit for bit what :func:`tune`
        scored, next to the stored effectiveness."""
        genome, costs = _genome_struct(self.space).unpack, genome_costs(self.space)
        return {g: ObjectiveVector(*costs(g), v) for k, v in self.memo.items() for g in (genome(k),)}

    @property
    def evaluations(self) -> dict[Configuration, ObjectiveVector]:
        """Every distinct evaluated configuration in evaluation order,
        decoded from ``memo`` on each access."""
        configuration = self.space.configuration
        return {configuration(g): v for g, v in self.genome_evaluations.items()}


def _effectiveness_callable(indicator, space: ConfigurationSpace) -> Callable[[Genome], float]:
    """``genome -> effectiveness``: the indicator's ``genome_predictor(space)``
    (a fitted surrogate's, or the synthetic oracle's, which builds a
    :class:`Configuration` only with noise), or else an oracle's ``evaluate``
    or a plain callable, given ``space.configuration(genome)``; an object
    with only ``predict_mean`` is none of these."""
    if hasattr(indicator, "genome_predictor"):
        return indicator.genome_predictor(space)
    score = getattr(indicator, "evaluate", indicator)
    if not callable(score):
        raise TypeError("indicator must be a fitted surrogate, an oracle, or a callable")
    configuration = space.configuration
    return lambda genome: score(configuration(genome))


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
    cannot exclude a combination. Before any evaluation, a budget that is not
    positive and finite (NaN included) raises ``ValueError``, and one that
    the space's all-minimum corner exceeds raises
    :class:`~cfgtune.pruning.EmptyFeasibleSpaceError`.

    Each :class:`GenerationRecord` follows one archive update (the initial
    population's, then each generation's). Its hypervolume is taken against
    :func:`reference_point`, so the series never decreases and compares
    across seeds and runs.
    """
    if size_budget_mb is not None:
        feasible_min_corner_bytes(space, SizeConstraint(size_budget_mb))
    reference = reference_point(space, size_budget_mb)
    effectiveness_of = _effectiveness_callable(indicator, space)
    costs_of = genome_costs(space)
    rng = random.Random(params.seed)
    memo: dict[bytes, float] = {}

    isfinite = math.isfinite
    vector, member = ObjectiveVector._make, _Member._make  # a frame less than the constructors
    key_of = _genome_struct(space).pack

    def evaluate(genome: Genome) -> _Member:
        size_mb, gflops = costs_of(genome)
        key = key_of(*genome)
        neg_effectiveness = memo.get(key)
        if neg_effectiveness is None:
            effectiveness = float(effectiveness_of(genome))
            # The raw effectiveness is checked, as the clamp maps NaN to 0.0. Size and
            # GFLOPs are exact integers over constants: finite, or an OverflowError.
            if not isfinite(effectiveness):
                raise RuntimeError(f"non-finite objectives for {space.configuration(genome)}")
            neg_effectiveness = memo[key] = -min(1.0, max(0.0, effectiveness))
        return member((genome, vector((size_mb, gflops, neg_effectiveness))))

    def archive_candidates(members: list[_Member]) -> list[_Member]:
        return [
            m for m in members
            if size_budget_mb is None or m.objectives.size_mb <= size_budget_mb
        ]

    archive = ParetoArchive()
    records: list[GenerationRecord] = []

    def record_generation() -> None:
        volume = hypervolume(archive.objective_vectors(), reference, archive.sweep)
        best = None, None, None
        if archive:
            # The reference box bounds every member (see reference_point), so
            # the sweep held them all: its first point has the least
            # neg_effectiveness, and its last staircase starts at the least
            # size and ends at the least GFLOPs.
            sweep = archive.sweep
            xs, ys, _ = sweep.stairs[-1]
            best = xs[0], ys[-1], sweep.points[0].effectiveness
        records.append(GenerationRecord(len(records), len(archive), volume, *best))

    population = [
        evaluate(genome)
        for genome in adaptive_random_init(space, params.population_size, rng)
    ]
    update_archive(archive, archive_candidates(population))
    record_generation()

    for _ in range(params.generations):
        order = _permutation(len(population), rng)
        children: list[Genome] = []
        for pair_start in range(0, len(order) - 1, 2):
            g1 = population[order[pair_start]].genome
            g2 = population[order[pair_start + 1]].genome
            if rng.random() < CROSSOVER_RATE:
                c1, c2 = two_point_crossover(g1, g2, rng)
            else:
                c1, c2 = g1, g2
            children.extend((c1, c2))
        if len(order) % 2 == 1:
            children.append(population[order[-1]].genome)

        offspring = []
        for child in children:
            mutated = boundary_random_mutation(child, space, MUTATION_RATE, rng)
            offspring.append(evaluate(correct(mutated, space, rng)))

        update_archive(archive, archive_candidates(offspring))
        record_generation()

        pool = population + offspring
        population = tournament_select(pool, params.population_size, rng)

    # The members are mutually non-dominated, distinct and in z order, so a
    # fresh archive holds them decoded; it leaves the run's sweep behind.
    front = ParetoArchive()
    front._members = [Individual(space.configuration(m.genome), m.objectives) for m in archive]
    return TuneResult(front, records, reference, space, memo)


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
