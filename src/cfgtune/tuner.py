"""Multi-objective evolutionary tuner over a pruned configuration space.

Minimizes (model size, forward GFLOPs, negated predicted effectiveness)
with a generational loop: distance-maximizing random initialization,
two-point crossover over the canonical dimension order, per-dimension
boundary random mutation, divisibility correction, binary tournament
selection from parents plus offspring, and an elitist archive of all
non-dominated evaluated configurations. Deterministic for a fixed seed.

The search runs on genomes (see :mod:`cfgtune.space`): tuples of value
indices, so crossover is tuple slicing, mutation is an index draw, and the
population and the archive hold small int tuples. The memo, the one structure
that grows with the evaluations, holds each genome and its objective vector
packed into bytes (:func:`_genome_struct`, :data:`_VECTOR`). A new genome is
scored by index: :func:`~cfgtune.costs.genome_costs` for size and FLOPs, and
the indicator's ``genome_predictor`` (a fitted surrogate's, or the synthetic
oracle's) for effectiveness. A :class:`Configuration` is built once per new
genome only for an indicator without one (an external oracle, a callable) or
with noise (the noisy synthetic oracle), and for the members of the final
archive when :func:`tune` returns. :attr:`TuneResult.genome_evaluations` and
:attr:`TuneResult.evaluations` decode the memo on each access. Each record's
hypervolume carries over from the previous record's sweep every point whose
2-D staircase is unchanged, matching points by identity, and sweeps only the
rest. A memo hit gives a new vector equal to the stored one, and the archive
rejects a vector equal to a member's, so the sweep's points stay the objects
first inserted.
Sampling, repair, variation and selection draw indices with
:func:`~cfgtune.space.below`, which draws what ``randrange`` would. Every
distinct pair, crossover's cut points and a tournament's entrants alike,
comes from one rule (:func:`_distinct_pair`), and a decided tournament draws
nothing more.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
import struct
from typing import Callable, NamedTuple

from .costs import forward_gflops, genome_costs, model_size_mb
from .pruning import SizeConstraint, feasible_min_corner_bytes
from .space import Configuration, ConfigurationSpace, Genome, below, correct


class ObjectiveVector(NamedTuple):
    """One point in minimization space; effectiveness enters negated."""

    size_mb: float
    gflops: float
    neg_effectiveness: float

    @property
    def effectiveness(self) -> float:
        return -self.neg_effectiveness


class Individual(NamedTuple):
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
    """Mutually non-dominated entries that carry ``objectives`` (individuals,
    or the population members of :func:`tune`), one per objective vector.

    A candidate is rejected by the first member <= it in every objective,
    an equal vector included (first insert wins), and that member moves to
    the front. An admitted candidate evicts every member it is <= in every
    objective, none equal to it and so each dominated. The final vector set
    does not depend on insertion order; iteration order is not contractual.
    """

    def __init__(self):
        self._members: list[Individual] = []

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def objective_vectors(self) -> list[ObjectiveVector]:
        return [m.objectives for m in self._members]

    def insert(self, candidate: Individual) -> bool:
        """Returns True iff the candidate was admitted."""
        c0, c1, c2 = candidate.objectives
        members = self._members
        for i, member in enumerate(members):
            m0, m1, m2 = member.objectives
            if m0 <= c0 and m1 <= c1 and m2 <= c2:
                members.insert(0, members.pop(i))
                return False
        self._members = [
            m for m in members for m0, m1, m2 in (m.objectives,)
            if not (c0 <= m0 and c1 <= m1 and c2 <= m2)
        ]
        self._members.append(candidate)
        return True


def update_archive(archive: ParetoArchive, candidates) -> ParetoArchive:
    """Inserts the candidates in order; returns the archive."""
    for candidate in candidates:
        archive.insert(candidate)
    return archive


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


class HypervolumeSweep:
    """What :func:`hypervolume` carries over from its last call: the reference,
    the clipped, z-sorted points and, for each of them, the staircase after it
    stored with its area as ``(xs, ys, area)`` (lists replaced when they
    change, never edited, so they are shared), and the term the point's level
    boundary added (0.0 if none)."""

    def __init__(self, reference=None):
        self.reference, self.points, self.stairs, self.terms = reference, [], [], []


def _staircase_area(xs: list[float], ys: list[float], rx: float, ry: float) -> float:
    area = 0.0
    for x0, x1, y0 in zip(xs, xs[1:] + [rx], ys):
        area += (x1 - x0) * (ry - y0)
    return area


def hypervolume(
    points: list[ObjectiveVector], reference: tuple[float, float, float], sweep: HypervolumeSweep | None = None
) -> float:
    """Volume dominated by the point set within the reference box
    (3 objectives, minimization); points outside the box count for nothing.
    :func:`reference_point` gives the box :func:`tune` records against.

    A dimension sweep: points inside the box are inserted in ascending third
    coordinate into one 2-d staircase (x strictly ascending, y strictly
    descending); when a level is complete, the staircase area times the gap
    to the next level (or the reference) is added. From no state that is
    O(n log n) for the sort plus O(n) per point, so O(n^2) in all, and the
    value equals the per-level definition (the staircase rebuilt at every
    level, the same left-to-right sums) exactly.

    Given the ``sweep`` state of its last call (as :func:`tune` keeps one), a
    call sweeps only the points whose staircase differs from the last call's.
    While the staircase equals the last call's after the same previous point,
    the longest run of following points that are the same objects in the same
    order is carried: staircases with their areas, and terms, copied as
    slices, and the terms added left to right as a sweep adds them. Any other
    point is swept as from no state, and carrying starts again where the
    staircase after it equals the last call's after the same object. A call
    costs O(n) list work in C plus O(n) Python steps per swept point;
    :func:`tune` at 64 MB, pop 100 x 200 sweeps 6-8% of its records' points.
    A call without a state sweeps into a fresh one and drops it. The value is
    bit for bit a sweep's from no state: staircases equal by ``==`` have equal
    areas, as a -0.0 for a 0.0 only flips the sign of a zero factor, and a
    zero product adds nothing to an area that starts at +0.0. Points are
    matched by identity, which tells -0.0 from 0.0, so they must be
    immutable; the state holds them, so no id among them is reused. A
    reference that differs in any bit starts over.

    A point that completes no level adds a 0.0 term, and no factor needs a
    clamp at zero: x strictly ascends along the staircase, z through the list,
    and every clipped point has x <= rx, y <= ry and z <= rz. ``max(0.0, v)``
    could only turn a -0.0 (``rx - x`` with signed zeros) into +0.0, and
    either zero added to an area or volume that starts at +0.0 gives the same
    float.
    """
    rx, ry, rz = reference
    clipped = sorted([p for p in points if p[0] <= rx and p[1] <= ry and p[2] <= rz], key=operator.itemgetter(2))
    last = HypervolumeSweep() if sweep is None else sweep
    if repr(last.reference) != repr((rx, ry, rz)):
        last.__init__((rx, ry, rz))
    old, position = last.points, dict(zip(map(id, last.points), itertools.count()))
    stairs, terms = [], []
    xs, ys, area, volume = [], [], 0.0, 0.0
    # Synced: clipped[i - 1] is old[j - 1] (or i == j == 0) and the
    # staircase equals the last call's after it.
    synced, i, j, n = True, 0, 0, len(clipped)
    while i < n:
        same = list(map(operator.is_, clipped[i:], old[j:])) if synced else []
        m = same.index(False) if False in same else len(same)
        if m:  # carry the run; the point after it is not old[j + m], so it is swept
            stairs += last.stairs[j:j + m]
            terms += last.terms[j:j + m]
            volume = functools.reduce(operator.add, last.terms[j:j + m], volume)
            xs, ys, area = stairs[-1]
            i, synced = i + m, False
            continue
        x, y, z = point = clipped[i]
        term = 0.0
        if i and z != clipped[i - 1][2]:  # the level below is complete
            term = area * (z - clipped[i - 1][2])
            volume += term
        right = bisect.bisect_right(xs, x)
        # Skip a point weakly dominated by the staircase; the member with the
        # largest x' <= x has the smallest y' among those.
        if not (right and ys[right - 1] <= y):
            left = bisect.bisect_left(xs, x)
            end = left
            while end < len(ys) and ys[end] >= y:
                end += 1
            xs, ys = xs[:left] + [x] + xs[end:], ys[:left] + [y] + ys[end:]
            area = _staircase_area(xs, ys, rx, ry)
        stairs.append((xs, ys, area))
        terms.append(term)
        j = position.get(id(point), -1) + 1
        synced = j > 0 and last.stairs[j - 1] == stairs[-1]
        i += 1
    if clipped:
        volume += area * (rz - clipped[-1][2])
    last.points, last.stairs, last.terms = clipped, stairs, terms
    return volume


class GenerationRecord(NamedTuple):
    generation: int
    archive_size: int
    hypervolume: float
    best_size_mb: float | None
    best_gflops: float | None
    best_effectiveness: float | None


_VECTOR = struct.Struct("<3d")  # unpacks every double bit for bit, -0.0 included


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
    memo: dict[bytes, bytes]  # packed genome -> packed objective vector

    @property
    def genome_evaluations(self) -> dict[Genome, ObjectiveVector]:
        """Every distinct evaluated genome in evaluation order, decoded from
        ``memo`` on each access."""
        genome, objectives = _genome_struct(self.space).unpack, _VECTOR.unpack
        return {genome(k): ObjectiveVector._make(objectives(v)) for k, v in self.memo.items()}

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
    memo: dict[bytes, bytes] = {}

    isfinite = math.isfinite
    vector, member = ObjectiveVector._make, _Member._make  # a frame less than the constructors
    key_of, pack, unpack = _genome_struct(space).pack, _VECTOR.pack, _VECTOR.unpack

    def evaluate(genome: Genome) -> _Member:
        key = key_of(*genome)
        cached = memo.get(key)
        if cached is not None:
            return member((genome, vector(unpack(cached))))
        effectiveness = float(effectiveness_of(genome))
        size_mb, gflops = costs_of(genome)
        # The raw effectiveness is checked: the clamp maps NaN to 0.0.
        if not (isfinite(size_mb) and isfinite(gflops) and isfinite(effectiveness)):
            raise RuntimeError(f"non-finite objectives for {space.configuration(genome)}")
        neg_effectiveness = -min(1.0, max(0.0, effectiveness))
        memo[key] = pack(size_mb, gflops, neg_effectiveness)
        return member((genome, vector((size_mb, gflops, neg_effectiveness))))

    def archive_candidates(members: list[_Member]) -> list[_Member]:
        return [
            m for m in members
            if size_budget_mb is None or m.objectives.size_mb <= size_budget_mb
        ]

    archive = ParetoArchive()
    records: list[GenerationRecord] = []
    sweep = HypervolumeSweep()

    def record_generation() -> None:
        snapshot = archive.objective_vectors()
        records.append(
            GenerationRecord(
                generation=len(records),
                archive_size=len(snapshot),
                hypervolume=hypervolume(snapshot, reference, sweep),
                best_size_mb=min((p[0] for p in snapshot), default=None),
                best_gflops=min((p[1] for p in snapshot), default=None),
                best_effectiveness=max((-p[2] for p in snapshot), default=None),
            )
        )

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

    # The members are mutually non-dominated and distinct, so decoding them
    # in place keeps the archive's order and its invariant.
    archive._members = [Individual(space.configuration(m.genome), m.objectives) for m in archive]
    return TuneResult(archive, records, reference, space, memo)


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
