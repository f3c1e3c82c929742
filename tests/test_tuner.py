import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgtune import (
    Individual,
    SizeConstraint,
    SyntheticCapacityOracle,
    build_indicator,
    space_from_mapping,
    ObjectiveVector,
    ParetoArchive,
    TunerParams,
    adaptive_random_init,
    boundary_random_mutation,
    crossover_at,
    crowding_distances,
    dominates,
    hypervolume,
    prune,
    select_deployment_config,
    tournament_select,
    tune,
    two_point_crossover,
    update_archive,
)
from cfgtune.tuner import _normalized_distance
from conftest import make_config


def vec(a, b, c):
    return ObjectiveVector(size_mb=a, gflops=b, neg_effectiveness=c)


def ind(a, b, c, tag=0):
    # distinct dummy configs so objective duplicates are distinguishable
    return Individual(config=make_config(vocab_size=1000 + tag), objectives=vec(a, b, c))


objective_triples = st.tuples(
    st.floats(min_value=0, max_value=10, allow_nan=False),
    st.floats(min_value=0, max_value=10, allow_nan=False),
    st.floats(min_value=-1, max_value=0, allow_nan=False),
)


# --- dominance -------------------------------------------------------------


def test_dominates_examples():
    assert dominates(vec(1, 1, -0.9), vec(2, 1, -0.9))
    assert not dominates(vec(1, 2, -0.9), vec(2, 1, -0.9))
    assert not dominates(vec(2, 1, -0.9), vec(1, 2, -0.9))
    assert not dominates(vec(1, 1, -0.9), vec(1, 1, -0.9))


@given(u=objective_triples, v=objective_triples, w=objective_triples)
def test_dominance_is_a_strict_partial_order(u, v, w):
    u, v, w = vec(*u), vec(*v), vec(*w)
    assert not dominates(u, u)
    assert not (dominates(u, v) and dominates(v, u))
    if dominates(u, v) and dominates(v, w):
        assert dominates(u, w)


# --- archive ---------------------------------------------------------------


def brute_force_front(vectors):
    distinct = set(vectors)
    return {
        v
        for v in distinct
        if not any(
            u[0] <= v[0] and u[1] <= v[1] and u[2] <= v[2] and u != v
            and (u[0] < v[0] or u[1] < v[1] or u[2] < v[2])
            for u in distinct
        )
    }


def test_archive_dominating_candidate_replaces_members():
    archive = ParetoArchive()
    update_archive(archive, [ind(1, 2, -0.5, 1), ind(2, 1, -0.5, 2)])
    assert len(archive) == 2
    update_archive(archive, [ind(1, 1, -0.5, 3)])
    assert [m.objectives for m in archive] == [vec(1, 1, -0.5)]


def test_archive_rejects_objective_duplicates_keeps_first():
    archive = ParetoArchive()
    first = ind(1, 2, -0.5, tag=1)
    later = ind(1, 2, -0.5, tag=2)
    assert archive.insert(first)
    assert not archive.insert(later)
    assert archive.members == (first,)


def test_archive_reinsertion_is_stable():
    archive = ParetoArchive()
    members = [ind(1, 3, -0.2, 1), ind(2, 2, -0.4, 2), ind(3, 1, -0.6, 3)]
    update_archive(archive, members)
    before = archive.members
    update_archive(archive, list(before))
    assert archive.members == before


def test_archive_matches_brute_force_on_random_streams():
    rng = random.Random(42)
    points = [
        (rng.uniform(0, 5), rng.uniform(0, 5), -rng.random()) for _ in range(800)
    ]
    points += rng.choices(points, k=100)  # inject duplicates
    expected = brute_force_front(points)
    for order_seed in range(6):
        shuffled = list(points)
        random.Random(order_seed).shuffle(shuffled)
        archive = ParetoArchive()
        update_archive(
            archive, [ind(*p, tag=i) for i, p in enumerate(shuffled)]
        )
        assert {tuple(v) for v in archive.objective_vectors()} == expected


def test_archive_members_mutually_non_dominated_invariant():
    rng = random.Random(1)
    archive = ParetoArchive()
    for i in range(500):
        archive.insert(ind(rng.uniform(0, 3), rng.uniform(0, 3), -rng.random(), i))
    members = archive.objective_vectors()
    for u, v in itertools.permutations(members, 2):
        assert not dominates(u, v)


# --- initialization --------------------------------------------------------


def genomes(space, n, seed):
    """The genomes of ``space.sample_uniform(n, seed)``."""
    return [space.genome(c) for c in space.sample_uniform(n, seed)]


def test_adaptive_init_single_sample(pruned_space):
    population = adaptive_random_init(pruned_space, 1, seed=3)
    assert len(population) == 1
    assert pruned_space.validate(pruned_space.configuration(population[0]))


def test_adaptive_init_deterministic_and_valid(pruned_space):
    a = adaptive_random_init(pruned_space, 20, seed=11)
    b = adaptive_random_init(pruned_space, 20, seed=11)
    assert a == b
    assert all(pruned_space.validate(pruned_space.configuration(g)) for g in a)


def min_pairwise_distance(space, configs):
    encodings = [space.encode(c, normalize=True) for c in configs]
    return min(
        math.dist(x, y) for x, y in itertools.combinations(encodings, 2)
    )


def test_adaptive_init_spreads_more_than_uniform(pruned_space):
    # paired-seed comparison: the distance-maximizing initializer should win
    # the min-pairwise-distance comparison in a large majority of trials
    wins = 0
    for seed in range(100):
        adaptive = [
            pruned_space.configuration(g)
            for g in adaptive_random_init(pruned_space, 20, seed=seed)
        ]
        uniform = pruned_space.sample_uniform(20, seed=seed)
        if min_pairwise_distance(pruned_space, adaptive) >= min_pairwise_distance(
            pruned_space, uniform
        ):
            wins += 1
    assert wins >= 80


@pytest.fixture(scope="module")
def point_space(mini_space):
    """A space with one configuration, so every distance is 0."""
    doc = mini_space.to_document()
    doc.update(
        tokenizer=["Word"],
        vocab_size=[1000],
        num_hidden_layers={"min": 1, "max": 1},
        hidden_size=[16],
        intermediate_size=[64],
        num_attention_heads={"min": 1, "max": 1},
    )
    return space_from_mapping(doc)


def test_adaptive_init_degenerate_single_point_space(point_space):
    population = adaptive_random_init(point_space, 5, seed=0)
    assert len(set(population)) == 1
    configs = [point_space.configuration(g) for g in population]
    assert min_pairwise_distance(point_space, configs) == 0.0


def full_minimum_init(space, n, rng, candidate_pool=10):
    """The initializer as first written: every candidate's minimum distance
    to the chosen members is computed in full."""
    chosen = [space.sample_genome(rng)]
    encodings = [space.encode_genome(chosen[0], normalize=True)]
    while len(chosen) < n:
        best_config, best_encoding, best_score = None, None, -1.0
        for _ in range(candidate_pool):
            candidate = space.sample_genome(rng)
            encoding = space.encode_genome(candidate, normalize=True)
            score = min(_normalized_distance(encoding, e) for e in encodings)
            if score > best_score:
                best_config, best_encoding, best_score = candidate, encoding, score
        chosen.append(best_config)
        encodings.append(best_encoding)
    return chosen


@pytest.mark.parametrize("candidate_pool", [1, 10])
@pytest.mark.parametrize("n", [1, 2, 20, 200])
def test_adaptive_init_equals_full_minimum(
    pruned_space, mini_space, point_space, n, candidate_pool
):
    # The early exit picks exactly the members the full minimum picks and
    # leaves the rng where the full minimum leaves it.
    seeds = range({1: 40, 2: 40, 20: 10, 200: 1}[n])
    for space in (pruned_space, mini_space, point_space):
        for seed in seeds:
            rng, reference_rng = random.Random(seed), random.Random(seed)
            population = adaptive_random_init(space, n, rng, candidate_pool)
            assert population == full_minimum_init(space, n, reference_rng, candidate_pool)
            assert rng.getstate() == reference_rng.getstate()


def test_space_document_round_trip_checksum(mini_space):
    assert space_from_mapping(mini_space.to_document()).checksum() == mini_space.checksum()


# --- variation operators ----------------------------------------------------


def test_crossover_full_swap_returns_swapped_parents(pruned_space):
    p1, p2 = genomes(pruned_space, 2, seed=21)
    c1, c2 = crossover_at(p1, p2, 0, 13)
    assert (c1, c2) == (p2, p1)


def test_crossover_single_dimension_swap(pruned_space):
    p1, p2 = genomes(pruned_space, 2, seed=22)
    c1, c2 = crossover_at(p1, p2, 1, 2)
    assert c1[1] == p2[1]  # vocab_size
    assert c2[1] == p1[1]
    assert c1[0] == p1[0]  # tokenizer
    assert c1[2:] == p1[2:]


def test_crossover_rejects_bad_cut_points(pruned_space):
    p1, p2 = genomes(pruned_space, 2, seed=23)
    for x1, x2 in ((3, 3), (5, 2), (-1, 4), (0, 14)):
        with pytest.raises(ValueError):
            crossover_at(p1, p2, x1, x2)


def test_crossover_children_take_values_from_parents(pruned_space):
    rng = random.Random(7)
    for _ in range(1000):
        p1, p2 = genomes(pruned_space, 2, seed=rng.randrange(10**9))
        c1, c2 = two_point_crossover(p1, p2, rng)
        assert len(c1) == len(c2) == 13
        for position in range(13):
            options = {p1[position], p2[position]}
            assert c1[position] in options
            assert c2[position] in options


def test_crossover_is_deterministic_under_seeded_rng(pruned_space):
    p1, p2 = genomes(pruned_space, 2, seed=24)
    a = two_point_crossover(p1, p2, random.Random(5))
    b = two_point_crossover(p1, p2, random.Random(5))
    assert a == b


def test_mutation_rate_zero_is_identity(pruned_space):
    genome = genomes(pruned_space, 1, seed=30)[0]
    assert boundary_random_mutation(genome, pruned_space, 0.0, random.Random(1)) is genome


def test_mutation_rate_one_draws_in_range(pruned_space):
    genome = genomes(pruned_space, 1, seed=31)[0]
    mutated = pruned_space.configuration(
        boundary_random_mutation(genome, pruned_space, 1.0, random.Random(2))
    )
    for dim in pruned_space.dimensions:
        assert dim.contains(mutated.value(dim.name))


def test_mutation_change_frequency(pruned_space):
    rng = random.Random(123)
    genome = genomes(pruned_space, 1, seed=32)[0]
    trials = 10_000
    changed = [0] * 13
    for _ in range(trials):
        mutated = boundary_random_mutation(genome, pruned_space, 0.1, rng)
        for position in range(13):
            if mutated[position] != genome[position]:
                changed[position] += 1
    for position, dim in enumerate(pruned_space.dimensions):
        # a resample hits the original value with probability 1/size
        correction = 1.0 - 1.0 / dim.size()
        frequency = changed[position] / trials
        assert 0.07 * correction <= frequency <= 0.13 * correction, dim.name


def test_mutation_rejects_bad_rate(pruned_space):
    genome = genomes(pruned_space, 1, seed=33)[0]
    with pytest.raises(ValueError):
        boundary_random_mutation(genome, pruned_space, 1.5, random.Random(0))


# --- selection ---------------------------------------------------------------


def test_tournament_dominating_individual_wins():
    pool = [ind(5, 5, -0.1, 1), ind(1, 1, -0.9, 2)]
    rng = random.Random(0)
    winners = tournament_select(pool, 50, 2, rng)
    assert all(w.objectives == vec(1, 1, -0.9) for w in winners)


def test_tournament_identical_pool_preserves_objectives():
    pool = [ind(2, 2, -0.5, i) for i in range(4)]
    winners = tournament_select(pool, 10, 2, random.Random(3))
    assert all(w.objectives == vec(2, 2, -0.5) for w in winners)


def test_tournament_selection_pressure():
    rng = random.Random(9)
    strong = [ind(rng.uniform(0, 1), rng.uniform(0, 1), -0.9, i) for i in range(5)]
    weak = [ind(rng.uniform(4, 5), rng.uniform(4, 5), -0.1, 100 + i) for i in range(5)]
    pool = strong + weak
    winners = tournament_select(pool, 10_000, 2, rng)
    strong_wins = sum(1 for w in winners if w.objectives.neg_effectiveness == -0.9)
    assert strong_wins > 7000


def test_tournament_requires_pool():
    with pytest.raises(ValueError):
        tournament_select([], 1, 2, random.Random(0))


def test_crowding_distance_boundaries_infinite():
    points = [vec(0, 5, -0.1), vec(1, 4, -0.2), vec(2, 3, -0.3), vec(5, 0, -0.9)]
    distances = crowding_distances(points)
    assert distances[0] == math.inf
    assert distances[-1] == math.inf
    assert all(d > 0 for d in distances)
    assert crowding_distances(points[:2]) == [math.inf, math.inf]


# --- hypervolume -------------------------------------------------------------


def inclusion_exclusion_hypervolume(points, reference):
    """Exact union volume of boxes [p, reference] by inclusion-exclusion."""
    total = 0.0
    for r in range(1, len(points) + 1):
        for subset in itertools.combinations(points, r):
            sides = [
                max(0.0, reference[d] - max(p[d] for p in subset)) for d in range(3)
            ]
            volume = sides[0] * sides[1] * sides[2]
            total += volume if r % 2 == 1 else -volume
    return total


def per_level_hypervolume(points, reference):
    """Reference definition: one 2-d staircase built from scratch per
    distinct third-coordinate level, its area times the gap to the next
    level. ``hypervolume`` must return exactly this value."""
    rx, ry, rz = reference
    clipped = [p for p in points if p[0] <= rx and p[1] <= ry and p[2] <= rz]
    levels = sorted({p[2] for p in clipped})
    volume = 0.0
    for idx, z in enumerate(levels):
        upper = levels[idx + 1] if idx + 1 < len(levels) else rz
        frontier = []
        min_y = math.inf
        for x, y in sorted((p[0], p[1]) for p in clipped if p[2] <= z):
            if y < min_y:
                frontier.append((x, y))
                min_y = y
        area = 0.0
        for k, (x, y) in enumerate(frontier):
            next_x = frontier[k + 1][0] if k + 1 < len(frontier) else rx
            area += max(0.0, next_x - x) * max(0.0, ry - y)
        volume += area * max(0.0, upper - z)
    return volume


# Coordinates on a coarse grid tie in every objective, repeat whole points
# and land on the reference boundary; unconstrained floats almost never do.
# Sums of tenths round, so a different staircase or summation order shows.
grid_coordinates = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
tenth_coordinates = st.sampled_from([k / 10 for k in range(11)])
unit_coordinates = st.floats(min_value=0, max_value=1, allow_nan=False)


def point_lists(coordinates, max_size):
    return st.lists(
        st.tuples(coordinates, coordinates, coordinates), min_size=1, max_size=max_size
    )


def test_hypervolume_single_point():
    assert hypervolume([vec(1, 1, -1)], (2.0, 2.0, 0.0)) == pytest.approx(1.0)


def test_hypervolume_known_two_point_union():
    points = [vec(1, 5, 0), vec(2, 3, 0)]
    assert hypervolume(points, (10.0, 10.0, 1.0)) == pytest.approx(61.0)


def test_hypervolume_ignores_points_outside_reference():
    points = [vec(1, 1, -0.5), vec(99, 1, -0.9)]
    assert hypervolume(points, (2.0, 2.0, 0.0)) == pytest.approx(
        hypervolume([points[0]], (2.0, 2.0, 0.0))
    )
    assert hypervolume([], (1.0, 1.0, 1.0)) == 0.0


@settings(max_examples=60)
@given(st.one_of(point_lists(unit_coordinates, 8), point_lists(grid_coordinates, 8)))
def test_hypervolume_matches_inclusion_exclusion(raw_points):
    points = [vec(*p) for p in raw_points]
    reference = (1.0, 1.0, 1.0)
    assert hypervolume(points, reference) == pytest.approx(
        inclusion_exclusion_hypervolume(raw_points, reference), abs=1e-12
    )


@settings(max_examples=300)
@given(
    raw_points=st.one_of(
        point_lists(grid_coordinates, 60),
        point_lists(tenth_coordinates, 60),
        point_lists(unit_coordinates, 60),
    ),
    reference=st.tuples(grid_coordinates, grid_coordinates, grid_coordinates),
)
def test_hypervolume_equals_per_level_definition_exactly(raw_points, reference):
    points = [vec(*p) for p in raw_points]
    assert hypervolume(points, reference) == per_level_hypervolume(points, reference)


def test_hypervolume_equals_per_level_definition_on_random_fronts():
    # Large sets make the float sums order-sensitive, so a changed staircase
    # or summation order shows here; tenths also tie in every objective.
    rng = random.Random(17)
    tenths = [k / 10 for k in range(11)]
    for trial in range(400):
        draw = rng.random if trial % 2 else lambda: rng.choice(tenths)
        points = [vec(draw(), draw(), draw()) for _ in range(40)]
        points += rng.choices(points, k=5)
        reference = (1.0, 1.0, 1.0)
        assert hypervolume(points, reference) == per_level_hypervolume(points, reference)


def test_hypervolume_monotone_under_additional_points():
    rng = random.Random(6)
    points = [vec(rng.random(), rng.random(), -rng.random()) for _ in range(10)]
    reference = (1.0, 1.0, 0.0)
    for k in range(1, 11):
        smaller = hypervolume(points[: k - 1], reference)
        larger = hypervolume(points[:k], reference)
        assert larger >= smaller - 1e-12


# --- the full loop -----------------------------------------------------------


def test_tune_zero_generations_archives_initial_front(mini_space, mini_oracle):
    params = TunerParams(population_size=12, generations=0, seed=5)
    result = tune(mini_space, mini_oracle, params)
    initial_points = [
        result.genome_evaluations[g]
        for g in adaptive_random_init(mini_space, 12, seed=5)
    ]
    expected = brute_force_front([tuple(p) for p in initial_points])
    assert {tuple(v) for v in result.archive.objective_vectors()} == expected
    assert len(result.records) == 1


def test_tune_is_deterministic(mini_space, mini_oracle):
    a = tune(mini_space, mini_oracle, TunerParams(seed=3))
    b = tune(mini_space, mini_oracle, TunerParams(seed=3))
    assert a.archive.objective_vectors() == b.archive.objective_vectors()
    assert [m.config for m in a.archive] == [m.config for m in b.archive]
    assert a.records == b.records


def test_tune_members_validate_and_are_memoized(mini_space, mini_oracle):
    result = tune(mini_space, mini_oracle, TunerParams(seed=1))
    for member in result.archive:
        assert mini_space.validate(member.config)
        assert result.evaluations[member.config] == member.objectives
    assert result.evaluation_count <= 20 + 20 * 50


def test_tune_archive_externally_stable(mini_space, mini_oracle):
    result = tune(mini_space, mini_oracle, TunerParams(seed=2))
    members = result.archive.objective_vectors()
    for point in result.evaluations.values():
        assert not any(dominates(point, m) for m in members)


def test_tune_budget_gates_archive(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    model, _, _ = build_indicator(pruned_space, oracle, k=20, seed=8)
    result = tune(
        pruned_space,
        model,
        TunerParams(population_size=20, generations=30, seed=8),
        size_budget_mb=3.0,
    )
    assert len(result.archive) > 0
    assert all(m.objectives.size_mb <= 3.0 for m in result.archive)


@pytest.mark.parametrize("budget_mb", [math.nan, 0.0, -1.0])
def test_tune_rejects_non_positive_budget_before_evaluating(mini_space, budget_mb):
    def indicator(config):
        raise AssertionError("evaluated despite an invalid budget")

    with pytest.raises(ValueError, match="must be positive"):
        tune(mini_space, indicator, TunerParams(seed=4), size_budget_mb=budget_mb)


def test_tune_effectiveness_stays_in_unit_range(mini_space, mini_oracle):
    result = tune(mini_space, mini_oracle, TunerParams(seed=4))
    for point in result.evaluations.values():
        assert -1.0 <= point.neg_effectiveness <= 0.0


def test_tune_accepts_plain_callable(mini_space):
    result = tune(
        mini_space,
        lambda config: 0.5,
        TunerParams(population_size=8, generations=3, seed=0),
    )
    assert all(m.objectives.neg_effectiveness == -0.5 for m in result.archive)


# sha256 of the front (configuration JSON plus the repr of the objectives, in
# archive order) and the repr of every GenerationRecord of a pop 40 x 30 run
# on listing3, scored by the pure-Python oracle so no BLAS build can move
# them. They were computed with the full-minimum initializer. They change
# only with an intended change of the search's behaviour; regenerate them
# then by printing ``tune_digest`` of the runs below.
GOLDEN_TUNE_DIGESTS = {
    3.0: "15e52cb95e7a79d5404a37da94b79f444d547768645607dbf2b6e358e4148dd0",
    64.0: "03603a02379a7d1e4e5f3a38f5f029de8d171dbc5a2130e8c0fde2bf7bdb499c",
}


def tune_digest(result):
    digest = hashlib.sha256()
    for member in result.archive:
        digest.update(json.dumps(member.config.as_dict(), sort_keys=True).encode())
        digest.update(repr(tuple(member.objectives)).encode())
    for record in result.records:
        digest.update(repr(record).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("budget_mb", sorted(GOLDEN_TUNE_DIGESTS))
def test_tune_reproduces_golden_fronts(canonical_space, budget_mb):
    pruned = prune(canonical_space, SizeConstraint(budget_mb))
    result = tune(
        pruned,
        SyntheticCapacityOracle(reference_space=pruned),
        TunerParams(population_size=40, generations=30, seed=7),
        size_budget_mb=budget_mb,
    )
    assert tune_digest(result) == GOLDEN_TUNE_DIGESTS[budget_mb]


# The same digest of a tune-wide-sized run (64 MB, pop 100 x 200), whose
# archive grows to 279 members; the runs above stay far smaller.
GOLDEN_LARGE_ARCHIVE_DIGEST = "4f8bcaed8e723e4fed86004f463183ce3afd34bdf16f3a5c6711bc997d3e3508"


def test_tune_reproduces_golden_large_archive(canonical_space):
    pruned = prune(canonical_space, SizeConstraint(64.0))
    result = tune(
        pruned,
        SyntheticCapacityOracle(reference_space=pruned),
        TunerParams(population_size=100, generations=200, seed=7),
        size_budget_mb=64.0,
    )
    assert len(result.archive) == 279
    assert tune_digest(result) == GOLDEN_LARGE_ARCHIVE_DIGEST


def test_tuner_params_validation():
    with pytest.raises(ValueError):
        TunerParams(population_size=0)
    with pytest.raises(ValueError):
        TunerParams(crossover_rate=1.5)
    with pytest.raises(ValueError):
        TunerParams(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        TunerParams(generations=-1)


# --- deployment pick ---------------------------------------------------------


def test_select_deployment_closest_size():
    archive = ParetoArchive()
    update_archive(archive, [ind(2.1, 1, -0.5, 1), ind(2.9, 0.5, -0.4, 2)])
    assert len(archive) == 2
    assert select_deployment_config(archive, 3.0).objectives.size_mb == 2.9


def test_select_deployment_tie_breaks():
    archive = ParetoArchive()
    update_archive(archive, [ind(2.9, 5, -0.8, 1), ind(3.1, 4, -0.9, 2)])
    # equal distance to 3.0: higher predicted effectiveness wins
    assert select_deployment_config(archive, 3.0).objectives.neg_effectiveness == -0.9
    archive = ParetoArchive()
    update_archive(archive, [ind(2.9, 6, -0.8, 1), ind(3.1, 5, -0.8, 2)])
    # equal distance and effectiveness: lower gflops wins
    assert select_deployment_config(archive, 3.0).objectives.gflops == 5


def test_select_deployment_single_and_empty():
    archive = ParetoArchive()
    only = ind(1.5, 1, -0.5, 1)
    update_archive(archive, [only])
    assert select_deployment_config(archive, 3.0) is only
    with pytest.raises(ValueError):
        select_deployment_config(ParetoArchive(), 3.0)
