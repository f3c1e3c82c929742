import gc
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    reference_point,
    select_deployment_config,
    tournament_select,
    tune,
    two_point_crossover,
    update_archive,
)
import cfgtune.tuner as tuner
from cfgtune.cli import _front_sort_key
from cfgtune.costs import genome_costs
from cfgtune.pruning import EmptyFeasibleSpaceError
from cfgtune.space import below
from cfgtune.tuner import _distinct_pair, _permutation
from conftest import CANONICAL_SPACE_FILE, load_perfbench_tracing, make_config


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
    assert list(archive) == [first]


def test_archive_reinsertion_is_stable():
    # Each re-offered member rejects itself and moves to the front, so the
    # order changes; the members do not.
    archive = ParetoArchive()
    members = [ind(1, 3, -0.2, 1), ind(2, 2, -0.4, 2), ind(3, 1, -0.6, 3)]
    update_archive(archive, members)
    before = list(archive)
    assert [archive.insert(m) for m in before] == [False] * len(before)
    assert sorted(map(id, archive)) == sorted(map(id, before))
    assert set(archive.objective_vectors()) == {m.objectives for m in before}


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


def test_archive_keeps_first_insert_per_vector_on_tie_heavy_streams():
    # Few distinct values, so most candidates tie a member in some objective
    # or equal one outright; -0.0 and 0.0 are the same value.
    rng = random.Random(7)
    points = [
        (rng.randrange(3), rng.randrange(3), rng.choice((-1.0, -0.5, -0.0, 0.0)))
        for _ in range(60)
    ]
    points += rng.choices(points, k=30)  # exact duplicates
    expected = brute_force_front(points)
    for order_seed in range(6):
        shuffled = [ind(*p, tag=i) for i, p in enumerate(points)]
        random.Random(order_seed).shuffle(shuffled)
        archive = ParetoArchive()
        update_archive(archive, shuffled)
        assert {tuple(v) for v in archive.objective_vectors()} == expected
        first = {}
        for candidate in shuffled:
            first.setdefault(tuple(candidate.objectives), candidate)
        assert all(first[tuple(m.objectives)] is m for m in archive)


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
    encodings = [space.encode_genome(space.genome(c), normalize=True) for c in configs]
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


@pytest.fixture(scope="module")
def two_value_space():
    """Two values per dimension, so every normalized component is 0 or 1 and
    many candidates tie exactly on their nearest distance."""
    return space_from_mapping(
        {
            "tokenizer": ["Byte-Pair Encoding", "Word"],
            "vocab_size": [1000, 50265],
            "num_hidden_layers": {"min": 1, "max": 2},
            "hidden_size": [64, 768],
            "hidden_act": ["GELU", "ReLU"],
            "hidden_dropout_prob": [0.1, 0.5],
            "intermediate_size": [16, 3072],
            "num_attention_heads": {"min": 1, "max": 2},
            "attention_probs_dropout_prob": [0.1, 0.5],
            "max_sequence_length": [256, 512],
            "position_embedding_type": ["absolute", "relative_key"],
            "learning_rate": [0.001, 0.0001],
            "batch_size": [16, 64],
        }
    )


def left_to_right_distance(a, b):
    """The initializer's distance as first written: the 13 squared component
    differences summed left to right, then ``math.sqrt``."""
    total = 0.0
    for x, y in zip(a, b, strict=True):
        total += (x - y) ** 2
    return math.sqrt(total)


def full_minimum_init(space, n, rng, candidate_pool):
    """The initializer as first written: every candidate's minimum distance
    to the chosen members is computed in full."""
    chosen = [space.sample_genome(rng)]
    encodings = [space.encode_genome(chosen[0], normalize=True)]
    while len(chosen) < n:
        best_config, best_encoding, best_score = None, None, -1.0
        for _ in range(candidate_pool):
            candidate = space.sample_genome(rng)
            encoding = space.encode_genome(candidate, normalize=True)
            score = min(left_to_right_distance(encoding, e) for e in encodings)
            if score > best_score:
                best_config, best_encoding, best_score = candidate, encoding, score
        chosen.append(best_config)
        encodings.append(best_encoding)
    return chosen


@pytest.mark.parametrize("candidate_pool", [tuner.CANDIDATE_POOL])
@pytest.mark.parametrize("n", [1, 2, 20, 200])
def test_adaptive_init_equals_full_minimum(
    pruned_space, mini_space, point_space, two_value_space, n, candidate_pool, monkeypatch
):
    # The ``math.dist`` scan and its early exit pick exactly the members the
    # full left-to-right minimum picks and leave the rng where it leaves it.
    dist, dist_calls = math.dist, 0

    def counted_dist(a, b):
        nonlocal dist_calls
        dist_calls += 1
        return dist(a, b)

    monkeypatch.setattr(math, "dist", counted_dist)
    seeds = range({1: 40, 2: 40, 20: 10, 200: 1}[n])
    pairs = candidate_pool * n * (n - 1) // 2 * len(seeds)
    for space in (pruned_space, mini_space, point_space, two_value_space):
        dist_calls = 0
        for seed in seeds:
            rng, reference_rng = random.Random(seed), random.Random(seed)
            population = adaptive_random_init(space, n, rng)
            assert population == full_minimum_init(space, n, reference_rng, candidate_pool)
            assert rng.getstate() == reference_rng.getstate()
        # The scan stops at a loser's first member no farther than the best
        # score, so from 20 members on it makes fewer ``math.dist`` calls
        # than the full scan.
        assert dist_calls <= pairs
        if n >= 20:
            assert dist_calls < pairs


def is_correctly_rounded_norm(value, a, b):
    """Whether ``value`` is the float nearest the exact Euclidean norm of the
    float differences ``x - y``: the squares of the half-ulp midpoints
    around it bracket the exact sum of squares (inclusive, so a norm exactly
    halfway between two floats accepts either)."""
    exact = sum(Fraction(x - y) ** 2 for x, y in zip(a, b, strict=True))
    low = (Fraction(value) + Fraction(math.nextafter(value, 0.0))) / 2
    high = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return low * low <= exact <= high * high


@pytest.mark.parametrize("budget_mb", [3.0, 64.0])
def test_math_dist_is_the_correctly_rounded_norm(canonical_space, budget_mb):
    # ``adaptive_random_init`` rests on this: on the running interpreter
    # each distance is exact up to one rounding, so its picks depend on
    # neither the interpreter nor the order of the components.
    space = prune(canonical_space, SizeConstraint(budget_mb))
    rng = random.Random(0)
    encodings = [
        space.encode_genome(space.sample_genome(rng), normalize=True) for _ in range(2000)
    ]
    pairs = list(zip(encodings, encodings[1:]))
    for a, b in zip(encodings[:500], encodings[500:1000]):
        position = rng.randrange(13)  # differ in this component alone
        pairs.append((a, a[:position] + b[position:position + 1] + a[position + 1:]))
    pairs += [(a, a) for a in encodings[:100]]
    for a, b in pairs:
        assert is_correctly_rounded_norm(math.dist(a, b), a, b)
    # The test tells a rounding apart: a neighbouring float fails it.
    a, b = encodings[0], encodings[1]
    assert not is_correctly_rounded_norm(math.nextafter(math.dist(a, b), math.inf), a, b)


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


@given(n=st.integers(2, 2**40), seed=st.integers(0, 2**32))
@example(n=2, seed=0)
@example(n=2**32 + 1, seed=1)
def test_distinct_pair_is_two_below_draws(n, seed):
    # Two distinct indices in range, from exactly one ``below(n)`` and one
    # ``below(n - 1)``: the same rng state after them.
    rng, reference = random.Random(seed), random.Random(seed)
    first, second = _distinct_pair(n, rng)
    assert 0 <= first < n and 0 <= second < n and first != second
    below(reference.getrandbits, n)
    below(reference.getrandbits, n - 1)
    assert rng.getstate() == reference.getstate()


def test_distinct_pair_reaches_every_ordered_pair():
    for n in range(2, 26):
        rng = random.Random(n)
        pairs = {_distinct_pair(n, rng) for _ in range(30 * n * n)}
        assert pairs == set(itertools.permutations(range(n), 2))


def test_below_draws_what_randrange_draws():
    # Pins ``below`` to the running interpreter's ``randrange``: the same
    # value and the same rng state, on both sides of every power of two up
    # to 64 and on draws wider than one 32-bit word.
    for n in [*range(1, 71), 2**32 + 1, 10**12]:
        for seed in range(6):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert below(rng.getrandbits, n) == reference.randrange(n)
            assert rng.getstate() == reference.getstate()


def test_permutation_draws_what_shuffle_draws():
    for n in range(301):
        rng, reference = random.Random(n), random.Random(n)
        order = list(range(n))
        reference.shuffle(order)
        assert _permutation(n, rng) == order
        assert rng.getstate() == reference.getstate()


def test_crossover_cut_points_are_the_sorted_distinct_pair():
    g1, g2 = tuple(range(13)), tuple(range(100, 113))  # differ at every position
    for seed in range(200):
        rng, reference = random.Random(seed), random.Random(seed)
        x1, x2 = sorted(_distinct_pair(14, reference))
        assert two_point_crossover(g1, g2, rng) == crossover_at(g1, g2, x1, x2)
        assert rng.getstate() == reference.getstate()


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
        assert dim.contains(getattr(mutated, dim.name))


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
    winners = tournament_select(pool, 50, rng)
    assert all(w.objectives == vec(1, 1, -0.9) for w in winners)


def test_tournament_identical_pool_preserves_objectives():
    pool = [ind(2, 2, -0.5, i) for i in range(4)]
    winners = tournament_select(pool, 10, random.Random(3))
    assert all(w.objectives == vec(2, 2, -0.5) for w in winners)


def test_tournament_selection_pressure():
    rng = random.Random(9)
    strong = [ind(rng.uniform(0, 1), rng.uniform(0, 1), -0.9, i) for i in range(5)]
    weak = [ind(rng.uniform(4, 5), rng.uniform(4, 5), -0.1, 100 + i) for i in range(5)]
    pool = strong + weak
    winners = tournament_select(pool, 10_000, rng)
    strong_wins = sum(1 for w in winners if w.objectives.neg_effectiveness == -0.9)
    assert strong_wins > 7000


def test_tournament_requires_pool():
    for pool in ([], [ind(1, 1, -0.5)]):
        with pytest.raises(ValueError):
            tournament_select(pool, 1, random.Random(0))


def k_way_tournament_select(pool, count, tournament_size, rng):
    """The tournament as first written, for any size: dominated entrants
    lose, the largest crowding distance among the rest wins, and ``below``
    picks among what is left, drawing nothing for one finalist. The i-th
    entrant is ``below(n - i)``-th of the indices not yet drawn, ascending."""
    crowding = crowding_distances([entry.objectives for entry in pool])
    k = min(tournament_size, len(pool))
    bits = rng.getrandbits
    winners = []
    for _ in range(count):
        undrawn = list(range(len(pool)))
        entrant_indices = [undrawn.pop(below(bits, len(undrawn))) for _ in range(k)]
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
        pick = below(bits, len(finalists)) if len(finalists) > 1 else 0
        winners.append(pool[finalists[pick]])
    return winners


def stepwise_tournament_select(pool, count, rng):
    """The binary tournament with its draws made by calls: the pair by
    :func:`_distinct_pair`, dominance by ``dominates``, no draw for one
    finalist and ``below(2)`` between two."""
    crowding = crowding_distances([entry.objectives for entry in pool])
    winners = []
    for _ in range(count):
        a, b = _distinct_pair(len(pool), rng)
        u, v = pool[a].objectives, pool[b].objectives
        if dominates(u, v):
            winner = a
        elif dominates(v, u):
            winner = b
        elif crowding[a] != crowding[b]:
            winner = a if crowding[a] > crowding[b] else b
        else:
            winner = (a, b)[below(rng.getrandbits, 2)]
        winners.append(pool[winner])
    return winners


@pytest.mark.parametrize("size", [*range(2, 26), 400])
def test_tournament_draws_what_the_stepwise_tournament_draws(size):
    # The same pairs as ``_distinct_pair`` at every size, and both outcomes:
    # grid pools repeat vectors and tie exactly on crowding, and a pool of
    # copies leaves every tournament to the two-finalist pick.
    for seed in range(10):
        rng = random.Random(seed)
        grid = [(rng.randint(0, 3), rng.randint(0, 3), -rng.randint(0, 3)) for _ in range(size)]
        spread = [(rng.random(), rng.random(), -rng.random()) for _ in range(size)]
        for points in (grid, spread, [grid[0]] * size):
            pool = [tuner._Member((i,), vec(*p)) for i, p in enumerate(points)]
            rng, reference_rng = random.Random(seed), random.Random(seed)
            winners = tournament_select(pool, 2 * size + 20, rng)
            expected = stepwise_tournament_select(pool, 2 * size + 20, reference_rng)
            assert all(w is e for w, e in zip(winners, expected, strict=True))
            assert rng.getstate() == reference_rng.getstate()


def assert_same_as_k_way(points, count, seed):
    pool = [ind(*p, tag=i) for i, p in enumerate(points)]
    rng, reference_rng = random.Random(seed), random.Random(seed)
    winners = tournament_select(pool, count, rng)
    expected = k_way_tournament_select(pool, count, 2, reference_rng)
    assert len(winners) == len(expected) == count
    assert all(w is e for w, e in zip(winners, expected))
    assert rng.getstate() == reference_rng.getstate()


grid_triples = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 0))
tournament_points = st.one_of(
    # small grids repeat vectors and chain dominance
    st.lists(grid_triples | objective_triples, min_size=2, max_size=12),
    # one dominance chain
    st.integers(2, 10).map(lambda n: [(i, i, i - n) for i in range(n)]),
    # copies of one vector: every crowding distance is infinite
    st.tuples(grid_triples, st.integers(2, 6)).map(lambda pc: [pc[0]] * pc[1]),
)


@given(points=tournament_points, count=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_binary_tournament_equals_k_way_at_two(points, count, seed):
    assert_same_as_k_way(points, count, seed)


def test_binary_tournament_equals_k_way_on_seeded_pools():
    rng = random.Random(2024)
    for seed in range(200):
        n = rng.randint(2, 40)
        if seed % 2:
            points = [(rng.randint(0, 4), rng.randint(0, 4), -rng.randint(0, 4)) for _ in range(n)]
        else:
            points = [(rng.uniform(0, 5), rng.uniform(0, 5), -rng.random()) for _ in range(n)]
        assert_same_as_k_way(points, rng.randint(1, 50), seed)


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
# Points on the reference box's faces, where an unclamped area factor is 0:
# x == rx, y == ry, the reference corner itself, and x on a reference of
# -0.0, where ``rx - x`` is -0.0.
@example(raw_points=[(1.0, 0.25, 0.5), (0.5, 0.75, 0.25)], reference=(1.0, 1.0, 1.0))
@example(raw_points=[(0.25, 1.0, 0.5), (0.5, 0.75, 0.25)], reference=(1.0, 1.0, 1.0))
@example(raw_points=[(0.75, 0.75, 0.75), (0.25, 0.5, 0.0)], reference=(0.75, 0.75, 0.75))
@example(raw_points=[(0.0, 0.5, 0.0), (-0.0, 0.25, 0.5)], reference=(-0.0, 1.0, 1.0))
def test_hypervolume_equals_per_level_definition_exactly(raw_points, reference):
    points = [vec(*p) for p in raw_points]
    # By ``repr``, so a -0.0 where the definition gives 0.0 fails too.
    assert repr(hypervolume(points, reference)) == repr(per_level_hypervolume(points, reference))


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


signed_grid_coordinates = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0])


def negative_zero_copy(point):
    return vec(*(-0.0 if c == 0 else c for c in point))


@settings(max_examples=300)
@given(
    data=st.data(),
    coordinates=st.sampled_from([grid_coordinates, tenth_coordinates, unit_coordinates]),
    reference=st.tuples(signed_grid_coordinates, signed_grid_coordinates, signed_grid_coordinates),
)
def test_resumed_hypervolume_equals_per_level_definition_at_every_step(data, coordinates, reference):
    # One sweep state through a sequence of point sets, as tune drives it.
    # Grid coordinates repeat z levels and land outside the box; a signed
    # reference and -0.0 copies compare equal to their +0.0 twins.
    sweep = tuner.HypervolumeSweep()
    points = []
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        step = data.draw(st.sampled_from(
            ["grow", "evict", "unchanged", "negative zero", "reference", "repeat", "equal copy"]
        ))
        if step == "grow":
            points = points + [vec(*p) for p in data.draw(point_lists(coordinates, 8))]
        elif step == "repeat" and points:
            # The same object twice: a run carried by identity may meet it.
            index = data.draw(st.integers(0, len(points) - 1))
            at = data.draw(st.integers(0, len(points)))
            points = points[:at] + [points[index]] + points[at:]
        elif step == "equal copy" and points:
            # A new object with the same values: not carried, but its
            # staircase equals the last call's.
            index = data.draw(st.integers(0, len(points) - 1))
            points = points[:index] + [vec(*points[index])] + points[index + 1:]
        elif step == "evict" and points:
            kept = data.draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
            points = [p for p, keep in zip(points, kept) if keep]
        elif step == "negative zero" and points:
            index = data.draw(st.integers(0, len(points) - 1))
            points = points[:index] + [negative_zero_copy(points[index])] + points[index + 1:]
        elif step == "reference":
            reference = data.draw(st.sampled_from([negative_zero_copy(reference), (1.0, 1.0, 1.0), (0.5, 0.75, 0.75)]))
        assert repr(hypervolume(points, reference, sweep)) == repr(per_level_hypervolume(points, reference))


def test_resumed_hypervolume_equals_a_sweep_from_no_state_on_random_fronts():
    # Large archive-like sequences: each step admits a few points and evicts
    # those they dominate, so most steps resume partway up the levels; now
    # and then the reference changes, which must start the sweep over.
    rng = random.Random(23)
    for trial in range(20):
        sweep = tuner.HypervolumeSweep()
        archive = ParetoArchive()
        draw = rng.random if trial % 2 else lambda: rng.choice([k / 10 for k in range(11)])
        for step in range(60):
            update_archive(archive, [ind(draw(), draw(), -draw()) for _ in range(5)])
            points = archive.objective_vectors()
            reference = (0.9, 0.8, -0.1) if step % 7 == 6 else (1.0, 1.0, 0.0)
            assert repr(hypervolume(points, reference, sweep)) == repr(hypervolume(points, reference))


def test_resumed_hypervolume_sweeps_only_points_whose_staircase_changed(monkeypatch):
    # A 200-point front on the plane x + y + z = 0 (z ascending, as the
    # archive's negated effectiveness): each swept point makes one
    # ``bisect_right`` call; a carried point makes none.
    rng = random.Random(31)
    points = []
    for _ in range(200):
        x, y = rng.random() / 2, rng.random() / 2
        points.append(vec(x, y, -(x + y)))
    reference = (1.0, 1.0, 0.0)
    calls = []
    bisect_right = tuner.bisect.bisect_right
    monkeypatch.setattr(tuner.bisect, "bisect_right", lambda *a: calls.append(a) or bisect_right(*a))

    def swept(points, sweep):
        calls.clear()
        value = hypervolume(points, reference, sweep)
        assert repr(value) == repr(per_level_hypervolume(points, reference))
        return len(calls)

    sweep = tuner.HypervolumeSweep()
    assert swept(points, sweep) == 200
    assert swept(list(points), sweep) == 0
    top = max(range(200), key=lambda k: points[k][2])
    points[top] = vec(points[top][0] / 2, points[top][1], points[top][2])
    assert swept(points, sweep) == 1
    # An equal copy of the lowest point is swept, and so is the point after
    # it, whose staircase then matches the last call's again.
    bottom = min(range(200), key=lambda k: points[k][2])
    points[bottom] = vec(*points[bottom])
    assert swept(points, sweep) == 2
    assert swept(points, tuner.HypervolumeSweep()) == 200


def test_resumed_hypervolume_uses_the_area_after_a_carried_run():
    # b and c hide behind a's staircase, so the area computed at b's level
    # stays current through c. Then d, carried, changes the staircase: the
    # final term must use the area after d, not the one from before it.
    a, b, c, d = vec(0.5, 0.5, 0.0), vec(0.6, 0.6, 0.25), vec(0.7, 0.7, 0.5), vec(0.1, 0.1, 0.75)
    reference = (1.0, 1.0, 1.0)
    sweep = tuner.HypervolumeSweep()
    hypervolume([a, b, c, d], reference, sweep)
    points = [a, vec(*b), c, d]
    assert repr(hypervolume(points, reference, sweep)) == repr(per_level_hypervolume(points, reference))


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


TRACED_TUNER_NAMES = tuple(
    attr for owner, attr, _, _ in load_perfbench_tracing()._targets() if owner is tuner
)


def test_tune_calls_every_traced_name_through_the_module(mini_space, mini_oracle, monkeypatch):
    # perfbench's tracer times these layers by replacing the module-level
    # names of ``cfgtune.tuner``; a layer that ``tune`` reaches another way
    # (inlined, or bound before the call) reads 0 there. Without a budget,
    # ``reference_point`` calls ``model_size_mb``.
    counts = dict.fromkeys(TRACED_TUNER_NAMES, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in TRACED_TUNER_NAMES:
        monkeypatch.setattr(tuner, name, counting(name, getattr(tuner, name)))
    tune(mini_space, mini_oracle, TunerParams(population_size=8, generations=3, seed=4))
    assert all(counts.values()), counts


def test_tune_is_deterministic(mini_space, mini_oracle):
    a = tune(mini_space, mini_oracle, TunerParams(seed=3))
    b = tune(mini_space, mini_oracle, TunerParams(seed=3))
    assert a.archive.objective_vectors() == b.archive.objective_vectors()
    assert [m.config for m in a.archive] == [m.config for m in b.archive]
    assert a.records == b.records


def test_tune_members_validate_and_are_memoized(mini_space, mini_oracle):
    result = tune(mini_space, mini_oracle, TunerParams(seed=1))
    evaluations = result.evaluations
    for member in result.archive:
        assert mini_space.validate(member.config)
        assert evaluations[member.config] == member.objectives
    assert len(evaluations) == len(result.genome_evaluations) <= 20 + 20 * 50


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


def test_tune_rejects_a_budget_below_the_min_corner_before_evaluating(pruned_space):
    # The 3 MB space's all-minimum corner is 87,938 bytes (0.084 MB).
    def indicator(config):
        raise AssertionError("evaluated although nothing fits")

    with pytest.raises(EmptyFeasibleSpaceError, match="all-minimum corner"):
        tune(pruned_space, indicator, TunerParams(seed=4), size_budget_mb=87_937 / 2**20)
    # The corner itself fits a budget of exactly its size, so the search runs.
    result = tune(pruned_space, lambda config: 0.5, TunerParams(2, 0, seed=4), size_budget_mb=87_938 / 2**20)
    assert len(result.records) == 1


def test_prune_and_tune_reject_a_budget_below_the_min_corner_alike(canonical_space):
    constraint = SizeConstraint(87_937 / 2**20)  # one byte under the corner
    with pytest.raises(EmptyFeasibleSpaceError) as pruned:
        prune(canonical_space, constraint)
    with pytest.raises(EmptyFeasibleSpaceError) as tuned:
        tune(canonical_space, lambda config: 0.5, TunerParams(2, 0), size_budget_mb=constraint.budget_mb)
    assert str(pruned.value) == str(tuned.value)


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tune_non_finite_effectiveness_raises(mini_space, value):
    # Clamping would score NaN as 0.0 and infinity as 1.0; a non-finite
    # indicator is a fault.
    with pytest.raises(RuntimeError, match="non-finite objectives"):
        tune(mini_space, lambda config: value, TunerParams(population_size=4, generations=1, seed=0))


def test_tune_evaluations_are_the_memo_decoded_in_order(pruned_space):
    result = tune(
        pruned_space,
        SyntheticCapacityOracle(reference_space=pruned_space),
        TunerParams(population_size=10, generations=5, seed=3),
    )
    genomes = list(result.genome_evaluations)
    assert list(result.evaluations) == [pruned_space.configuration(g) for g in genomes]
    assert list(result.evaluations.values()) == list(result.genome_evaluations.values())
    # The archive holds the decoded members, each the configuration of its
    # memo entry.
    evaluations = result.evaluations
    assert all(evaluations[m.config] == m.objectives for m in result.archive)


def batch_range_space(batch_max):
    """listing3 pruned to 3 MB with ``batch_size`` over ``range(1, batch_max
    + 1)``; no cost formula reads batch_size, so pruning keeps all of it."""
    document = json.loads(CANONICAL_SPACE_FILE.read_text())
    document["batch_size"] = {"min": 1, "max": batch_max}
    return prune(space_from_mapping(document), SizeConstraint(3.0))


class RecordingIndicator:
    """A fitted surrogate whose genome predictor records each genome it scores."""

    def __init__(self, model):
        self.model, self.genomes = model, []

    def genome_predictor(self, space):
        predict = self.model.genome_predictor(space)

        def scored(genome):
            self.genomes.append(genome)
            return predict(genome)
        return scored


@pytest.mark.parametrize("space_name, width", [("mini", "B"), ("3 MB", "H"), ("batch 1e10", "Q")])
def test_tune_memo_decodes_to_a_fresh_scoring_in_evaluation_order(mini_space, pruned_space, space_name, width):
    # The memo key packs each index in the narrowest width that holds the
    # space's largest index: at most 256 values per dimension for B,
    # 47,778 vocabulary sizes at 3 MB for H, 10**10 batch sizes for Q.
    space = {"mini": mini_space, "3 MB": pruned_space}.get(space_name) or batch_range_space(10**10)
    model, _, _ = build_indicator(space, SyntheticCapacityOracle(reference_space=space), k=20, seed=0)
    indicator = RecordingIndicator(model)
    result = tune(space, indicator, TunerParams(population_size=10, generations=5, seed=1))
    assert tuner._genome_struct(space).format == "<13" + width
    assert list(result.genome_evaluations) == indicator.genomes  # each new genome scored once
    costs_of, predict = genome_costs(space), model.genome_predictor(space)
    rescored = [
        repr(ObjectiveVector(*costs_of(g), -min(1.0, max(0.0, float(predict(g))))))
        for g in indicator.genomes
    ]
    # repr tells a -0.0 (a zero effectiveness, negated) from a 0.0.
    assert list(map(repr, result.genome_evaluations.values())) == rescored
    assert len(result.memo) == len(rescored)


def test_tune_memo_keeps_the_sign_of_a_zero_effectiveness(mini_space):
    result = tune(mini_space, lambda config: 0.0, TunerParams(population_size=4, generations=2, seed=0))
    assert all(repr(v.neg_effectiveness) == "-0.0" for v in result.genome_evaluations.values())
    assert all(repr(m.objectives.neg_effectiveness) == "-0.0" for m in result.archive)


# sha256 digests of pop 40 x 30 runs on listing3 (12 and 66 members), scored
# by the pure-Python oracle so no BLAS build can move them: first the front
# (configuration JSON plus the repr of the objectives, in the order the front
# file is written, so the archive's own order is free), then the repr of
# every GenerationRecord, whose hypervolume is taken against
# ``reference_point``. Kept apart, the front digest stays pinned when only
# the telemetry changes. A digest changes only with an intended change of
# the search or its telemetry; regenerate it then by printing
# ``front_digest`` or ``records_digest`` of the runs below.
GOLDEN_TUNE_DIGESTS = {
    3.0: (
        "9f9f497788c7c5c2d0f0027256bae957299de188f20415ed90ef71ddc754e9d3",
        "f68db53a6cdeb7bb4740824f294d695578e9d4f172e18469bf4c74525274801d",
    ),
    64.0: (
        "e9d09b5c5d16a1e54c724585560d5e8d8c7a6f4fcaa8d3205b134b7fb743f0a1",
        "6da18c09b855c4a9d8c5d7287d9f27de54b59a1bbc7a8fdabd3eaf25632c199d",
    ),
}


def front_digest(result):
    digest = hashlib.sha256()
    for member in sorted(result.archive, key=_front_sort_key):
        digest.update(json.dumps(member.config.as_dict(), sort_keys=True).encode())
        digest.update(repr(tuple(member.objectives)).encode())
    return digest.hexdigest()


def records_digest(result):
    digest = hashlib.sha256()
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
    assert (front_digest(result), records_digest(result)) == GOLDEN_TUNE_DIGESTS[budget_mb]


# The same digests of a tune-wide-sized run (64 MB, pop 100 x 200), whose
# archive grows to 255 members; the runs above stay far smaller.
GOLDEN_LARGE_ARCHIVE_DIGESTS = (
    "2ee46393e87ffcf3b7451b3c5b7bd979b1fbed8c73fd598f45800c56322d627b",
    "81e4b262587dabfd705a68fcd52f69f9d788f8ab63036faf7614ff9a1ea68f56",
)


def test_tune_reproduces_golden_large_archive(canonical_space):
    pruned = prune(canonical_space, SizeConstraint(64.0))
    result = tune(
        pruned,
        SyntheticCapacityOracle(reference_space=pruned),
        TunerParams(population_size=100, generations=200, seed=7),
        size_budget_mb=64.0,
    )
    assert len(result.archive) == 255
    assert (front_digest(result), records_digest(result)) == GOLDEN_LARGE_ARCHIVE_DIGESTS


# The same digests of a tune-tight-sized run (3 MB, pop 200 x 100) scored by
# a surrogate fitted on 20 oracle samples, as ``tune`` runs from the CLI;
# the fit is pure Python too, so no BLAS build can move them either.
GOLDEN_SURROGATE_DIGESTS = (
    "93796fb2763101f95f552cfed16212d0a2aa74c851d92162dede8a1f2a540501",
    "ae1b9ec4eca85060f6e6d788b7d09768b90895a8a9f9a85d3b89d8043b5d8e59",
)


def test_tune_reproduces_golden_surrogate_front(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    model, _, _ = build_indicator(pruned_space, oracle, k=20, seed=0)
    result = tune(
        pruned_space,
        model,
        TunerParams(population_size=200, generations=100, seed=7),
        size_budget_mb=3.0,
    )
    assert len(result.archive) == 58
    assert (front_digest(result), records_digest(result)) == GOLDEN_SURROGATE_DIGESTS


# --- the fixed hypervolume reference -----------------------------------------


def test_reference_point_of_the_pruned_quickstart_space(pruned_space):
    assert reference_point(pruned_space, 3.0) == (3.0, 30.495875652, 0.0)


def test_reference_point_bounds_the_whole_mini_space(mini_space, mini_ground_truth):
    vectors, _ = mini_ground_truth
    reference = reference_point(mini_space)
    assert all(all(v <= r for v, r in zip(vector, reference)) for vector in vectors)
    # The corner itself is a configuration of the space, so the bound is tight.
    assert max(v[0] for v in vectors) == reference[0]
    assert max(v[1] for v in vectors) == reference[1]


@pytest.mark.parametrize(
    ("space_name", "prune_mb", "budget_mb"),
    [("listing3", 3.0, 3.0), ("listing3", 64.0, 64.0), ("listing3", 3.0, None), ("mini", None, None)],
)
def test_reference_point_bounds_every_evaluation(
    canonical_space, mini_space, space_name, prune_mb, budget_mb
):
    space = mini_space if space_name == "mini" else canonical_space
    if prune_mb is not None:
        space = prune(space, SizeConstraint(prune_mb))
    result = tune(
        space,
        SyntheticCapacityOracle(reference_space=space),
        TunerParams(population_size=20, generations=10, seed=2),
        size_budget_mb=budget_mb,
    )
    reference = reference_point(space, budget_mb)
    assert result.reference_point == reference
    assert len(result.archive) > 0
    for member in result.archive:
        assert all(v <= r for v, r in zip(member.objectives, reference))
    for point in result.genome_evaluations.values():
        assert point.gflops <= reference[1]
        assert point.neg_effectiveness <= reference[2]
        if budget_mb is None:
            assert point.size_mb <= reference[0]


@pytest.mark.parametrize("budget_mb", [3.0, None])
def test_last_record_is_the_archive_hypervolume(pruned_space, budget_mb):
    result = tune(
        pruned_space,
        SyntheticCapacityOracle(reference_space=pruned_space),
        TunerParams(population_size=20, generations=10, seed=3),
        size_budget_mb=budget_mb,
    )
    assert result.records[-1].hypervolume == hypervolume(
        result.archive.objective_vectors(), reference_point(pruned_space, budget_mb)
    )
    assert result.records[-1].hypervolume > 0.0


def test_tuner_params_validation():
    with pytest.raises(ValueError):
        TunerParams(population_size=0)
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


@pytest.mark.parametrize("batch_max", [10**6, 10**10])
def test_tune_surrogate_memory_grows_with_evaluations_not_range_sizes(batch_max):
    # Pruning keeps batch_size's whole range; a surrogate's per-index terms
    # must not take a slot per value of it.
    space = batch_range_space(batch_max)
    assert space.dimensions[-1].size() == batch_max
    model, _, _ = build_indicator(space, SyntheticCapacityOracle(reference_space=space), k=20, seed=0)
    tracemalloc.start()
    try:
        result = tune(space, model, TunerParams(population_size=10, generations=3, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.archive) > 0
    assert peak < 2_000_000


def test_tune_memo_retains_under_200_bytes_per_evaluation(pruned_space):
    # Each entry is a packed key (13 two-byte indices at 3 MB) and a packed
    # vector (three doubles): about 150 B with the dict's slot. A 13-int
    # tuple key with a named tuple of three floats takes about 330 B.
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    tracemalloc.start()
    try:
        memo = tune(pruned_space, oracle, TunerParams(population_size=100, generations=50, seed=1)).memo
        gc.collect()
        held, count = tracemalloc.get_traced_memory()[0], len(memo)
        del memo
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count > 4000
    assert 100 < retained / count < 200
