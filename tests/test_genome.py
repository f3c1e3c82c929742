"""The genome (a tuple of per-dimension value indices) against the
configuration-level operators as first written: encoding, sampling, repair
and the surrogate-scored search give the same values and leave the rng in
the same state."""

import math
import random
from types import SimpleNamespace

import pytest

from cfgtune import (
    Configuration,
    ObjectiveVector,
    SizeConstraint,
    SyntheticCapacityOracle,
    TunerParams,
    UnsatisfiableSpaceError,
    adaptive_random_init,
    boundary_random_mutation,
    build_indicator,
    correct,
    prune,
    space_from_mapping,
    tournament_select,
    tune,
    two_point_crossover,
)
from cfgtune import tuner
from conftest import MINI_SPACE_DOCUMENT, make_config
from test_pruning import downscaled_space
from test_space import _mini_member


@pytest.fixture(scope="module", params=["3MB", "64MB", "downscaled"])
def space(request, canonical_space):
    if request.param == "downscaled":
        return downscaled_space()
    budget = {"3MB": 3.0, "64MB": 64.0}[request.param]
    return prune(canonical_space, SizeConstraint(budget))


def reference_sample(dim, rng):
    """A value draw as first written."""
    if isinstance(dim.domain, range):
        return rng.randint(dim.min_value(), dim.max_value())
    return rng.choice(dim.domain)


def reference_encode(space, config, normalize):
    """The configuration encoding as first written, per dimension."""
    vector = []
    for dim in space.dimensions:
        value = getattr(config, dim.name)
        if dim.options:
            component = float(dim.options.index(value))
            lo, hi = 0.0, float(len(dim.options) - 1)
        else:
            component = float(value)
            lo, hi = float(dim.min_value()), float(dim.max_value())
        if normalize:
            component = 0.0 if hi <= lo else (component - lo) / (hi - lo)
        vector.append(component)
    return tuple(vector)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def reference_correct(config, space, rng):
    """The configuration repair as first written (for in-space values)."""
    heads_dim = space.dimension("num_attention_heads")
    hidden_dim = space.dimension("hidden_size")
    hidden = config.hidden_size
    if hidden % config.num_attention_heads == 0:
        return config
    for _ in range(100):
        candidates = [d for d in _divisors(hidden) if heads_dim.contains(d)]
        if candidates:
            return config._replace(hidden_size=hidden, num_attention_heads=rng.choice(candidates))
        head_choices = [
            h for h in heads_dim.iter_values()
            if any(hidden_dim.contains(m) for m in range(h, hidden_dim.max_value() + 1, h))
        ]
        if not head_choices:
            raise UnsatisfiableSpaceError("unsatisfiable")
        head = rng.choice(head_choices)
        if isinstance(hidden_dim.domain, range):
            low, high = hidden_dim.min_value(), hidden_dim.max_value()
            hidden = head * rng.randint(-(-low // head), high // head)
        else:
            hidden = rng.choice([v for v in hidden_dim.domain if v % head == 0])
    raise AssertionError("the repair loop always returns by its second pass")


def reference_sample_one(space, rng):
    raw = Configuration(*[reference_sample(dim, rng) for dim in space.dimensions])
    return reference_correct(raw, space, rng)


def test_genome_encoding_equals_configuration_encoding(space):
    rng = random.Random(1)
    for _ in range(500):
        genome = space.sample_genome(rng)
        config = space.configuration(genome)
        for normalize in (False, True):
            expected = reference_encode(space, config, normalize)
            assert space.encode_genome(genome, normalize) == expected
            if not normalize:
                assert space.encode(config) == expected


def test_index_draw_equals_value_draw(space):
    for dim in space.dimensions:
        for seed in range(50):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert dim.domain[rng.randrange(dim.size())] == reference_sample(dim, reference_rng)
            assert rng.getstate() == reference_rng.getstate()


def test_genome_sampler_equals_value_sampler(space):
    for seed in range(20):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(50):
            config = space.configuration(space.sample_genome(rng))
            assert config == reference_sample_one(space, reference_rng)
            assert space.validate(config)
        assert rng.getstate() == reference_rng.getstate()


def _repair_spaces(canonical_space):
    """(space, base configuration): the repair spaces of test_space.py, plus
    one whose hidden sizes form a range without an in-range divisor of 17."""
    yield canonical_space, make_config()
    for hidden, heads in (
        ([18], {"min": 2, "max": 4}),
        ([17, 18], {"min": 2, "max": 4}),
        ({"min": 17, "max": 40}, {"min": 6, "max": 8}),
    ):
        doc = dict(MINI_SPACE_DOCUMENT, hidden_size=hidden, num_attention_heads=heads)
        yield space_from_mapping(doc), _mini_member()


def test_genome_repair_equals_configuration_repair(canonical_space):
    for space, base in _repair_spaces(canonical_space):
        hidden_dim = space.dimension("hidden_size")
        heads_dim = space.dimension("num_attention_heads")
        for hidden in hidden_dim.iter_values():
            for heads in heads_dim.iter_values():
                config = base._replace(hidden_size=hidden, num_attention_heads=heads)
                for seed in range(3):
                    rng, reference_rng = random.Random(seed), random.Random(seed)
                    genome = space.genome(config)
                    repaired = correct(genome, space, rng)
                    expected = reference_correct(config, space, reference_rng)
                    assert space.configuration(repaired) == expected
                    assert (repaired is genome) == (expected is config)
                    assert rng.getstate() == reference_rng.getstate()


class _BelowOnlyRandom(random.Random):
    """A generator whose Python-level draw methods raise, so only
    ``getrandbits`` (through ``below``) and ``random()`` can draw."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the search drew through a random.Random draw method")

    choice = randint = randrange = shuffle = sample = _refuse


def test_search_draws_only_through_getrandbits_and_random(canonical_space, monkeypatch):
    rng = _BelowOnlyRandom(0)
    branches = set()  # whether a repair had to redraw hidden_size
    for space, base in _repair_spaces(canonical_space):
        for hidden in space.dimension("hidden_size").iter_values():
            for heads in space.dimension("num_attention_heads").iter_values():
                genome = space.genome(base._replace(hidden_size=hidden, num_attention_heads=heads))
                repaired = space.configuration(correct(genome, space, rng))
                assert space.validate(repaired)
                if repaired.num_attention_heads != heads:
                    branches.add(repaired.hidden_size != hidden)
    assert branches == {False, True}  # the divisor branch and the fallback
    pruned = prune(canonical_space, SizeConstraint(3.0))
    genomes = adaptive_random_init(pruned, 6, rng)
    for first, second in zip(genomes, genomes[1:]):
        for child in two_point_crossover(first, second, rng):
            assert pruned.validate(pruned.configuration(correct(
                boundary_random_mutation(child, pruned, 0.5, rng), pruned, rng
            )))
    points = [(1, 1, 1), (1, 1, 1), (2, 0, 1), (0, 2, 1), (3, 3, 3), (2, 2, 2)]
    pool = [SimpleNamespace(objectives=ObjectiveVector(*p)) for p in points]
    assert len(tournament_select(pool, 200, rng)) == 200
    # The whole loop, on a generator of the same class.
    monkeypatch.setattr(tuner, "random", SimpleNamespace(Random=_BelowOnlyRandom))
    oracle = SyntheticCapacityOracle(reference_space=pruned, seed=3)
    params = TunerParams(population_size=12, generations=4, seed=5)
    assert tune(pruned, oracle, params, size_budget_mb=3.0).archive


def test_genome_repair_unsatisfiable_like_configuration_repair():
    doc = dict(MINI_SPACE_DOCUMENT, hidden_size=[17], num_attention_heads={"min": 2, "max": 4})
    space = space_from_mapping(doc)
    genome = space.genome(Configuration(*[dim.domain[0] for dim in space.dimensions]))
    with pytest.raises(UnsatisfiableSpaceError):
        correct(genome, space, random.Random(0))
    with pytest.raises(UnsatisfiableSpaceError):
        reference_correct(space.configuration(genome), space, random.Random(0))


@pytest.mark.parametrize("budget_mb", [3.0, 64.0])
def test_surrogate_search_equals_search_on_configuration_encoding(canonical_space, budget_mb):
    # The surrogate reads the genome's encoding; a callable reads the
    # configuration's. Both run on the same BLAS, so they agree exactly.
    pruned = prune(canonical_space, SizeConstraint(budget_mb))
    oracle = SyntheticCapacityOracle(reference_space=pruned, seed=3)
    model, _, _ = build_indicator(pruned, oracle, k=20, seed=4)
    params = TunerParams(population_size=40, generations=30, seed=5)
    by_genome = tune(pruned, model, params, size_budget_mb=budget_mb)
    by_config = tune(
        pruned,
        lambda c: model.predict_mean(pruned.encode(c)),
        params,
        size_budget_mb=budget_mb,
    )
    assert [(m.config, m.objectives) for m in by_genome.archive] == [
        (m.config, m.objectives) for m in by_config.archive
    ]
    assert by_genome.records == by_config.records
    assert list(by_genome.evaluations.items()) == list(by_config.evaluations.items())
    assert len(by_genome.archive) > 0
    assert all(math.isfinite(v.neg_effectiveness) for v in by_genome.evaluations.values())

