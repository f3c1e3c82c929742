import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cfgtune import (
    ConfigurationSpace,
    Dimension,
    EmptyFeasibleSpaceError,
    MEGABYTE,
    SIZE_RELEVANT_DIMENSIONS,
    SizeConstraint,
    min_corner_bytes,
    parameter_file_bytes,
    prune,
    prune_report,
    space_from_mapping,
)
from cfgtune import load_space, pruning
from cfgtune.cli import EXIT_OK, main
from cfgtune.space import INTEGER_RANGE
from conftest import MINI_SPACE_DOCUMENT


def downscaled_space():
    """Size-relevant dimensions restricted to small spread-out value sets so
    every configuration can be enumerated."""
    return space_from_mapping(
        {
            "tokenizer": ["Byte-Pair Encoding", "WordPiece"],
            "vocab_size": [1000, 2000, 4000, 8000, 16000, 32000],
            "num_hidden_layers": {"min": 1, "max": 12},
            "hidden_size": [16, 32, 64, 128, 256, 512],
            "hidden_act": ["GELU", "ReLU"],
            "hidden_dropout_prob": [0.1, 0.5],
            "intermediate_size": [16, 256, 1024, 3072],
            "num_attention_heads": {"min": 1, "max": 4},
            "attention_probs_dropout_prob": [0.1, 0.5],
            "max_sequence_length": [256, 384, 512],
            "position_embedding_type": ["absolute"],
            "learning_rate": [0.001],
            "batch_size": [16, 32],
        }
    )


def brute_force_retained_values(space, budget_mb):
    """Per size-relevant dimension, the values that occur in at least one
    within-budget combination, found by full vectorized enumeration."""
    axes = {
        name: np.array(list(space.dimension(name).iter_values()), dtype=np.int64)
        for name in SIZE_RELEVANT_DIMENSIONS
    }
    v, l, h, i, s = (
        axes["vocab_size"][:, None, None, None, None],
        axes["num_hidden_layers"][None, :, None, None, None],
        axes["hidden_size"][None, None, :, None, None],
        axes["intermediate_size"][None, None, None, :, None],
        axes["max_sequence_length"][None, None, None, None, :],
    )
    size = (
        4 * (v + s + 3) * h
        + 4 * (4 * h * h + (9 + 2 * i) * h + i) * l
        + 2 * h * h + 4 * h + 2
    )
    feasible = size <= budget_mb * MEGABYTE
    retained = {}
    for axis_index, name in enumerate(
        ["vocab_size", "num_hidden_layers", "hidden_size", "intermediate_size", "max_sequence_length"]
    ):
        reduce_axes = tuple(a for a in range(5) if a != axis_index)
        mask = feasible.any(axis=reduce_axes)
        retained[name] = [int(x) for x in axes[name][mask]]
    return retained


def scan_min_corner_sizes(space):
    """The per-value scan that bisection replaced, up to the budget test: per
    size-relevant dimension, every value with its min-corner size on the
    whole space. Kept apart from the budget so one scan serves many budgets."""
    return {
        name: [(v, min_corner_bytes(space, name, v)) for v in space.dimension(name).iter_values()]
        for name in SIZE_RELEVANT_DIMENSIONS
    }


def scan_prune(space, constraint, scanned):
    """Reference pruning: a value survives iff its min-corner size fits."""
    kept = {
        name: {v for v, size in pairs if constraint.admits(size)}
        for name, pairs in scanned.items()
    }
    dims = []
    for dim in space.dimensions:
        values = kept.get(dim.name)
        if values is None:
            dims.append(dim)
        elif not values:
            raise EmptyFeasibleSpaceError(f"{dim.name}: no value fits")
        elif dim.kind == INTEGER_RANGE:
            lower, upper = min(values), max(values)
            assert upper - lower + 1 == len(values), f"{dim.name}: survivors not contiguous"
            dims.append(Dimension(name=dim.name, kind=INTEGER_RANGE, lower=lower, upper=upper))
        else:
            dims.append(
                Dimension(
                    name=dim.name,
                    kind=dim.kind,
                    values=tuple(v for v in dim.values if v in values),
                )
            )
    return ConfigurationSpace(tuple(dims))


def assert_prune_matches_scan(space, budget_mb, scanned, partitions=1):
    constraint = SizeConstraint(budget_mb)
    try:
        expected = scan_prune(space, constraint, scanned)
    except EmptyFeasibleSpaceError:
        with pytest.raises(EmptyFeasibleSpaceError):
            prune(space, constraint, partitions=partitions)
        return
    assert prune(space, constraint, partitions=partitions) == expected, budget_mb


@pytest.fixture(scope="module")
def canonical_scan(canonical_space):
    return scan_min_corner_sizes(canonical_space)


# ``partitions`` has no effect on ``prune``; each case checks the kept keyword
# against the same whole-space scan.
@pytest.mark.parametrize("partitions", [1, 13])
def test_prune_equals_scan_over_budget_sweep(canonical_space, canonical_scan, partitions):
    budgets = [0.01 * 1.5**k for k in range(46)] + [3.0, 64.0, 1e6]  # 0.01 MB .. 1e6 MB
    for budget_mb in budgets:
        assert_prune_matches_scan(canonical_space, budget_mb, canonical_scan, partitions)


@pytest.mark.parametrize("partitions", [1, 13])
def test_prune_equals_scan_at_boundary_budgets(canonical_space, canonical_scan, partitions):
    # Budgets exactly at, one byte under and one byte over the min-corner size
    # of each dimension's ends and of its cutoffs at 0.1, 3 and 64 MB.
    boundary_bytes = set()
    for name in SIZE_RELEVANT_DIMENSIONS:
        dim = canonical_space.dimension(name)
        values = {dim.min_value(), dim.max_value()}
        for budget_mb in (0.1, 3.0, 64.0):
            pruned = scan_prune(canonical_space, SizeConstraint(budget_mb), canonical_scan)
            values.add(pruned.dimension(name).max_value())
        for value in values:
            size = min_corner_bytes(canonical_space, name, value)
            boundary_bytes.update((size - 1, size, size + 1))
    for size in sorted(boundary_bytes):
        assert_prune_matches_scan(canonical_space, size / MEGABYTE, canonical_scan, partitions)


# Narrow value ranges, so that every value of a small space can be scanned.
SMALL_SIZE_AXES = {
    "vocab_size": (100, 300),
    "num_hidden_layers": (1, 6),
    "hidden_size": (1, 64),
    "intermediate_size": (1, 128),
    "max_sequence_length": (1, 128),
}


@st.composite
def small_spaces_with_unsorted_sets(draw):
    """Small spaces whose size dimensions are integer ranges or discrete sets
    listed in a drawn order, mostly not ascending."""
    document = dict(MINI_SPACE_DOCUMENT)
    for name, (lo, hi) in SMALL_SIZE_AXES.items():
        values = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=6, unique=True))
        if draw(st.booleans()):
            document[name] = {"min": min(values), "max": max(values)}
        else:
            document[name] = draw(st.permutations(values))
    return space_from_mapping(document)


UNSORTED_EXAMPLE = space_from_mapping(
    {
        **MINI_SPACE_DOCUMENT,
        "vocab_size": [300, 100, 200],
        "hidden_size": [64, 8, 32, 16],
        "intermediate_size": [128, 1, 64],
        "max_sequence_length": {"min": 1, "max": 128},
    }
)


@given(space=small_spaces_with_unsorted_sets(), budget_fraction=st.floats(0.0, 1.2))
@example(space=UNSORTED_EXAMPLE, budget_fraction=0.4)
def test_prune_equals_scan_on_unsorted_discrete_sets(space, budget_fraction):
    max_corner = parameter_file_bytes(
        **{name: space.dimension(name).max_value() for name in SIZE_RELEVANT_DIMENSIONS}
    )
    budget_mb = max(1, int(budget_fraction * max_corner)) / MEGABYTE
    assert_prune_matches_scan(space, budget_mb, scan_min_corner_sizes(space))


@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_prune_equals_brute_force_on_downscaled_space(partitions):
    space = downscaled_space()
    budget = 0.35
    pruned = prune(space, SizeConstraint(budget), partitions=partitions)
    expected = brute_force_retained_values(space, budget)
    for name in SIZE_RELEVANT_DIMENSIONS:
        assert list(pruned.dimension(name).iter_values()) == expected[name], name
    # the budget actually bites in more than one dimension
    cut = [
        name
        for name in SIZE_RELEVANT_DIMENSIONS
        if pruned.dimension(name).size() < space.dimension(name).size()
    ]
    assert len(cut) >= 2


def test_prune_space_without_integer_range(tmp_path):
    """Every numeric dimension a value array: no integer range to split."""
    document = {
        **downscaled_space().to_document(),
        "num_hidden_layers": [1, 2, 3, 6, 12],
        "num_attention_heads": [1, 2, 4],
    }
    space = space_from_mapping(document)
    assert all(d.kind != INTEGER_RANGE for d in space.dimensions)
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(document))
    for budget in (0.1, 0.35, 1.0, 8.0):
        expected = brute_force_retained_values(space, budget)
        pruned = prune(space, SizeConstraint(budget))
        out = tmp_path / f"pruned_{budget}.json"
        assert main(
            ["prune", "--space", str(space_file), "--budget-mb", str(budget), "--out", str(out)]
        ) == EXIT_OK
        assert load_space(out) == pruned
        for name in SIZE_RELEVANT_DIMENSIONS:
            assert list(pruned.dimension(name).iter_values()) == expected[name], (budget, name)


@pytest.mark.parametrize("budget_mb, calls", [(3.0, 36), (64.0, 10)])
@pytest.mark.parametrize("partitions", [1, 13])
def test_prune_bisects_each_dimension_once(
    monkeypatch, canonical_space, budget_mb, calls, partitions
):
    """At most ceil(log2 n) + 2 min-corner sizes per size dimension of n
    values: both ends, then the bisection. The keyword changes nothing."""
    counted = []
    original = pruning.min_corner_bytes

    def counting(*args):
        counted.append(args)
        return original(*args)

    monkeypatch.setattr(pruning, "min_corner_bytes", counting)
    pruned = prune(canonical_space, SizeConstraint(budget_mb), partitions=partitions)
    bound = sum(
        math.ceil(math.log2(canonical_space.dimension(name).size())) + 2
        for name in SIZE_RELEVANT_DIMENSIONS
    )
    assert len(counted) == calls <= bound
    monkeypatch.undo()
    assert pruned == prune(canonical_space, SizeConstraint(budget_mb))


def test_prune_partition_invariance_full_space(canonical_space):
    results = [
        prune(canonical_space, SizeConstraint(3.0), partitions=k) for k in (1, 2, 13, 50)
    ]
    assert all(r == results[0] for r in results[1:])


def test_prune_full_space_known_bounds(canonical_space, pruned_space):
    vocab = pruned_space.dimension("vocab_size")
    hidden = pruned_space.dimension("hidden_size")
    assert vocab.upper < 50265  # the top of the vocabulary range cannot fit
    assert vocab.lower == 1000
    assert hidden.upper < 768
    # boundary witnesses: retained uppers fit, the next value would not
    budget_bytes = 3.0 * MEGABYTE
    for name in ("vocab_size", "hidden_size"):
        dim = pruned_space.dimension(name)
        assert min_corner_bytes(canonical_space, name, dim.upper) <= budget_bytes
        assert min_corner_bytes(canonical_space, name, dim.upper + 1) > budget_bytes
    # these dimensions survive whole
    for name in ("num_hidden_layers", "intermediate_size", "max_sequence_length"):
        assert pruned_space.dimension(name) == canonical_space.dimension(name)


def test_prune_leaves_non_size_dimensions_untouched(canonical_space, pruned_space):
    for name in (
        "tokenizer",
        "hidden_act",
        "hidden_dropout_prob",
        "num_attention_heads",
        "attention_probs_dropout_prob",
        "position_embedding_type",
        "learning_rate",
        "batch_size",
    ):
        assert pruned_space.dimension(name) == canonical_space.dimension(name)


def test_prune_with_huge_budget_is_identity(canonical_space):
    assert prune(canonical_space, SizeConstraint(1e6)) == canonical_space


def test_prune_empty_feasible_set(canonical_space):
    with pytest.raises(EmptyFeasibleSpaceError):
        prune(canonical_space, SizeConstraint(0.00001))


@pytest.mark.parametrize("name, bad_value", [("num_hidden_layers", 2), ("hidden_size", 32)])
def test_prune_raises_when_size_model_is_not_monotone(monkeypatch, name, bad_value):
    """The stub is flat (0 bytes) in every dimension but at bad_value, so the
    strict-increase check on the probed values names every flat dimension.
    That check sees only the values bisection probes: a spike at an unprobed
    interior value goes undetected at run time, and the exhaustive check of
    the real size model lives in test_size_model_strictly_increasing."""
    # Only bad_value exceeds the budget, so the feasible values are no prefix.
    def non_monotone_bytes(**dims):
        return 10 * MEGABYTE if dims[name] == bad_value else 0

    monkeypatch.setattr(pruning, "parameter_file_bytes", non_monotone_bytes)
    with pytest.raises(RuntimeError, match=name):
        prune(space_from_mapping(MINI_SPACE_DOCUMENT), SizeConstraint(3.0))


@pytest.mark.parametrize("name", SIZE_RELEVANT_DIMENSIONS)
def test_prune_raises_when_size_model_decreases(monkeypatch, canonical_space, name):
    def decreasing_in_name(**dims):
        return sum(v for d, v in dims.items() if d != name) - dims[name]

    monkeypatch.setattr(pruning, "parameter_file_bytes", decreasing_in_name)
    with pytest.raises(RuntimeError, match=name) as raised:
        prune(canonical_space, SizeConstraint(3.0))
    named = [d for d in SIZE_RELEVANT_DIMENSIONS if d in str(raised.value)]
    assert named == [name]


@pytest.mark.parametrize("name", SIZE_RELEVANT_DIMENSIONS)
def test_size_model_strictly_increasing(canonical_space, name):
    """Bisection relies on this and checks it only at the values it probes;
    here every value of the canonical range is checked at the min corner."""
    sizes = [
        min_corner_bytes(canonical_space, name, v)
        for v in canonical_space.dimension(name).iter_values()
    ]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_pruned_space_is_dimension_wise_subset(canonical_space, pruned_space):
    for old, new in zip(canonical_space.dimensions, pruned_space.dimensions):
        assert set(new.iter_values()) <= set(old.iter_values())


def test_prune_is_idempotent(canonical_space, pruned_space):
    assert prune(pruned_space, SizeConstraint(3.0)) == pruned_space


def test_min_corner_bytes_anchor(canonical_space):
    assert min_corner_bytes(canonical_space, "vocab_size", 1000) == 87_938


def test_size_constraint_validation():
    with pytest.raises(ValueError):
        SizeConstraint(0.0)
    with pytest.raises(ValueError):
        SizeConstraint(-1.0)
    with pytest.raises(ValueError, match="must be positive"):
        SizeConstraint(float("nan"))
    with pytest.raises(ValueError):
        prune(space_from_mapping(MINI_SPACE_DOCUMENT), SizeConstraint(1.0), partitions=0)


def test_prune_report_contents(canonical_space, pruned_space):
    report = prune_report(canonical_space, pruned_space, SizeConstraint(3.0))
    assert report.budget_mb == 3.0
    assert 0.0 < report.cardinality_ratio < 1.0
    by_name = {r.name: r for r in report.retention}
    assert by_name["vocab_size"].kept_count < by_name["vocab_size"].original_count
    assert by_name["batch_size"].kept_count == 3
    payload = report.as_dict()
    assert payload["pruned_cardinality"] == str(pruned_space.cardinality())
    assert "partitions" not in payload
