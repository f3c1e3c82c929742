"""Size-budget pruning of a configuration space.

A value of a size-relevant dimension survives iff at least one configuration
containing it fits the byte budget. The size model is strictly increasing in
each size-relevant dimension, so that minimum is attained at the all-minimum
corner of the remaining dimensions and the survivors are the values up to a
cutoff, found by bisection: O(log range) closed-form evaluations per
dimension, no solver needed. The space's all-minimum corner is sized once: if
it fits, some configuration does, and it is every bisection's lowest probe.
The sizes at the probed values must strictly increase with the value, else
``RuntimeError``; values between probes are not evaluated.
"""

from __future__ import annotations

import math

from .costs import MEGABYTE, SIZE_RELEVANT_DIMENSIONS, parameter_file_bytes, size_relevant
from .space import ConfigurationSpace, Dimension


class EmptyFeasibleSpaceError(ValueError):
    """No configuration in the space satisfies the size budget."""


class SizeConstraint:
    def __init__(self, budget_mb: float = 3.0):
        if not 0 < budget_mb < math.inf:  # NaN fails every comparison
            raise ValueError(f"budget_mb must be positive and finite, got {budget_mb}")
        self.budget_mb = budget_mb

    def admits(self, size_bytes: int) -> bool:
        # Exact-byte comparison; scaling by 2**20 is lossless in binary floats.
        return size_bytes <= self.budget_mb * MEGABYTE


def min_corner_bytes(space: ConfigurationSpace, dim_name: str | None = None, value=None) -> int:
    """Smallest achievable size (bytes) over the configurations of the space,
    or over those fixing dim=value."""
    corner = {dim.name: dim.min_value() for dim in size_relevant(space.dimensions)}
    if dim_name in corner:
        corner[dim_name] = value
    return parameter_file_bytes(**corner)


def feasible_min_corner_bytes(space: ConfigurationSpace, constraint: SizeConstraint) -> int:
    """The all-minimum corner's size in bytes, or :class:`EmptyFeasibleSpaceError`
    if it is over budget, as then no configuration fits."""
    corner_bytes = min_corner_bytes(space)
    if not constraint.admits(corner_bytes):
        raise EmptyFeasibleSpaceError(
            f"no configuration fits {constraint.budget_mb} MB; even the "
            f"all-minimum corner exceeds the budget"
        )
    return corner_bytes


def _cutoff(space: ConfigurationSpace, name: str, constraint: SizeConstraint, corner_bytes: int):
    """(cutoff, monotone): the largest value of the dimension whose min-corner
    size fits, by bisection over the ascending values with both ends probed,
    the lowest at ``corner_bytes``, the fitting all-minimum corner's size;
    monotone is whether the sizes at the probed values strictly increase with
    the value, as the bisection assumes."""
    dim = space.dimension(name)
    values = dim.domain if isinstance(dim.domain, range) else sorted(dim.domain)
    sizes = {0: corner_bytes}

    def fits(index: int) -> bool:
        if index not in sizes:
            sizes[index] = min_corner_bytes(space, name, values[index])
        return constraint.admits(sizes[index])

    lo, hi = 0, len(values) - 1
    if fits(hi):
        lo = hi
    while hi - lo > 1:  # values[lo] fits and values[hi] does not
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    probed = [sizes[index] for index in sorted(sizes)]
    return values[lo], all(a < b for a, b in zip(probed, probed[1:]))


def prune(
    space: ConfigurationSpace, constraint: SizeConstraint, partitions: int = 1
) -> ConfigurationSpace:
    """Drop every size-relevant value that cannot appear in any configuration
    within budget. Non-size dimensions pass through unchanged. Deterministic.

    ``partitions`` must be >= 1 and has no other effect: each dimension is
    bisected once on the whole space. The keyword stays because the
    acceptance tests and the benchmark runner pass it."""
    if partitions < 1:
        raise ValueError("partition count must be >= 1")
    corner_bytes = feasible_min_corner_bytes(space, constraint)
    cutoffs, not_monotone = {}, []
    for name in SIZE_RELEVANT_DIMENSIONS:
        cutoffs[name], monotone = _cutoff(space, name, constraint, corner_bytes)
        if not monotone:
            not_monotone.append(name)
    if not_monotone:
        raise RuntimeError(f"size model not strictly increasing in {', '.join(not_monotone)}")

    new_dims = []
    for dim in space.dimensions:
        cutoff = cutoffs.get(dim.name)
        if cutoff is None:
            new_dims.append(dim)
        elif isinstance(dim.domain, range):
            new_dims.append(Dimension(dim.name, range(dim.domain.start, cutoff + 1)))
        else:
            new_dims.append(Dimension(dim.name, tuple(v for v in dim.domain if v <= cutoff)))
    return ConfigurationSpace(tuple(new_dims))


def _describe(dim: Dimension) -> str:
    if isinstance(dim.domain, range):
        return f"[{dim.domain.start}, {dim.domain[-1]}]"
    return "{" + ", ".join(map(str, dim.domain)) + "}"


def prune_report(
    original: ConfigurationSpace,
    pruned: ConfigurationSpace,
    constraint: SizeConstraint,
) -> dict:
    """The report ``prune`` writes beside the pruned space: the budget, both
    cardinalities (as strings, since they exceed a double's exact range),
    their ratio, and each dimension's value counts and retained values."""
    original_cardinality = original.cardinality()
    pruned_cardinality = pruned.cardinality()
    return {
        "budget_mb": constraint.budget_mb,
        "original_cardinality": str(original_cardinality),
        "pruned_cardinality": str(pruned_cardinality),
        "cardinality_ratio": pruned_cardinality / original_cardinality,
        "dimensions": [
            {
                "name": old.name,
                "original_count": old.size(),
                "kept_count": new.size(),
                "retained": _describe(new),
            }
            for old, new in zip(original.dimensions, pruned.dimensions)
        ],
    }
