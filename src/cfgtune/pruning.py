"""Size-budget pruning of a configuration space.

A value of a size-relevant dimension survives iff at least one configuration
containing it fits the byte budget. The size model is strictly increasing in
each size-relevant dimension, so that minimum is attained at the all-minimum
corner of the remaining dimensions and the survivors are the values up to a
cutoff, found by bisection: O(log range) closed-form evaluations per
dimension, no solver needed. The sizes at the probed values must strictly
increase with the value, else ``RuntimeError``; values between probes are not
evaluated. Each dimension is bisected once, on the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .costs import MEGABYTE, SIZE_RELEVANT_DIMENSIONS, parameter_file_bytes
from .space import (
    DISCRETE_NUMERIC_SET,
    INTEGER_RANGE,
    ConfigurationSpace,
    Dimension,
)


class EmptyFeasibleSpaceError(ValueError):
    """No configuration in the space satisfies the size budget."""


@dataclass(frozen=True)
class SizeConstraint:
    budget_mb: float = 3.0

    def __post_init__(self):
        if not self.budget_mb > 0:  # NaN fails every comparison
            raise ValueError(f"budget_mb must be positive, got {self.budget_mb}")

    def admits(self, size_bytes: int) -> bool:
        # Exact-byte comparison; scaling by 2**20 is lossless in binary floats.
        return size_bytes <= self.budget_mb * MEGABYTE


def min_corner_bytes(space: ConfigurationSpace, dim_name: str, value) -> int:
    """Smallest achievable size (bytes) over configurations fixing dim=value."""
    corner = {
        name: space.dimension(name).min_value() for name in SIZE_RELEVANT_DIMENSIONS
    }
    if dim_name in corner:
        corner[dim_name] = value
    return parameter_file_bytes(
        vocab_size=corner["vocab_size"],
        num_hidden_layers=corner["num_hidden_layers"],
        hidden_size=corner["hidden_size"],
        intermediate_size=corner["intermediate_size"],
        max_sequence_length=corner["max_sequence_length"],
    )


def _cutoff(space: ConfigurationSpace, name: str, constraint: SizeConstraint):
    """(cutoff, monotone): the largest value of the dimension whose min-corner
    size fits (None if none does), by bisection over the ascending values with
    both ends always probed; monotone is whether the sizes at the probed
    values strictly increase with the value, as the bisection assumes."""
    dim = space.dimension(name)
    values = dim.iter_values() if dim.kind == INTEGER_RANGE else sorted(dim.values)
    sizes: dict[int, int] = {}

    def fits(index: int) -> bool:
        if index not in sizes:
            sizes[index] = min_corner_bytes(space, name, values[index])
        return constraint.admits(sizes[index])

    lo, hi = 0, len(values) - 1
    top_fits = fits(hi)
    if not fits(lo):
        cutoff = None
    elif top_fits:
        cutoff = values[hi]
    else:
        # Invariant: values[lo] fits and values[hi] does not.
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        cutoff = values[lo]
    probed = [sizes[index] for index in sorted(sizes)]
    return cutoff, all(a < b for a, b in zip(probed, probed[1:]))


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
    cutoffs, not_monotone = {}, []
    for name in SIZE_RELEVANT_DIMENSIONS:
        cutoffs[name], monotone = _cutoff(space, name, constraint)
        if not monotone:
            not_monotone.append(name)
    if not_monotone:
        raise RuntimeError(f"size model not strictly increasing in {', '.join(not_monotone)}")
    if None in cutoffs.values():
        raise EmptyFeasibleSpaceError(
            f"no configuration fits {constraint.budget_mb} MB; even the "
            f"all-minimum corner exceeds the budget"
        )

    new_dims = []
    for dim in space.dimensions:
        cutoff = cutoffs.get(dim.name)
        if cutoff is None:
            new_dims.append(dim)
        elif dim.kind == INTEGER_RANGE:
            new_dims.append(replace(dim, upper=cutoff))
        else:
            new_dims.append(replace(dim, values=tuple(v for v in dim.values if v <= cutoff)))
    return ConfigurationSpace(tuple(new_dims))


@dataclass(frozen=True)
class DimensionRetention:
    name: str
    original_count: int
    kept_count: int
    retained: str


@dataclass(frozen=True)
class PruneReport:
    budget_mb: float
    original_cardinality: int
    pruned_cardinality: int
    retention: tuple[DimensionRetention, ...]

    @property
    def cardinality_ratio(self) -> float:
        return self.pruned_cardinality / self.original_cardinality

    def as_dict(self) -> dict:
        return {
            "budget_mb": self.budget_mb,
            "original_cardinality": str(self.original_cardinality),
            "pruned_cardinality": str(self.pruned_cardinality),
            "cardinality_ratio": self.cardinality_ratio,
            "dimensions": [
                {
                    "name": r.name,
                    "original_count": r.original_count,
                    "kept_count": r.kept_count,
                    "retained": r.retained,
                }
                for r in self.retention
            ],
        }


def _describe(dim: Dimension) -> str:
    if dim.kind == INTEGER_RANGE:
        return f"[{dim.lower}, {dim.upper}]"
    if dim.kind == DISCRETE_NUMERIC_SET:
        return "{" + ", ".join(str(v) for v in dim.values) + "}"
    return "{" + ", ".join(dim.options) + "}"


def prune_report(
    original: ConfigurationSpace,
    pruned: ConfigurationSpace,
    constraint: SizeConstraint,
) -> PruneReport:
    retention = tuple(
        DimensionRetention(
            name=old.name,
            original_count=old.size(),
            kept_count=new.size(),
            retained=_describe(new),
        )
        for old, new in zip(original.dimensions, pruned.dimensions)
    )
    return PruneReport(
        budget_mb=constraint.budget_mb,
        original_cardinality=original.cardinality(),
        pruned_cardinality=pruned.cardinality(),
        retention=retention,
    )
