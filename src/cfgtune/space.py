"""Declarative model-configuration space: dimensions, validation, encoding, sampling.

The space is a flat product of 13 tunable settings of an encoder-style
transformer (tokenizer choice, vocabulary size, depth, widths, dropout rates,
sequence length, embedding type, and two training knobs). Spaces are loaded
from JSON documents, configurations are validated against them, and every
configuration can be encoded to a 13-component numeric vector for distance
computations and regression.

Inside the search a configuration is a *genome*: a 13-tuple holding, per
dimension, the index of its value in the dimension's ``domain``. Sampling,
repair and encoding work on genomes; a :class:`Configuration` is built from
one by :meth:`ConfigurationSpace.configuration` only where its values are
needed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import random
from dataclasses import dataclass

CANONICAL_DIMENSIONS = (
    "tokenizer",
    "vocab_size",
    "num_hidden_layers",
    "hidden_size",
    "hidden_act",
    "hidden_dropout_prob",
    "intermediate_size",
    "num_attention_heads",
    "attention_probs_dropout_prob",
    "max_sequence_length",
    "position_embedding_type",
    "learning_rate",
    "batch_size",
)

# Dimensions whose values are strings; everything else is numeric.
CATEGORICAL_DIMENSIONS = frozenset(
    {"tokenizer", "hidden_act", "position_embedding_type"}
)

# Dimensions that count something, so every value is a positive integer.
INTEGER_DIMENSIONS = frozenset(
    {
        "vocab_size",
        "num_hidden_layers",
        "hidden_size",
        "intermediate_size",
        "num_attention_heads",
        "max_sequence_length",
        "batch_size",
    }
)

# Genome positions of the two dimensions tied by divisibility.
_HIDDEN = CANONICAL_DIMENSIONS.index("hidden_size")
_HEADS = CANONICAL_DIMENSIONS.index("num_attention_heads")

Genome = tuple[int, ...]

INTEGER_RANGE = "integer_range"
DISCRETE_NUMERIC_SET = "discrete_numeric_set"
CATEGORICAL = "categorical"


class SpaceFormatError(ValueError):
    """A space document is malformed. ``dimension`` names the offending entry."""

    def __init__(self, message: str, dimension: str | None = None):
        super().__init__(message)
        self.dimension = dimension


class UnsatisfiableSpaceError(ValueError):
    """No (hidden_size, num_attention_heads) pair in the space is valid."""


@dataclass(frozen=True)
class Dimension:
    """One tunable setting: an inclusive integer range, a fixed set of numbers,
    or a list of named options. Option/value order is fixed and defines the
    index of each entry.

    ``domain[i]`` is the value at index i; for an integer range it is a
    ``range``, so no table grows with the range. ``lo`` and ``hi`` bound the
    encoding component: the value itself, or the option index for a
    categorical dimension."""

    name: str
    kind: str
    lower: int = 0
    upper: int = 0
    values: tuple = ()
    options: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == INTEGER_RANGE:
            if self.lower > self.upper:
                raise SpaceFormatError(
                    f"{self.name}: range lower bound {self.lower} exceeds upper "
                    f"bound {self.upper}",
                    dimension=self.name,
                )
            domain, lo, hi = range(self.lower, self.upper + 1), self.lower, self.upper
        elif self.kind == DISCRETE_NUMERIC_SET:
            if not self.values:
                raise SpaceFormatError(
                    f"{self.name}: empty value set", dimension=self.name
                )
            if len(set(self.values)) != len(self.values):
                raise SpaceFormatError(
                    f"{self.name}: duplicate values", dimension=self.name
                )
            domain, lo, hi = self.values, min(self.values), max(self.values)
        elif self.kind == CATEGORICAL:
            if not self.options:
                raise SpaceFormatError(
                    f"{self.name}: empty option list", dimension=self.name
                )
            if len(set(self.options)) != len(self.options):
                raise SpaceFormatError(
                    f"{self.name}: duplicate options", dimension=self.name
                )
            domain, lo, hi = self.options, 0, len(self.options) - 1
        else:
            raise SpaceFormatError(
                f"{self.name}: unknown dimension kind {self.kind!r}",
                dimension=self.name,
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "lo", float(lo))
        object.__setattr__(self, "hi", float(hi))

    def size(self) -> int:
        return len(self.domain)

    def contains(self, value) -> bool:
        if self.kind == INTEGER_RANGE:
            return isinstance(value, int) and not isinstance(value, bool) and (
                self.lower <= value <= self.upper
            )
        if self.kind == DISCRETE_NUMERIC_SET:
            return value in self.values
        return value in self.options

    def iter_values(self):
        """The values in index order."""
        return self.domain

    def index(self, value) -> int:
        if not self.contains(value):
            raise ValueError(f"{self.name}: value {value!r} not in dimension")
        if self.kind == INTEGER_RANGE:
            return value - self.lower
        return self.domain.index(value)

    def min_value(self):
        if self.kind == INTEGER_RANGE:
            return self.lower
        if self.kind == DISCRETE_NUMERIC_SET:
            return min(self.values)
        raise TypeError(f"{self.name} is categorical; it has no numeric minimum")

    def max_value(self):
        if self.kind == INTEGER_RANGE:
            return self.upper
        if self.kind == DISCRETE_NUMERIC_SET:
            return max(self.values)
        raise TypeError(f"{self.name} is categorical; it has no numeric maximum")

    def to_entry(self):
        """Entry in the JSON document form."""
        if self.kind == INTEGER_RANGE:
            return {"min": self.lower, "max": self.upper}
        if self.kind == DISCRETE_NUMERIC_SET:
            return list(self.values)
        return list(self.options)


@dataclass(frozen=True)
class Configuration:
    """One concrete assignment of all 13 dimensions."""

    tokenizer: str
    vocab_size: int
    num_hidden_layers: int
    hidden_size: int
    hidden_act: str
    hidden_dropout_prob: float
    intermediate_size: int
    num_attention_heads: int
    attention_probs_dropout_prob: float
    max_sequence_length: int
    position_embedding_type: str
    learning_rate: float
    batch_size: int

    def value(self, dimension_name: str):
        return getattr(self, dimension_name)

    def replace(self, **changes) -> "Configuration":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CANONICAL_DIMENSIONS}

    @classmethod
    def from_dict(cls, mapping: dict) -> "Configuration":
        missing = [name for name in CANONICAL_DIMENSIONS if name not in mapping]
        if missing:
            raise ValueError(f"configuration missing fields: {', '.join(missing)}")
        return cls(**{name: mapping[name] for name in CANONICAL_DIMENSIONS})


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class ConfigurationSpace:
    """The 13 dimensions in canonical order, with encoding and sampling."""

    dimensions: tuple[Dimension, ...]

    def __post_init__(self):
        names = tuple(d.name for d in self.dimensions)
        if names != CANONICAL_DIMENSIONS:
            raise SpaceFormatError(
                "dimensions must be exactly the 13 canonical entries in canonical "
                f"order; got {names}"
            )

    # Built on first use, so spaces that are only pruned never pay for them.
    @functools.cached_property
    def _codec(self) -> tuple:
        """Per dimension: the sequence whose index-th entry is the raw
        encoding component, its lower bound, and its span (None for a
        single-valued dimension, which encodes to 0)."""
        return tuple(
            (
                range(dim.size()) if dim.kind == CATEGORICAL else dim.domain,
                dim.lo,
                dim.hi - dim.lo if dim.hi > dim.lo else None,
            )
            for dim in self.dimensions
        )

    @functools.cached_property
    def _domains(self) -> tuple:
        return tuple(dim.domain for dim in self.dimensions)

    @functools.cached_property
    def _head_divisors(self) -> dict[int, tuple[int, ...]]:
        """hidden_size value -> in-range head indices dividing it; see
        :func:`correct`."""
        return {}

    def dimension(self, name: str) -> Dimension:
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise KeyError(f"unknown dimension {name!r}")

    def cardinality(self) -> int:
        """Exact number of distinct configurations (arbitrary-precision)."""
        product = 1
        for dim in self.dimensions:
            product *= dim.size()
        return product

    def validate(self, config: Configuration) -> ValidationResult:
        violations = []
        for dim in self.dimensions:
            value = config.value(dim.name)
            if not dim.contains(value):
                violations.append(f"{dim.name}: value {value!r} not in dimension")
        heads = config.num_attention_heads
        if not isinstance(heads, int) or heads < 1 or config.hidden_size % heads != 0:
            violations.append(
                f"hidden_size {config.hidden_size} not divisible by "
                f"num_attention_heads {heads}"
            )
        return ValidationResult(valid=not violations, violations=tuple(violations))

    def genome(self, config: Configuration) -> Genome:
        """The index of each value of ``config`` in its dimension."""
        return tuple(dim.index(config.value(dim.name)) for dim in self.dimensions)

    def configuration(self, genome: Genome) -> Configuration:
        return Configuration(*map(operator.getitem, self._domains, genome))

    def encode(self, config: Configuration, normalize: bool = False) -> tuple[float, ...]:
        """13-component numeric vector; categorical values become option indices.

        With ``normalize`` each component is mapped affinely onto [0, 1] using
        the dimension bounds (single-valued dimensions map to 0).
        """
        result = self.validate(config)
        if not result:
            raise ValueError(f"cannot encode invalid configuration: {result.violations}")
        return self.encode_genome(self.genome(config), normalize)

    def encode_genome(self, genome: Genome, normalize: bool = False) -> tuple[float, ...]:
        """:meth:`encode` of the genome's configuration, without validating."""
        if normalize:
            return tuple([
                (float(components[i]) - lo) / span if span else 0.0
                for (components, lo, span), i in zip(self._codec, genome)
            ])
        return tuple([float(components[i]) for (components, _, _), i in zip(self._codec, genome)])

    def sample_genome(self, rng: random.Random) -> Genome:
        """One index per dimension, each drawn uniformly in canonical order,
        then repaired by :func:`correct`."""
        randrange = rng.randrange
        return correct(tuple([randrange(len(domain)) for domain in self._domains]), self, rng)

    def sample_uniform(self, n: int, seed: int) -> list[Configuration]:
        """n valid configurations from :meth:`sample_genome`. Deterministic
        per seed."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = random.Random(seed)
        return [self.configuration(self.sample_genome(rng)) for _ in range(n)]

    def to_document(self) -> dict:
        return {dim.name: dim.to_entry() for dim in self.dimensions}

    def checksum(self) -> str:
        canonical = json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _dimension_from_entry(name: str, entry) -> Dimension:
    if name in CATEGORICAL_DIMENSIONS:
        if not isinstance(entry, list) or not entry or not all(
            isinstance(x, str) for x in entry
        ):
            raise SpaceFormatError(
                f"{name}: expected a non-empty array of option strings",
                dimension=name,
            )
        return Dimension(name=name, kind=CATEGORICAL, options=tuple(entry))
    if isinstance(entry, dict):
        if set(entry) != {"min", "max"}:
            raise SpaceFormatError(
                f"{name}: range object must have exactly 'min' and 'max'",
                dimension=name,
            )
        lower, upper = entry["min"], entry["max"]
        if not _is_int(lower) or not _is_int(upper):
            raise SpaceFormatError(
                f"{name}: range bounds must be integers", dimension=name
            )
        if name in INTEGER_DIMENSIONS and lower < 1:
            raise SpaceFormatError(
                f"{name}: values must be positive integers", dimension=name
            )
        return Dimension(name=name, kind=INTEGER_RANGE, lower=lower, upper=upper)
    if isinstance(entry, list):
        if not entry or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
        ):
            raise SpaceFormatError(
                f"{name}: expected a non-empty array of numbers", dimension=name
            )
        if name in INTEGER_DIMENSIONS and not all(_is_int(x) and x >= 1 for x in entry):
            raise SpaceFormatError(
                f"{name}: values must be positive integers", dimension=name
            )
        return Dimension(name=name, kind=DISCRETE_NUMERIC_SET, values=tuple(entry))
    raise SpaceFormatError(
        f"{name}: entry must be a range object or an array", dimension=name
    )


def space_from_mapping(document: dict) -> ConfigurationSpace:
    """Build a space from a parsed JSON object; key order in the document is
    irrelevant, the canonical dimension order governs."""
    if not isinstance(document, dict):
        raise SpaceFormatError("space document must be a JSON object")
    unknown = set(document) - set(CANONICAL_DIMENSIONS)
    if unknown:
        name = sorted(unknown)[0]
        raise SpaceFormatError(f"unknown dimension {name!r}", dimension=name)
    missing = [name for name in CANONICAL_DIMENSIONS if name not in document]
    if missing:
        raise SpaceFormatError(
            f"missing dimension {missing[0]!r}", dimension=missing[0]
        )
    dims = tuple(
        _dimension_from_entry(name, document[name]) for name in CANONICAL_DIMENSIONS
    )
    return ConfigurationSpace(dims)


def parse_space(text: str) -> ConfigurationSpace:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpaceFormatError(f"space document is not valid JSON: {err}") from err
    return space_from_mapping(document)


def load_space(path) -> ConfigurationSpace:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_space(handle.read())


@contextlib.contextmanager
def atomic_open(path):
    """Text handle on a temporary file beside ``path`` that replaces ``path``
    by ``os.replace`` when the block succeeds and is removed when it raises,
    so ``path`` holds either its previous content or the whole new one."""
    path = os.fspath(path)
    temporary = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def save_space(space: ConfigurationSpace, path) -> None:
    with atomic_open(path) as handle:
        json.dump(space.to_document(), handle, indent=2)
        handle.write("\n")


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _heads_dividing(space: ConfigurationSpace, hidden: int) -> tuple[int, ...]:
    """Indices of the in-range head counts that divide ``hidden``, in
    :func:`_divisors` order; cached per hidden size on first use."""
    indices = space._head_divisors.get(hidden)
    if indices is None:
        heads_dim = space.dimensions[_HEADS]
        indices = tuple(heads_dim.index(d) for d in _divisors(hidden) if heads_dim.contains(d))
        space._head_divisors[hidden] = indices
    return indices


def correct(genome: Genome, space: ConfigurationSpace, rng: random.Random) -> Genome:
    """Repair a genome so its configuration satisfies
    :meth:`ConfigurationSpace.validate`.

    If hidden_size is not divisible by the head count, the head count is
    redrawn uniformly from the in-range divisors of hidden_size; when no
    divisor is in range, hidden_size itself is first redrawn as a multiple of
    a uniformly drawn in-range head count that has a multiple in range. A
    genome that needs no repair is returned as the same object.
    """
    hidden_dim = space.dimensions[_HIDDEN]
    hidden = hidden_dim.domain[genome[_HIDDEN]]
    if hidden % space.dimensions[_HEADS].domain[genome[_HEADS]] == 0:
        return genome
    divisors = _heads_dividing(space, hidden)
    if not divisors:
        heads = space.dimensions[_HEADS].domain
        head_choices = [i for i, h in enumerate(heads) if _has_multiple_in(hidden_dim, h)]
        if not head_choices:
            raise UnsatisfiableSpaceError(
                "no hidden_size in range is divisible by any in-range head count"
            )
        hidden_index = _sample_multiple(hidden_dim, heads[rng.choice(head_choices)], rng)
        genome = genome[:_HIDDEN] + (hidden_index,) + genome[_HIDDEN + 1:]
        divisors = _heads_dividing(space, hidden_dim.domain[hidden_index])
    return genome[:_HEADS] + (rng.choice(divisors),) + genome[_HEADS + 1:]


def _has_multiple_in(dim: Dimension, factor: int) -> bool:
    if dim.kind == INTEGER_RANGE:
        return (dim.lower + factor - 1) // factor * factor <= dim.upper
    return any(v % factor == 0 for v in dim.values)


def _sample_multiple(dim: Dimension, factor: int, rng: random.Random) -> int:
    """Index of a uniformly drawn multiple of ``factor`` in the dimension."""
    if dim.kind == INTEGER_RANGE:
        first = (dim.lower + factor - 1) // factor
        last = dim.upper // factor
        return factor * rng.randint(first, last) - dim.lower
    return rng.choice([i for i, v in enumerate(dim.values) if v % factor == 0])
