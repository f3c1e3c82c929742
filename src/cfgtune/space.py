"""Declarative model-configuration space: dimensions, validation, encoding, sampling.

The space is a flat product of 13 tunable settings of an encoder-style
transformer (tokenizer choice, vocabulary size, depth, widths, dropout rates,
sequence length, embedding type, and two training knobs). Spaces are loaded
from JSON documents, configurations are validated against them, and every
configuration can be encoded to a 13-component numeric vector for distance
computations and regression.

A dimension is its domain: a ``range`` of integers, a tuple of numbers or a
tuple of option strings, whose order fixes each value's index. Inside the
search a configuration is a *genome*: a 13-tuple holding, per dimension, the
index of its value in the dimension's domain. Sampling, repair and encoding
work on genomes, and sampling and repair draw every index by :func:`below`.
A :class:`Configuration`, a named tuple of the values, is built from one by
:meth:`ConfigurationSpace.configuration` only where its values are needed: in
``tune``, for an oracle or callable indicator when a genome is first scored,
and for the members of the final archive. The cost models
(:func:`cfgtune.costs.genome_costs`) and a fitted surrogate
(:meth:`cfgtune.surrogate.SurrogateModel.genome_predictor`) read the genome's
indices instead.

The package's artifacts are written by :func:`write_json` and
:func:`write_jsonl` alone, which raise ``ValueError`` on a NaN or an infinity
before the artifact is replaced, and a number read from a file passes
:func:`is_json_number`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import random
import sys
from typing import NamedTuple


class Configuration(NamedTuple):
    """One concrete assignment of all 13 dimensions: a tuple of their values
    in canonical order, whose field names are :data:`CANONICAL_DIMENSIONS`."""

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

    def as_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, mapping: dict) -> "Configuration":
        missing = [name for name in CANONICAL_DIMENSIONS if name not in mapping]
        if missing:
            raise ValueError(f"configuration missing fields: {', '.join(missing)}")
        return cls(**{name: mapping[name] for name in CANONICAL_DIMENSIONS})


CANONICAL_DIMENSIONS = Configuration._fields

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


class SpaceFormatError(ValueError):
    """A space document or a :class:`Dimension` breaks a rule. ``dimension``
    names the offending entry."""

    def __init__(self, message: str, dimension: str | None = None):
        super().__init__(message)
        self.dimension = dimension


class UnsatisfiableSpaceError(ValueError):
    """No (hidden_size, num_attention_heads) pair in the space is valid."""


class Dimension:
    """One tunable setting, given by its domain: ``domain[i]`` is the value
    at index i, and that order is fixed. The domain is a ``range`` with step
    1 (an integer range; no table grows with it) or a tuple, and its name
    decides what it holds, whether it is read from a space document or built
    in Python: option strings for the :data:`CATEGORICAL_DIMENSIONS` (its
    ``options``; ``options`` is ``()`` otherwise), positive ints for the
    :data:`INTEGER_DIMENSIONS`, and numbers that pass
    :func:`is_json_number` for the rest. No domain is empty or repeats a
    value. A domain that breaks a rule raises :class:`SpaceFormatError`
    naming the dimension. ``lo`` and ``hi`` bound the encoding component,
    the value itself or the option index for a categorical dimension. Two
    dimensions are equal when their name and domain are."""

    def __init__(self, name: str, domain):
        # A range is checked by its two ends, never by scanning its values.
        checked = (domain[0], domain[-1]) if isinstance(domain, range) and domain else domain
        if name in CATEGORICAL_DIMENSIONS:
            if not domain or not all(isinstance(v, str) for v in domain):
                raise SpaceFormatError(
                    f"{name}: expected a non-empty array of option strings", dimension=name
                )
            lo, hi = 0, len(domain) - 1
        elif not domain or not all(map(is_json_number, checked)):
            raise SpaceFormatError(
                f"{name}: expected a non-empty array of finite numbers", dimension=name
            )
        elif isinstance(domain, range) and (domain[-1] - domain[0]) // domain.step >= sys.maxsize:
            # len(domain) - 1 >= sys.maxsize: len() would overflow
            raise SpaceFormatError(f"{name}: range has too many values to index", dimension=name)
        else:
            lo, hi = min(checked), max(checked)
            if name in INTEGER_DIMENSIONS and (lo < 1 or not all(isinstance(v, int) for v in checked)):
                raise SpaceFormatError(f"{name}: values must be positive integers", dimension=name)
        if isinstance(domain, range):
            if domain.step != 1:
                raise SpaceFormatError(f"{name}: an integer range has step 1", dimension=name)
        elif len(set(domain)) != len(domain):
            raise SpaceFormatError(f"{name}: duplicate values", dimension=name)
        self.name, self.domain = name, domain
        self.options = domain if name in CATEGORICAL_DIMENSIONS else ()
        self._min, self._max, self.lo, self.hi = lo, hi, float(lo), float(hi)
        # A counted value must be an int, as its domain's values are.
        self._integral = isinstance(domain, range) or name in INTEGER_DIMENSIONS

    def __eq__(self, other):
        if type(other) is not Dimension:
            return NotImplemented
        return (self.name, self.domain) == (other.name, other.domain)

    def size(self) -> int:
        return len(self.domain)

    def contains(self, value) -> bool:
        # 2.0 == 2 and True == 1, but a bool is no dimension's value and a
        # float no value of a counting dimension or an integer range.
        if isinstance(value, bool) or (self._integral and not isinstance(value, int)):
            return False
        return value in self.domain

    def iter_values(self):
        """The values in index order."""
        return self.domain

    def index(self, value) -> int:
        if not self.contains(value):
            raise ValueError(f"{self.name}: value {value!r} not in dimension")
        return self.domain.index(value)

    def min_value(self):
        if self.options:
            raise TypeError(f"{self.name} is categorical; it has no numeric minimum")
        return self._min

    def max_value(self):
        if self.options:
            raise TypeError(f"{self.name} is categorical; it has no numeric maximum")
        return self._max

    def to_entry(self):
        """Entry in the JSON document form."""
        if isinstance(self.domain, range):
            return {"min": self._min, "max": self._max}
        return list(self.domain)


class ValidationResult(NamedTuple):
    valid: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


class ConfigurationSpace:
    """The 13 dimensions in canonical order, with encoding and sampling. Two
    spaces are equal when their dimensions are."""

    def __init__(self, dimensions: tuple[Dimension, ...]):
        names = tuple(d.name for d in dimensions)
        if names != CANONICAL_DIMENSIONS:
            raise SpaceFormatError(
                "dimensions must be exactly the 13 canonical entries in canonical "
                f"order; got {names}"
            )
        self.dimensions = dimensions
        # hidden_size value -> in-range head indices dividing it; see correct.
        self._head_divisors: dict[int, tuple[int, ...]] = {}

    def __eq__(self, other):
        if type(other) is not ConfigurationSpace:
            return NotImplemented
        return self.dimensions == other.dimensions

    # Built on first use, so spaces that are only pruned never pay for them.
    @functools.cached_property
    def _codec(self) -> tuple:
        """Per dimension: the sequence whose index-th entry is the raw
        encoding component, its lower bound, and its span."""
        return tuple(
            (range(dim.size()) if dim.options else dim.domain, dim.lo, dim.hi - dim.lo)
            for dim in self.dimensions
        )

    @functools.cached_property
    def _domains(self) -> tuple:
        return tuple(dim.domain for dim in self.dimensions)

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
        for dim, value in zip(self.dimensions, config):
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
        return tuple(map(Dimension.index, self.dimensions, config))

    def configuration(self, genome: Genome) -> Configuration:
        return Configuration(*map(operator.getitem, self._domains, genome))

    def encode(self, config: Configuration) -> tuple[float, ...]:
        """13-component numeric vector; categorical values become option indices."""
        result = self.validate(config)
        if not result:
            raise ValueError(f"cannot encode invalid configuration: {result.violations}")
        return self.encode_genome(self.genome(config))

    def encode_genome(self, genome: Genome, normalize: bool = False) -> tuple[float, ...]:
        """:meth:`encode` of the genome's configuration, without validating.

        With ``normalize`` each component is mapped by :func:`scale` onto
        [0, 1] using the dimension bounds (single-valued dimensions map to 0).
        """
        if normalize:
            return tuple([
                scale(float(components[i]), lo, span)
                for (components, lo, span), i in zip(self._codec, genome)
            ])
        return tuple([float(components[i]) for (components, _, _), i in zip(self._codec, genome)])

    def sample_genome(self, rng: random.Random) -> Genome:
        """One index per dimension, each drawn uniformly in canonical order
        by :func:`below`, then repaired by :func:`correct`."""
        bits = rng.getrandbits
        return correct(tuple([below(bits, len(domain)) for domain in self._domains]), self, rng)

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
        return sha256(canonical.encode("utf-8")).hexdigest()


def sha256(data: bytes):
    """SHA-256 hash object of ``data`` from the interpreter's own module
    (``_sha256`` on CPython 3.10-3.11, ``_sha2`` on 3.12+), as ``random``
    takes its SHA-512. The standard library's hash module loads OpenSSL's
    libcrypto into the process, about 3.6 MB of RSS, so it is only the last
    resort: every digest is the same SHA-256."""
    try:
        from _sha256 import sha256 as new
    except ImportError:
        try:
            from _sha2 import sha256 as new
        except ImportError:
            from hashlib import sha256 as new
    return new(data)


def below(getrandbits, n: int) -> int:
    """What ``randrange`` draws for ``n >= 1``, from ``getrandbits =
    rng.getrandbits``: the same draws as CPython 3.10-3.13, without its two
    Python frames (``tests/test_tuner.py`` pins it to the running
    interpreter). ``choice`` picks ``seq[below(bits, len(seq))]``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def scale(x: float, lo: float, span: float) -> float:
    """The min-max map of ``x`` onto [0, 1] for a feature whose values run
    from ``lo`` over ``span``; a feature that does not vary (span 0.0) maps
    to 0.0. The normalized encoding, the surrogate's fit and predictions and
    the synthetic oracle's ramps all use it."""
    return (x - lo) / span if span > 0 else 0.0


def is_json_number(value) -> bool:
    """The one rule for a number read from a file: an int or a float, not a
    bool (an int subclass), and finite as a float. NaN and infinity parse as
    JSON here but are no JSON numbers; an integer too large for a float would
    overflow in the first float computation it enters."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _dimension_from_entry(name: str, entry) -> Dimension:
    """The dimension a space document's entry describes: an array is read as
    a tuple and a range object as a ``range``. Only the JSON shape is checked
    here; :class:`Dimension` checks the values."""
    if isinstance(entry, list) or name in CATEGORICAL_DIMENSIONS:
        # A categorical entry that is no array holds no option strings.
        return Dimension(name, tuple(entry) if isinstance(entry, list) else ())
    if not isinstance(entry, dict):
        raise SpaceFormatError(f"{name}: entry must be a range object or an array", dimension=name)
    if set(entry) != {"min", "max"}:
        raise SpaceFormatError(
            f"{name}: range object must have exactly 'min' and 'max'", dimension=name
        )
    lower, upper = entry["min"], entry["max"]
    if not all(isinstance(bound, int) and is_json_number(bound) for bound in (lower, upper)):
        raise SpaceFormatError(
            f"{name}: range bounds must be integers that fit a float", dimension=name
        )
    if lower > upper:
        raise SpaceFormatError(f"{name}: range min {lower} exceeds max {upper}", dimension=name)
    return Dimension(name, range(lower, upper + 1))


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
    except BaseException as err:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        if isinstance(err, OSError) and err.filename == temporary:
            # open or os.replace failed: name the path asked for, not the temporary file
            raise OSError(err.errno, err.strerror, path) from None
        raise


def write_json(path, document) -> None:
    """An artifact that is one JSON document: indented by 2, then a newline."""
    with atomic_open(path) as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")


def write_jsonl(path, records) -> None:
    """An artifact of records: one JSON object per line, keys sorted."""
    with atomic_open(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def save_space(space: ConfigurationSpace, path) -> None:
    write_json(path, space.to_document())


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
    hiddens, heads = space.dimensions[_HIDDEN].domain, space.dimensions[_HEADS].domain
    hidden = hiddens[genome[_HIDDEN]]
    if hidden % heads[genome[_HEADS]] == 0:
        return genome
    bits = rng.getrandbits
    divisors = _heads_dividing(space, hidden)
    if not divisors:
        factors = [h for h in heads if _multiples(hiddens, h)]
        if not factors:
            raise UnsatisfiableSpaceError(
                "no hidden_size in range is divisible by any in-range head count"
            )
        multiples = _multiples(hiddens, factors[below(bits, len(factors))])
        hidden_index = multiples[below(bits, len(multiples))]
        genome = genome[:_HIDDEN] + (hidden_index,) + genome[_HIDDEN + 1:]
        divisors = _heads_dividing(space, hiddens[hidden_index])
    return genome[:_HEADS] + (divisors[below(bits, len(divisors))],) + genome[_HEADS + 1:]


def _multiples(domain, factor: int):
    """Indices of the multiples of ``factor`` in the domain, ascending."""
    if isinstance(domain, range):
        return range(-domain.start % factor, len(domain), factor)
    return [i for i, v in enumerate(domain) if v % factor == 0]
