"""Analytic cost models: parameter-file size, forward-pass FLOPs, emissions.

Size is computed in exact integer bytes from closed-form parameter counts
(float32 weights, float16 classifier head) and only converted to MB at the
edge; 1 MB = 2**20 bytes. The FLOPs model is a standard per-layer count of
the dense matrix multiplies in an encoder forward pass at full sequence
length, reported in units of 1e9.
Both have a configuration form and a genome form, :func:`genome_costs`;
the two call the same integer functions, so each formula is written once.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

from .space import CANONICAL_DIMENSIONS, Configuration, ConfigurationSpace, Genome

MEGABYTE = 1 << 20

# Dimensions that the size model actually reads. The head count only reshapes
# the projection matrices, it does not change the parameter count.
SIZE_RELEVANT_DIMENSIONS = (
    "vocab_size",
    "num_hidden_layers",
    "hidden_size",
    "intermediate_size",
    "max_sequence_length",
)
# The five values of a configuration, a genome or a tuple of dimensions at
# those names' positions, in parameter_file_bytes' argument order.
size_relevant = operator.itemgetter(*map(CANONICAL_DIMENSIONS.index, SIZE_RELEVANT_DIMENSIONS))

# kg CO2 per kWh. Chosen so a 0.32 kWh training run emits 0.14 kg.
DEFAULT_CARBON_INTENSITY = 0.4375


def embedding_bytes(vocab_size: int, hidden_size: int, max_sequence_length: int) -> int:
    """Token + position + type embeddings, their LayerNorm, all float32.

    Rows: vocab_size token vectors, max_sequence_length position vectors,
    2 token-type vectors, plus 2 LayerNorm parameter vectors, and one spare
    row kept for padding-index compatibility is already folded into the +3
    term together with the norm vectors: total (v + s + 3) vectors of width h.
    """
    return 4 * (vocab_size + max_sequence_length + 3) * hidden_size


def transformer_bytes(num_hidden_layers: int, hidden_size: int, intermediate_size: int) -> int:
    """All encoder layers, float32.

    Per layer: 4 attention projection matrices (4h^2) with biases (4h), the
    attention-output LayerNorm (2h), the feed-forward up/down projections
    (2ih) with biases (i + h), and the output LayerNorm (2h): in total
    4h^2 + (9 + 2i)h + i parameters.
    """
    h, i = hidden_size, intermediate_size
    per_layer = 4 * h * h + (9 + 2 * i) * h + i
    return 4 * per_layer * num_hidden_layers


def classifier_bytes(hidden_size: int) -> int:
    """Pooler (h^2 + h) plus a binary head (2h + 2), stored in float16."""
    h = hidden_size
    return 2 * h * h + 4 * h + 2


class SizeBreakdown(NamedTuple):
    """Exact byte counts per model part; the total's MB view divides by 2**20."""

    embedding_bytes: int
    transformer_bytes: int
    classifier_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.embedding_bytes + self.transformer_bytes + self.classifier_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / MEGABYTE


def parameter_file_bytes(
    vocab_size: int,
    num_hidden_layers: int,
    hidden_size: int,
    intermediate_size: int,
    max_sequence_length: int,
) -> int:
    return (
        embedding_bytes(vocab_size, hidden_size, max_sequence_length)
        + transformer_bytes(num_hidden_layers, hidden_size, intermediate_size)
        + classifier_bytes(hidden_size)
    )


def model_size_breakdown(config: Configuration) -> SizeBreakdown:
    v, l, h, i, s = size_relevant(config)
    return SizeBreakdown(embedding_bytes(v, h, s), transformer_bytes(l, h, i), classifier_bytes(h))


def model_size_mb(config: Configuration) -> float:
    return parameter_file_bytes(*size_relevant(config)) / MEGABYTE


def dense_flops(l: int, h: int, i: int, s: int) -> int:
    """Dense multiply-add count for one forward pass at full sequence length
    s, with l layers, hidden size h and intermediate size i.

    Per layer: QKV + output projections 8sh^2, attention score and mixing
    matmuls 4s^2h, feed-forward 4shi; plus the pooler/classifier 4h^2.
    """
    per_layer = 8 * s * h * h + 4 * s * s * h + 4 * s * h * i
    return l * per_layer + 4 * h * h


def forward_pass_flops(config: Configuration) -> int:
    _, l, h, i, s = size_relevant(config)
    return dense_flops(l, h, i, s)


def forward_gflops(config: Configuration) -> float:
    return forward_pass_flops(config) / 1e9


def genome_costs(space: ConfigurationSpace) -> Callable[[Genome], tuple[float, float]]:
    """``genome -> (model_size_mb(c), forward_gflops(c))`` for ``c =
    space.configuration(genome)``, bit for bit: the same integer functions
    on the same values, looked up by index, with no configuration built."""
    v, l, h, i, s = size_relevant(range(len(CANONICAL_DIMENSIONS)))  # genome positions
    vocab, layers, hidden, inter, seq = (dim.domain for dim in size_relevant(space.dimensions))

    def costs(genome: Genome) -> tuple[float, float]:
        n_v, n_l, n_h = vocab[genome[v]], layers[genome[l]], hidden[genome[h]]
        n_i, n_s = inter[genome[i]], seq[genome[s]]
        return (
            parameter_file_bytes(n_v, n_l, n_h, n_i, n_s) / MEGABYTE,
            dense_flops(n_l, n_h, n_i, n_s) / 1e9,
        )

    return costs


def training_energy_kwh(runtime_hours: float, average_power_kw: float) -> float:
    if not (0 <= runtime_hours < math.inf and 0 <= average_power_kw < math.inf):
        raise ValueError("runtime and power must be non-negative and finite")
    energy = runtime_hours * average_power_kw
    if energy == math.inf:
        raise ValueError(f"runtime x power overflows: {runtime_hours} h x {average_power_kw} kW")
    return energy


def co2_emissions_kg(
    energy_kwh: float, carbon_intensity: float = DEFAULT_CARBON_INTENSITY
) -> float:
    if not (0 <= energy_kwh < math.inf and 0 <= carbon_intensity < math.inf):
        raise ValueError("energy and carbon intensity must be non-negative and finite")
    co2 = energy_kwh * carbon_intensity
    if co2 == math.inf:
        raise ValueError(f"energy x carbon intensity overflows: {energy_kwh} kWh x {carbon_intensity} kg/kWh")
    return co2
