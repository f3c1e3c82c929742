import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfgtune import (
    DEFAULT_CARBON_INTENSITY,
    MEGABYTE,
    SIZE_RELEVANT_DIMENSIONS,
    SizeConstraint,
    co2_emissions_kg,
    forward_gflops,
    forward_pass_flops,
    model_size_breakdown,
    model_size_mb,
    parameter_file_bytes,
    prune,
    space_from_mapping,
    training_energy_kwh,
)
from cfgtune.costs import genome_costs
from conftest import make_config


def reference_size_bytes(v, l, h, i, s):
    """Inline re-derivation of the size model, kept independent of the
    implementation: float32 embeddings 4(v+s+3)h, float32 encoder layers
    4(4h^2 + (9+2i)h + i) each, float16 pooler+binary head 2h^2+4h+2."""
    embedding = 4 * (v + s + 3) * h
    transformer = 4 * (4 * h * h + (9 + 2 * i) * h + i) * l
    classifier = 2 * h * h + 4 * h + 2
    return embedding + transformer + classifier


def test_reference_config_size_is_frozen_value():
    breakdown = model_size_breakdown(make_config())
    assert breakdown.total_bytes == 497_396_738
    assert breakdown.total_bytes == reference_size_bytes(50265, 12, 768, 3072, 512)
    assert breakdown.total_mb == 497_396_738 / MEGABYTE
    # within 3% of the published full-size baseline of 481 MB
    assert abs(breakdown.total_mb - 481.0) / 481.0 < 0.03


def test_breakdown_parts_sum_exactly():
    breakdown = model_size_breakdown(make_config())
    assert (
        breakdown.embedding_bytes
        + breakdown.transformer_bytes
        + breakdown.classifier_bytes
        == breakdown.total_bytes
    )


def test_minimum_corner_size():
    # smallest model in the canonical space
    assert parameter_file_bytes(1000, 1, 16, 16, 256) == 87_938
    assert parameter_file_bytes(1000, 1, 16, 16, 256) == reference_size_bytes(
        1000, 1, 16, 16, 256
    )


@given(
    v=st.integers(min_value=1000, max_value=50265),
    l=st.integers(min_value=1, max_value=12),
    h=st.integers(min_value=16, max_value=768),
    i=st.integers(min_value=16, max_value=3072),
    s=st.integers(min_value=256, max_value=512),
)
def test_size_matches_reference_everywhere(v, l, h, i, s):
    assert parameter_file_bytes(v, l, h, i, s) == reference_size_bytes(v, l, h, i, s)


def test_size_ignores_attention_heads():
    assert "num_attention_heads" not in SIZE_RELEVANT_DIMENSIONS
    a = model_size_breakdown(make_config(num_attention_heads=12))
    b = model_size_breakdown(make_config(num_attention_heads=4))
    assert a == b


def test_size_strictly_increasing_in_each_relevant_dimension():
    base = parameter_file_bytes(1000, 1, 16, 16, 256)
    assert parameter_file_bytes(1001, 1, 16, 16, 256) > base
    assert parameter_file_bytes(1000, 2, 16, 16, 256) > base
    assert parameter_file_bytes(1000, 1, 17, 16, 256) > base
    assert parameter_file_bytes(1000, 1, 16, 17, 256) > base
    assert parameter_file_bytes(1000, 1, 16, 16, 257) > base


def reference_flops(l, h, i, s):
    """Inline re-derivation of the FLOPs model: per layer 8sh^2 + 4s^2h +
    4shi, plus head 4h^2."""
    return l * (8 * s * h * h + 4 * s * s * h + 4 * s * h * i) + 4 * h * h


def test_forward_flops_frozen_value():
    config = make_config()
    assert forward_pass_flops(config) == reference_flops(12, 768, 3072, 512)
    assert forward_pass_flops(config) == 96_639_123_456
    assert forward_gflops(config) == 96.639123456


def test_flops_monotone_in_depth_and_width():
    base = forward_pass_flops(make_config())
    assert forward_pass_flops(make_config(num_hidden_layers=11)) < base
    assert forward_pass_flops(make_config(hidden_size=384)) < base
    assert forward_pass_flops(make_config(max_sequence_length=256)) < base


def test_energy_and_co2():
    energy = training_energy_kwh(0.8, 0.4)
    assert energy == pytest.approx(0.32, abs=1e-12)
    assert co2_emissions_kg(energy) == pytest.approx(0.14, abs=1e-12)
    assert co2_emissions_kg(1.0) == DEFAULT_CARBON_INTENSITY
    assert co2_emissions_kg(0.32, carbon_intensity=0.5) == pytest.approx(0.16)


def test_negative_workload_rejected():
    with pytest.raises(ValueError):
        training_energy_kwh(-1.0, 0.4)
    with pytest.raises(ValueError):
        co2_emissions_kg(-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_workload_rejected(value):
    for call in (
        lambda: training_energy_kwh(value, 0.4),
        lambda: training_energy_kwh(0.8, value),
        lambda: co2_emissions_kg(value),
        lambda: co2_emissions_kg(0.32, carbon_intensity=value),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("form", ["listing3", "3 MB", "64 MB", "mini", "value sets"])
def test_genome_costs_equal_the_configuration_forms(canonical_space, mini_space, form):
    if form == "value sets":
        # Every size-relevant dimension a value array, not a range.
        document = canonical_space.to_document()
        document.update(
            vocab_size=[500, 8000, 50265],
            num_hidden_layers=[1, 6, 12],
            hidden_size=[48, 96, 768],
            intermediate_size=[64, 3072],
            max_sequence_length=[128, 512],
        )
        space = space_from_mapping(document)
    elif form.endswith("MB"):
        space = prune(canonical_space, SizeConstraint(float(form.split()[0])))
    else:
        space = mini_space if form == "mini" else canonical_space
    costs = genome_costs(space)
    rng = random.Random(5)
    for _ in range(500):
        genome = space.sample_genome(rng)
        config = space.configuration(genome)
        assert costs(genome) == (model_size_mb(config), forward_gflops(config))


@pytest.mark.parametrize("budget_mb", [None, 64.0], ids=["listing3", "64 MB"])
def test_configuration_costs_equal_the_references_by_field_name(canonical_space, budget_mb):
    # The cost models read their values through one getter; the references
    # read each by field name, so a wrong order in the getter fails here.
    space = canonical_space if budget_mb is None else prune(canonical_space, SizeConstraint(budget_mb))
    for c in space.sample_uniform(500, seed=3):
        size = reference_size_bytes(
            c.vocab_size, c.num_hidden_layers, c.hidden_size, c.intermediate_size,
            c.max_sequence_length,
        )
        assert model_size_mb(c) * MEGABYTE == model_size_breakdown(c).total_bytes == size
        assert forward_pass_flops(c) == reference_flops(
            c.num_hidden_layers, c.hidden_size, c.intermediate_size, c.max_sequence_length
        )
