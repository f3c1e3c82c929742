"""Shared fixtures: the canonical space, its pruned form, and a small
exhaustively enumerable space with brute-forced ground truth."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from cfgtune import (
    Configuration,
    SizeConstraint,
    SyntheticCapacityOracle,
    forward_gflops,
    load_space,
    model_size_mb,
    prune,
    space_from_mapping,
)

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

REPO_ROOT = Path(__file__).resolve().parent.parent
CANONICAL_SPACE_FILE = REPO_ROOT / "spaces" / "listing3.json"

# Small space for exhaustive ground-truth checks: 144 valid configurations,
# 72 distinct objective vectors. Objective-irrelevant dimensions are pinned
# to single values so the enumeration stays tiny.
MINI_SPACE_DOCUMENT = {
    "tokenizer": ["Byte-Pair Encoding", "Word"],
    "vocab_size": [1000, 8000],
    "num_hidden_layers": {"min": 1, "max": 3},
    "hidden_size": [16, 32, 64],
    "hidden_act": ["GELU"],
    "hidden_dropout_prob": [0.1],
    "intermediate_size": [64, 512],
    "num_attention_heads": {"min": 1, "max": 2},
    "attention_probs_dropout_prob": [0.1],
    "max_sequence_length": {"min": 256, "max": 256},
    "position_embedding_type": ["absolute"],
    "learning_rate": [0.001],
    "batch_size": [16],
}


def make_config(**overrides) -> Configuration:
    """A valid configuration in the canonical space, overridable per field."""
    values = {
        "tokenizer": "Byte-Pair Encoding",
        "vocab_size": 50265,
        "num_hidden_layers": 12,
        "hidden_size": 768,
        "hidden_act": "GELU",
        "hidden_dropout_prob": 0.1,
        "intermediate_size": 3072,
        "num_attention_heads": 12,
        "attention_probs_dropout_prob": 0.1,
        "max_sequence_length": 512,
        "position_embedding_type": "absolute",
        "learning_rate": 0.0001,
        "batch_size": 16,
    }
    values.update(overrides)
    return Configuration(**values)


def enumerate_valid_configs(space):
    """Every validate()-passing configuration of an enumerable space."""
    for values in itertools.product(*[list(d.iter_values()) for d in space.dimensions]):
        config = Configuration(*values)
        if space.validate(config):
            yield config


@pytest.fixture(scope="session")
def canonical_space():
    return load_space(CANONICAL_SPACE_FILE)


@pytest.fixture(scope="session")
def pruned_space(canonical_space):
    return prune(canonical_space, SizeConstraint(3.0))


@pytest.fixture(scope="session")
def mini_space():
    return space_from_mapping(MINI_SPACE_DOCUMENT)


@pytest.fixture(scope="session")
def mini_oracle(mini_space):
    return SyntheticCapacityOracle(reference_space=mini_space)


@pytest.fixture(scope="session")
def mini_ground_truth(mini_space, mini_oracle):
    """(all objective vectors, true-front vectors) by exhaustive enumeration,
    using the same objective definitions as the tuner."""
    vectors = set()
    for config in enumerate_valid_configs(mini_space):
        effectiveness = min(1.0, max(0.0, mini_oracle.evaluate(config)))
        vectors.add(
            (model_size_mb(config), forward_gflops(config), -effectiveness)
        )
    front = {
        v
        for v in vectors
        if not any(
            u[0] <= v[0]
            and u[1] <= v[1]
            and u[2] <= v[2]
            and (u[0] < v[0] or u[1] < v[1] or u[2] < v[2])
            for u in vectors
        )
    }
    return vectors, front


ACCEPTANCE_LOG: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)
