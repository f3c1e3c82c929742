import itertools
import json
import math
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfgtune import (
    DistillationBatch,
    ExternalProcessOracle,
    OracleError,
    OracleProcessError,
    OracleResponseError,
    OracleTimeoutError,
    SizeConstraint,
    SyntheticCapacityOracle,
    build_indicator,
    kd_loss,
    prune,
    r_squared,
    space_from_mapping,
)
from conftest import make_config


# --- distillation loss ---------------------------------------------------


def reference_kd_loss(teacher, student, temperature):
    """Direct unstabilized evaluation of the formula, for cross-checking."""
    teacher = np.asarray(teacher, dtype=float) / temperature
    student = np.asarray(student, dtype=float) / temperature
    p = np.exp(teacher) / np.exp(teacher).sum(axis=-1, keepdims=True)
    q = np.exp(student) / np.exp(student).sum(axis=-1, keepdims=True)
    per_example = -(p * np.log(q)).sum(axis=-1)
    return float(per_example.mean() * temperature**2)


def batch(p, q, t=1.0):
    return DistillationBatch(
        teacher_logits=tuple(tuple(row) for row in p),
        student_logits=tuple(tuple(row) for row in q),
        temperature=t,
    )


def test_uniform_two_class_loss_is_ln2():
    assert abs(kd_loss(batch([[0.0, 0.0]], [[0.0, 0.0]])) - math.log(2)) < 1e-12


def test_loss_matches_reference_on_random_batches():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, k = rng.integers(1, 6), rng.integers(2, 7)
        p = rng.normal(scale=3, size=(n, k))
        q = rng.normal(scale=3, size=(n, k))
        t = float(rng.uniform(0.5, 8))
        assert kd_loss(batch(p, q, t)) == pytest.approx(
            reference_kd_loss(p, q, t), rel=1e-10
        )


def test_opposed_confident_logits():
    value = kd_loss(batch([[10.0, 0.0]], [[0.0, 10.0]]))
    assert value == pytest.approx(reference_kd_loss([[10.0, 0.0]], [[0.0, 10.0]], 1.0))
    assert value > 9.0  # confidently wrong student pays roughly the margin


def test_loss_is_stable_for_huge_logits():
    value = kd_loss(batch([[1000.0, 0.0]], [[1000.0, 0.0]]))
    assert math.isfinite(value)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_matched_logits_give_scaled_teacher_entropy():
    rng = np.random.default_rng(4)
    for t in (0.5, 1.0, 4.0):
        p = rng.normal(size=(3, 5))
        soft = np.exp(p / t) / np.exp(p / t).sum(axis=-1, keepdims=True)
        entropy = float((-(soft * np.log(soft)).sum(axis=-1)).mean())
        assert kd_loss(batch(p, p, t)) == pytest.approx(t * t * entropy, rel=1e-10)


def test_matched_logits_minimize_the_loss():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(2, 4))
    floor = kd_loss(batch(p, p))
    for _ in range(20):
        q = p + rng.normal(scale=0.5, size=p.shape)
        assert kd_loss(batch(p, q)) >= floor - 1e-12


@given(shift=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_logit_shift_invariance(shift):
    p = [[1.0, -2.0, 0.5], [3.0, 3.0, -1.0]]
    q = [[0.2, 0.1, -0.4], [1.0, -1.0, 2.0]]
    base = kd_loss(batch(p, q))
    p_shifted = [[x + shift for x in row] for row in p]
    q_shifted = [[x + shift for x in row] for row in q]
    assert abs(kd_loss(batch(p_shifted, q)) - base) < 1e-10
    assert abs(kd_loss(batch(p, q_shifted)) - base) < 1e-10


def test_gradient_vanishes_at_matched_logits():
    p = [[0.7, -1.2, 0.9, 0.0]]
    step = 1e-5
    for j in range(4):
        up = [list(p[0])]
        down = [list(p[0])]
        up[0][j] += step
        down[0][j] -= step
        grad = (kd_loss(batch(p, up)) - kd_loss(batch(p, down))) / (2 * step)
        assert abs(grad) < 1e-4


def test_batch_validation():
    with pytest.raises(ValueError):
        batch([[0.0, 0.0]], [[0.0, 0.0]], t=0.0)
    with pytest.raises(ValueError):
        batch([[0.0, 0.0]], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        batch([[0.0]], [[0.0]])
    with pytest.raises(ValueError):
        batch([], [])


# --- synthetic oracle -----------------------------------------------------


def test_synthetic_oracle_documented_maximum(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    top = make_config(
        tokenizer=pruned_space.dimension("tokenizer").options[0],
        vocab_size=pruned_space.dimension("vocab_size").max_value(),
        num_hidden_layers=12,
        hidden_size=pruned_space.dimension("hidden_size").max_value(),
        intermediate_size=3072,
        num_attention_heads=1,
    )
    assert oracle.evaluate(top) == pytest.approx(0.95, abs=1e-12)


def test_synthetic_oracle_is_pure(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space, noise_sigma=0.05, seed=3)
    config = pruned_space.sample_uniform(1, seed=0)[0]
    values = {oracle.evaluate(config) for _ in range(10)}
    assert len(values) == 1
    again = SyntheticCapacityOracle(reference_space=pruned_space, noise_sigma=0.05, seed=3)
    assert again.evaluate(config) in values


def test_synthetic_oracle_noise_seed_matters(pruned_space):
    config = pruned_space.sample_uniform(1, seed=1)[0]
    a = SyntheticCapacityOracle(pruned_space, noise_sigma=0.05, seed=1).evaluate(config)
    b = SyntheticCapacityOracle(pruned_space, noise_sigma=0.05, seed=2).evaluate(config)
    assert a != b


def test_synthetic_oracle_bounds_and_monotonicity(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    for config in pruned_space.sample_uniform(50, seed=5):
        value = oracle.evaluate(config)
        assert 0.0 <= value <= 1.0
    low = oracle.true_effectiveness(make_config(hidden_size=32, num_attention_heads=1, vocab_size=2000, intermediate_size=64, num_hidden_layers=2))
    high = oracle.true_effectiveness(make_config(hidden_size=64, num_attention_heads=1, vocab_size=2000, intermediate_size=64, num_hidden_layers=2))
    assert high >= low


def test_synthetic_oracle_prefers_earlier_tokenizers(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    options = pruned_space.dimension("tokenizer").options
    config = make_config(hidden_size=64, num_attention_heads=2, vocab_size=5000)
    values = [
        oracle.true_effectiveness(config._replace(tokenizer=option))
        for option in options
    ]
    assert values == sorted(values, reverse=True)
    assert values[0] - values[-1] == pytest.approx(0.04, abs=1e-12)


def reference_evaluate(oracle, config):
    """The oracle's value as computed before its ramps were cached: every
    bound looked up, and every logarithm taken, per call."""
    space = oracle.reference_space

    def bounds(name):
        dim = space.dimension(name)
        return float(dim.min_value()), float(dim.max_value())

    def log_ramp(value, lo, hi):
        if value <= 0 or lo <= 0 or hi <= lo:
            return 0.0
        unit = (math.log(value) - math.log(lo)) / (math.log(hi) - math.log(lo))
        return min(1.0, max(0.0, unit))

    h_lo, h_hi = bounds("hidden_size")
    l_lo, l_hi = bounds("num_hidden_layers")
    i_lo, i_hi = bounds("intermediate_size")
    v_lo, v_hi = bounds("vocab_size")
    capacity = log_ramp(
        config.hidden_size * config.num_hidden_layers, h_lo * l_lo, h_hi * l_hi
    )
    feed_forward = log_ramp(config.intermediate_size, i_lo, i_hi)
    vocabulary = log_ramp(config.vocab_size, v_lo, v_hi)
    options = space.dimension("tokenizer").options
    if len(options) > 1:
        bonus = 1.0 - options.index(config.tokenizer) / (len(options) - 1)
    else:
        bonus = 1.0
    score = 0.5 * capacity + 0.3 * feed_forward + 0.1 * vocabulary + 0.1 * bonus
    truth = oracle.base + oracle.span * score
    value = truth
    if oracle.noise_sigma > 0:
        key = json.dumps({"seed": oracle.seed, "config": config.as_dict()}, sort_keys=True)
        value += random.Random(key).gauss(0.0, oracle.noise_sigma)
    return truth, min(1.0, max(0.0, value))


@pytest.fixture(scope="module")
def constant_ramp_space(mini_space):
    """Every capacity dimension and the tokenizer single-valued: each ramp is
    constant 0 and the tokenizer bonus is 1."""
    document = dict(
        mini_space.to_document(),
        tokenizer=["Word"],
        vocab_size=[8000],
        num_hidden_layers={"min": 2, "max": 2},
        hidden_size=[32],
        intermediate_size=[512],
    )
    return space_from_mapping(document)


@pytest.mark.parametrize("space_name", ["pruned_3", "pruned_64", "mini", "constant_ramp"])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
def test_synthetic_oracle_equals_per_call_formula(
    canonical_space, pruned_space, mini_space, constant_ramp_space, space_name, noise_sigma
):
    space = {
        "pruned_3": pruned_space,
        "pruned_64": prune(canonical_space, SizeConstraint(64.0)),
        "mini": mini_space,
        "constant_ramp": constant_ramp_space,
    }[space_name]
    # The configurations come from the space itself and, where it is a
    # pruned one, are also scored against the unpruned space.
    references = [space] if space_name in ("mini", "constant_ramp") else [space, canonical_space]
    configs = space.sample_uniform(300, seed=11)
    for reference_space in references:
        oracle = SyntheticCapacityOracle(reference_space, noise_sigma=noise_sigma, seed=7)
        for config in configs:
            truth, value = reference_evaluate(oracle, config)
            assert oracle.true_effectiveness(config) == truth
            assert oracle.evaluate(config) == value


def test_synthetic_oracle_genome_predictor_equals_evaluate(
    canonical_space, pruned_space, mini_space, constant_ramp_space
):
    rng = random.Random(31)

    def sampled(space, count):
        # Any index in every dimension, uncorrected: the score reads no pair.
        return [tuple(rng.randrange(dim.size()) for dim in space.dimensions) for _ in range(count)]

    def every(space):
        return list(itertools.product(*[range(dim.size()) for dim in space.dimensions]))

    pruned_64 = prune(canonical_space, SizeConstraint(64.0))
    cases = [
        (SyntheticCapacityOracle(mini_space), mini_space, every(mini_space)),
        # A single tokenizer option, and every ramp constant 0.
        (SyntheticCapacityOracle(constant_ramp_space), constant_ramp_space, every(constant_ramp_space)),
        # The reference space's bounds, not the scored space's, set the ramps.
        (SyntheticCapacityOracle(pruned_64), pruned_space, sampled(pruned_space, 1000)),
        # Noise is keyed on the configuration, so this one builds it.
        (SyntheticCapacityOracle(pruned_space, noise_sigma=0.05, seed=4), pruned_space, sampled(pruned_space, 500)),
    ]
    cases += [(SyntheticCapacityOracle(s), s, sampled(s, 5000)) for s in (canonical_space, pruned_space, pruned_64)]
    for oracle, space, genomes in cases:
        predict = oracle.genome_predictor(space)
        for genome in genomes + genomes[:200]:  # each term computed, then looked up
            assert predict(genome) == oracle.evaluate(space.configuration(genome))


# --- external oracle ------------------------------------------------------


GOOD_EVALUATOR = """
import json, sys
request_path, response_path = sys.argv[1], sys.argv[2]
with open(request_path) as fh, open(response_path, "w") as out:
    for line in fh:
        record = json.loads(line)
        assert len(record["config"]) == 13
        assert "space_checksum" in record
        out.write(json.dumps({"id": record["id"], "effectiveness": 0.873}) + "\\n")
"""

SCALED_EVALUATOR = """
import json, sys
request_path, response_path = sys.argv[1], sys.argv[2]
with open(request_path) as fh, open(response_path, "w") as out:
    for line in fh:
        record = json.loads(line)
        h = record["config"]["hidden_size"]
        out.write(json.dumps({"id": record["id"], "effectiveness": 4.0 + h}) + "\\n")
"""

PARTIAL_EVALUATOR = """
import json, sys
request_path, response_path = sys.argv[1], sys.argv[2]
with open(request_path) as fh, open(response_path, "w") as out:
    for index, line in enumerate(fh):
        if index == 0:
            continue
        record = json.loads(line)
        out.write(json.dumps({"id": record["id"], "effectiveness": 0.5}) + "\\n")
"""

MALFORMED_EVALUATOR = """
import sys
with open(sys.argv[2], "w") as out:
    out.write('{"id": "cfg-0", "effectiveness": "not-a-number"}\\n')
"""

NAN_EVALUATOR = """
import sys
with open(sys.argv[2], "w") as out:
    out.write('{"id": "cfg-0", "effectiveness": NaN}\\n')
"""

CRASHING_EVALUATOR = """
import sys
sys.exit(3)
"""

SILENT_EVALUATOR = """
import sys
"""

SLEEPY_EVALUATOR = """
import sys, time
time.sleep(30)
"""


# Starts a grandchild that touches the marker file (argv[1]) after 1.5 s,
# then outlives any short timeout itself.
FORKING_EVALUATOR = """
import subprocess, sys, time
marker = {marker!r}
subprocess.Popen([sys.executable, "-c",
    "import sys, time; time.sleep(1.5); open(sys.argv[1], 'w').close()", marker])
time.sleep(30)
"""


def write_evaluator(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return (sys.executable, str(path))


def test_external_oracle_pass_through(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "good.py", GOOD_EVALUATOR)
    oracle = ExternalProcessOracle(command=command, space_checksum=pruned_space.checksum())
    config = pruned_space.sample_uniform(1, seed=9)[0]
    assert oracle.evaluate(config) == 0.873
    assert oracle.evaluate_many(pruned_space.sample_uniform(3, seed=4)) == [0.873] * 3


def test_external_oracle_clamps_to_unit_interval(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "scaled.py", SCALED_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    config = pruned_space.sample_uniform(1, seed=9)[0]
    assert oracle.evaluate(config) == 1.0


def test_external_oracle_partial_response(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "partial.py", PARTIAL_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    configs = pruned_space.sample_uniform(3, seed=1)
    with pytest.raises(OracleResponseError) as err:
        oracle.evaluate_many(configs)
    assert "missing" in str(err.value)
    assert err.value.partial_rows == [(configs[1].as_dict(), 0.5), (configs[2].as_dict(), 0.5)]


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("not json", "malformed response line 2"),
        ('{"id": "cfg-1"}', "malformed response line 2"),
        ('{"id": "cfg-0", "effectiveness": 0.25}', "duplicate response id 'cfg-0'"),
    ],
)
def test_external_oracle_bad_line_keeps_the_rows_before_it(tmp_path, pruned_space, bad_line, message):
    lines = '{"id": "cfg-0", "effectiveness": 0.5}\n' + bad_line + "\n"
    body = f"import sys\nwith open(sys.argv[2], 'w') as out:\n    out.write({lines!r})\n"
    oracle = ExternalProcessOracle(command=write_evaluator(tmp_path, "bad_line.py", body))
    configs = pruned_space.sample_uniform(3, seed=1)
    with pytest.raises(OracleResponseError, match=message) as err:
        oracle.evaluate_many(configs)
    assert err.value.partial_rows == [(configs[0].as_dict(), 0.5)]


def test_external_oracle_malformed_response(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "malformed.py", MALFORMED_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleResponseError):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])


def test_external_oracle_rejects_nan_effectiveness(tmp_path, pruned_space):
    # Python's json reads NaN; clamping it would silently score 0.0.
    command = write_evaluator(tmp_path, "nan.py", NAN_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleResponseError, match="non-finite"):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])


def test_external_oracle_process_failure(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "crash.py", CRASHING_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleProcessError):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])


def test_external_oracle_missing_response_file(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "silent.py", SILENT_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleResponseError):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])


def test_external_oracle_unrunnable_command(pruned_space):
    oracle = ExternalProcessOracle(command=("/nonexistent/evaluator",))
    with pytest.raises(OracleProcessError):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])


def test_external_oracle_timeout(tmp_path, pruned_space, monkeypatch):
    monkeypatch.setenv("CFGTUNE_ORACLE_TIMEOUT_S", "1")
    command = write_evaluator(tmp_path, "sleepy.py", SLEEPY_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleTimeoutError):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])


@pytest.mark.parametrize(
    "setting", ["abc", "0", "-1", "nan", "inf", "1e300", "2147483.648"]
)
def test_external_oracle_rejects_bad_timeout_before_starting(
    tmp_path, pruned_space, monkeypatch, setting
):
    # NaN failed inside poll() and values above 2**31 - 1 ms overflowed its C
    # int, both after the evaluator had started.
    monkeypatch.setenv("CFGTUNE_ORACLE_TIMEOUT_S", setting)
    marker = tmp_path / "evaluator-ran"
    command = write_evaluator(tmp_path, "touch.py", f"open({str(marker)!r}, 'w').close()\n")
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleError, match="CFGTUNE_ORACLE_TIMEOUT_S"):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])
    assert not marker.exists()


def test_external_oracle_accepts_the_longest_poll_timeout(tmp_path, pruned_space, monkeypatch):
    monkeypatch.setenv("CFGTUNE_ORACLE_TIMEOUT_S", "2147483.647")
    command = write_evaluator(tmp_path, "good.py", GOOD_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    assert oracle.evaluate(pruned_space.sample_uniform(1, seed=9)[0]) == 0.873


def test_external_oracle_timeout_kills_grandchildren(tmp_path, pruned_space, monkeypatch):
    monkeypatch.setenv("CFGTUNE_ORACLE_TIMEOUT_S", "0.5")
    marker = tmp_path / "grandchild-ran"
    command = write_evaluator(
        tmp_path, "forking.py", FORKING_EVALUATOR.format(marker=str(marker))
    )
    oracle = ExternalProcessOracle(command=command)
    start = time.monotonic()
    with pytest.raises(OracleTimeoutError):
        oracle.evaluate(pruned_space.sample_uniform(1, seed=1)[0])
    # One second past the grandchild's deadline, it has not touched the marker.
    time.sleep(max(0.0, start + 2.5 - time.monotonic()))
    assert not marker.exists()


# --- indicator building ---------------------------------------------------


def test_build_indicator_fits_the_synthetic_landscape(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    model, table, configs = build_indicator(pruned_space, oracle, k=20, seed=99)
    assert len(table.vectors) == len(table.targets) == 20
    assert all(pruned_space.validate(c) for c in configs)
    assert all(0.0 <= t <= 1.0 for t in table.targets)
    vectors = [pruned_space.encode(c) for c in configs]
    assert r_squared(model, vectors, table.targets) > 0.5
    assert model.space_checksum == pruned_space.checksum()


def test_build_indicator_is_seed_deterministic(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    a = build_indicator(pruned_space, oracle, k=5, seed=1)
    b = build_indicator(pruned_space, oracle, k=5, seed=1)
    assert a[1] == b[1]
    assert a[0] == b[0]


def test_build_indicator_minimum_k(pruned_space):
    oracle = SyntheticCapacityOracle(reference_space=pruned_space)
    model, table, _ = build_indicator(pruned_space, oracle, k=2, seed=0)
    assert len(table.vectors) == len(table.targets) == 2
    with pytest.raises(ValueError):
        build_indicator(pruned_space, oracle, k=1, seed=0)


def test_build_indicator_attaches_partial_rows(tmp_path, pruned_space):
    command = write_evaluator(tmp_path, "partial.py", PARTIAL_EVALUATOR)
    oracle = ExternalProcessOracle(command=command)
    with pytest.raises(OracleResponseError) as err:
        build_indicator(pruned_space, oracle, k=4, seed=0)
    rows = err.value.partial_rows
    assert len(rows) == 3  # evaluator skipped the first request
    assert all(value == 0.5 for _, value in rows)


def test_build_indicator_rejects_out_of_range_scores_with_no_rows(pruned_space):
    class OverOneOracle:
        def evaluate_many(self, configs):
            return [1.5 for _ in configs]

    with pytest.raises(OracleResponseError, match=r"outside \[0, 1\]") as err:
        build_indicator(pruned_space, OverOneOracle(), k=3, seed=0)
    assert err.value.partial_rows == ()
