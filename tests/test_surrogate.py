import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfgtune
from cfgtune import SurrogateModel, SyntheticCapacityOracle, TrainingSet, build_indicator, fit, r_squared
from cfgtune.cli import derive_seed, main
from conftest import CANONICAL_SPACE_FILE


def closed_form_ridge(X, y, alpha, beta):
    """Independent oracle: least squares on the stacked augmented system.

    Minimizes beta*||y - D w||^2 + alpha*||w_features||^2 where D is the
    min-max-scaled design with a trailing constant column; the intercept
    carries no penalty. Solved with numpy.linalg.lstsq on
    [sqrt(beta) D; sqrt(alpha) P] where P selects the feature coordinates.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scaled = np.where(hi - lo > 0, (X - lo) / span, 0.0)
    design = np.hstack([scaled, np.ones((n, 1))])
    penalty_rows = np.sqrt(alpha) * np.eye(d + 1)[:d]
    stacked = np.vstack([np.sqrt(beta) * design, penalty_rows])
    rhs = np.concatenate([np.sqrt(beta) * y, np.zeros(d)])
    weights, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    return weights


def numpy_fit(vectors, targets):
    """The evidence maximization as numpy and LAPACK run it, kept as the
    reference for the pure-Python fit: (weights, alpha, beta, rounds,
    converged). gamma comes from the eigenvalues of the scaled feature Gram
    matrix, and each round inverts the full posterior precision."""
    X = np.asarray(vectors, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, d = X.shape
    span = X.max(axis=0) - X.min(axis=0)
    scaled = np.where(span > 0, (X - X.min(axis=0)) / np.where(span > 0, span, 1.0), 0.0)
    design = np.hstack([scaled, np.ones((n, 1))])
    eigenvalues = np.clip(np.linalg.eigvalsh(scaled.T @ scaled), 0.0, None)

    def posterior_mean(alpha, beta):
        penalty = np.full(d + 1, alpha)
        penalty[-1] = 0.0
        covariance = np.linalg.inv(np.diag(penalty) + beta * (design.T @ design))
        return covariance @ (beta * design.T @ y)

    alpha, beta = 1.0, 1.0
    mean = posterior_mean(alpha, beta)
    for rounds in range(1, 301):
        gamma = float(np.sum(beta * eigenvalues / (alpha + beta * eigenvalues)))
        new_alpha = gamma / max(float(mean[:-1] @ mean[:-1]), 1e-12)
        residual = y - design @ mean
        new_beta = max(n - gamma, 1e-12) / max(float(residual @ residual), 1e-12)
        new_alpha = float(np.clip(new_alpha, 1e-12, 1e12))
        new_beta = float(np.clip(new_beta, 1e-12, 1e12))
        shifts = (abs(new_alpha - alpha) / alpha, abs(new_beta - beta) / beta)
        alpha, beta = new_alpha, new_beta
        mean = posterior_mean(alpha, beta)
        if max(shifts) < 1e-6:
            return mean, alpha, beta, rounds, True
    return mean, alpha, beta, rounds, False


def random_dataset(rng, n=None, d=None):
    n = n or rng.integers(5, 30)
    d = d or rng.integers(1, 6)
    X = rng.uniform(-3, 7, size=(n, d))
    w = rng.normal(size=d)
    y = X @ w + rng.normal(scale=0.3, size=n) + rng.normal()
    return X, y


def test_frozen_fit_matches_closed_form_ridge():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        X, y = random_dataset(rng)
        model = fit(X, y, update_hyperparameters=False)
        expected = closed_form_ridge(X, y, alpha=1.0, beta=1.0)
        assert np.max(np.abs(np.array(model.weights) - expected)) < 1e-8


def test_fit_matches_the_numpy_fit_at_quickstart_size(pruned_space):
    """20 oracle samples of the pruned listing3 at 3 MB, drawn as ``cfgtune
    fit --seed s`` draws them, for fit seeds 0-29: the same weights, alpha and
    beta within 1e-9 relative, after as many rounds."""
    worst = 0.0
    for seed in range(30):
        oracle = SyntheticCapacityOracle(reference_space=pruned_space, seed=derive_seed(seed, "oracle"))
        model, table, _ = build_indicator(pruned_space, oracle, k=20, seed=derive_seed(seed, "fit:sample"))
        weights, alpha, beta, rounds, converged = numpy_fit(table.vectors, table.targets)
        assert (model.n_iterations, model.converged) == (rounds, converged), seed
        got = np.array(model.weights + (model.alpha, model.beta))
        expected = np.append(weights, [alpha, beta])
        worst = max(worst, float(np.max(np.abs(got - expected) / np.abs(expected))))
    assert worst < 1e-9


def test_noise_free_line_recovered():
    X = [[float(i)] for i in range(10)]
    y = [2.0 * x[0] + 1.0 for x in X]
    model = fit(X, y)
    errors = [abs(model.predict_mean(x) - (2.0 * x[0] + 1.0)) for x in X]
    assert max(errors) < 1e-6
    # extrapolation also follows the line closely
    assert model.predict_mean([20.0]) == pytest.approx(41.0, abs=1e-3)


def test_hyperparameters_positive_after_fit():
    rng = np.random.default_rng(3)
    X, y = random_dataset(rng, n=15, d=3)
    model = fit(X, y)
    assert model.alpha > 0
    assert model.beta > 0
    assert model.n_iterations >= 1


def test_constant_targets_give_constant_prediction():
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, size=(12, 4))
    y = np.full(12, 0.7)
    model = fit(X, y)
    assert model.predict_mean(rng.uniform(0, 1, size=4)) == pytest.approx(0.7, abs=1e-6)
    assert max(abs(w) for w in model.weights[:-1]) < 1e-6  # slopes vanish


def test_row_permutation_invariance():
    rng = np.random.default_rng(5)
    X, y = random_dataset(rng, n=20, d=4)
    model = fit(X, y)
    order = rng.permutation(20)
    shuffled = fit(X[order], np.asarray(y)[order])
    assert np.max(np.abs(np.array(model.weights) - shuffled.weights)) < 1e-10


def test_prediction_mean_is_affine():
    rng = np.random.default_rng(9)
    X, y = random_dataset(rng, n=18, d=3)
    model = fit(X, y)
    x1 = rng.uniform(-1, 8, size=3)
    x2 = rng.uniform(-1, 8, size=3)
    for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
        blend = lam * x1 + (1 - lam) * x2
        expected = lam * model.predict_mean(x1) + (1 - lam) * model.predict_mean(x2)
        assert model.predict_mean(blend) == pytest.approx(expected, abs=1e-9)


def test_variance_grows_away_from_training_data():
    X = [[float(i)] for i in range(10)]
    y = [0.1 * i + 0.3 for i in range(10)]
    model = fit(X, y)
    _, var_inside = model.predict([4.5])
    _, var_outside = model.predict([60.0])
    assert var_inside <= var_outside
    assert var_inside >= 1.0 / model.beta  # never below the noise floor


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        fit([[1.0]], [1.0])  # one row
    with pytest.raises(ValueError):
        fit([[1.0], [2.0]], [1.0])  # target length mismatch
    with pytest.raises(ValueError):
        fit([1.0, 2.0], [1.0, 2.0])  # not 2-d


def test_predict_rejects_wrong_width():
    model = fit([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        model.predict([1.0])


def test_wide_problem_is_still_solvable():
    # more features than rows: the ridge term keeps the system invertible
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(4, 9))
    y = rng.uniform(0, 1, size=4)
    model = fit(X, y)
    assert np.isfinite(model.predict_mean(X[0]))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    X, y = random_dataset(rng, n=16, d=5)
    model = fit(X, y, space_checksum="abc123")
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SurrogateModel.load(path)
    assert loaded.space_checksum == "abc123"
    probe = rng.uniform(-2, 9, size=5)
    assert loaded.predict(probe) == model.predict(probe)
    assert loaded == model


def test_training_set_validation_and_fit():
    # A training set checks no shapes itself; ``fit`` rejects the ones that do
    # not fit together.
    with pytest.raises(ValueError):
        fit(*TrainingSet(vectors=((1.0,), (2.0,)), targets=(0.1, 0.2, 0.3)))
    with pytest.raises(ValueError):
        fit(*TrainingSet(vectors=((1.0,), (1.0, 2.0)), targets=(0.1, 0.2)))
    data = TrainingSet(vectors=((0.0,), (1.0,), (2.0,)), targets=(0.0, 0.5, 1.0))
    model = fit(data.vectors, data.targets)
    assert model.predict_mean((1.0,)) == pytest.approx(0.5, abs=1e-4)


def test_r_squared_perfect_and_constant():
    X = [[float(i)] for i in range(8)]
    y = [3.0 * i - 2.0 for i in range(8)]
    model = fit(X, y)
    assert r_squared(model, X, y) == pytest.approx(1.0, abs=1e-9)


def rebuilt_predict_mean(model, vector):
    """The mean computed with numpy: every array rebuilt from the model's
    tuples, then a BLAS dot product."""
    x = np.asarray(vector, dtype=float)
    lo = np.asarray(model.feature_min, dtype=float)
    span = np.asarray(model.feature_max, dtype=float) - lo
    scaled = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
    return float(np.append(scaled, 1.0) @ np.asarray(model.weights, dtype=float))


def left_to_right_mean(model, vector):
    """The mean as a plain loop in float64: each product rounded, then added
    to a sum that starts at 0.0, with the intercept (times 1.0) last."""
    total = 0.0
    for x, lo, hi, w in zip(vector, model.feature_min, model.feature_max, model.weights):
        x = float(x)
        span = hi - lo
        scaled = (x - lo) / span if span > 0 else 0.0
        total += scaled * w
    return float(total + 1.0 * model.weights[-1])


def prediction_models(tmp_path):
    rng = np.random.default_rng(31)
    models = []
    for d in (1, 4, 13):
        X, y = random_dataset(rng, n=20, d=d)
        models.append(fit(X, y))
        X[:, 0] = 2.5  # a constant feature column: its span is 0
        models.append(fit(X, y))
    path = tmp_path / "model.json"
    models[-1].save(path)
    models.append(SurrogateModel.load(path))
    models.append(SurrogateModel(**{**models[2].to_document(), "space_checksum": "def456"}))
    # Fitting gives a constant column a zero weight; a nonzero one shows
    # whether the column is masked out.
    models.append(SurrogateModel(**{**models[-2].to_document(), "weights": tuple(rng.normal(size=14))}))
    return models


def prediction_cases(tmp_path):
    """(model, raw vector) pairs over every prediction model."""
    rng = np.random.default_rng(8)
    cases = []
    for model in prediction_models(tmp_path):
        for _ in range(200):
            x = rng.uniform(-5, 12, size=model.n_features)
            kind = rng.random()
            if kind < 0.3:
                x = tuple(float(v) for v in x)  # the tuner passes tuples
            elif kind > 0.9:
                x = x.astype(np.float32)
            cases.append((model, x))
    return cases


def test_predict_mean_equals_predict_exactly(tmp_path):
    float32_cases = 0
    for model, x in prediction_cases(tmp_path):
        mean = model.predict_mean(x)
        assert mean == model.predict(x)[0]
        assert mean == left_to_right_mean(model, x)
        if getattr(x, "dtype", None) == np.float32:
            # A float32 vector is scaled and summed in float64, as the same
            # values in a float64 array are.
            float32_cases += 1
            wide = x.astype(float)
            assert mean == model.predict_mean(wide)
            assert model.predict(x) == model.predict(wide)
    assert float32_cases > 100


HASWELL_FEATURES = ("AVX2", "FMA3")
SKYLAKEX_FEATURES = HASWELL_FEATURES + ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL")


def openblas_kernel_selectable(features):
    """Whether an OPENBLAS_CORETYPE whose kernels need the given CPU features
    runs those kernels here: numpy's BLAS must be an OpenBLAS that picks its
    kernels at run time, on an x86-64 CPU with those features. Elsewhere the
    x86 core types are not valid (an aarch64 OpenBLAS would fall back to a
    kernel of its own), or their instructions would not run."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # numpy before 2.0
        try:
            from numpy.core._multiarray_umath import __cpu_features__ as cpu
        except ImportError:
            return False
    if not all(cpu.get(feature) for feature in features):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def fresh_env(**overrides):
    """The environment of a fresh interpreter that imports this checkout's
    cfgtune and this directory's test modules."""
    src = Path(cfgtune.__file__).resolve().parent.parent
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parent), str(src), env.get("PYTHONPATH")])
    )
    return env


# Reads (feature_min, feature_max, weights, vector) cases as JSON on stdin and
# prints the numpy rebuild of each mean; JSON floats round-trip exactly.
REBUILD_RUNNER = """
import json, sys, types
from test_surrogate import rebuilt_predict_mean
cases = json.load(sys.stdin)
print(json.dumps([
    rebuilt_predict_mean(types.SimpleNamespace(feature_min=lo, feature_max=hi, weights=w), x)
    for lo, hi, w, x in cases
]))
"""


@pytest.mark.skipif(
    not openblas_kernel_selectable(HASWELL_FEATURES),
    reason="OPENBLAS_CORETYPE=Haswell selects the Haswell kernel only in a "
    "DYNAMIC_ARCH OpenBLAS on an x86-64 CPU with AVX2 and FMA",
)
def test_predict_mean_equals_numpy_with_the_plain_blas_kernel(tmp_path):
    """OpenBLAS's Haswell kernel runs ``ddot`` as a multiply, then an add; the
    pure-Python mean must give the very same bits. (The SkylakeX kernel fuses
    the two, so the mean does not use BLAS.)"""
    cases = prediction_cases(tmp_path)
    payload = [
        [list(m.feature_min), list(m.feature_max), list(m.weights), [float(v) for v in x]]
        for m, x in cases
    ]
    env = fresh_env(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", REBUILD_RUNNER],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rebuilt = json.loads(proc.stdout)
    assert len(rebuilt) == len(cases)
    for (model, x), expected in zip(cases, rebuilt):
        assert model.predict_mean(x) == expected


@pytest.mark.skipif(
    not openblas_kernel_selectable(SKYLAKEX_FEATURES),
    reason="OPENBLAS_CORETYPE=SkylakeX selects the SkylakeX kernel only in a "
    "DYNAMIC_ARCH OpenBLAS on an x86-64 CPU with AVX-512",
)
def test_fit_writes_the_same_model_under_every_blas_kernel(tmp_path):
    """The quickstart ``fit`` in fresh processes under OpenBLAS's Haswell and
    SkylakeX kernels, which round a multiply-add differently: the same
    ``model.json`` and audit table, byte for byte."""
    pruned = tmp_path / "pruned.json"
    assert main(
        ["prune", "--space", str(CANONICAL_SPACE_FILE), "--budget-mb", "3.0", "--out", str(pruned)]
    ) == 0
    outputs = {}
    for core in ("Haswell", "SkylakeX"):
        model = tmp_path / f"model_{core}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cfgtune", "fit", "--space", str(pruned),
             "--samples", "20", "--seed", "11", "--out", str(model)],
            capture_output=True,
            text=True,
            env=fresh_env(OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1"),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        table = model.with_name(model.stem + ".table.jsonl")
        outputs[core] = (model.read_bytes(), table.read_bytes())
    assert outputs["Haswell"] == outputs["SkylakeX"]


def test_predict_mean_rejects_wrong_shape(tmp_path):
    for model in prediction_models(tmp_path):
        d = model.n_features
        for bad in (np.zeros(d + 1), np.zeros((1, d)), np.zeros(0), 1.0):
            with pytest.raises(ValueError):
                model.predict_mean(bad)


def predictor_cases(canonical_space, mini_space):
    """(model, space) pairs: fitted on listing3 pruned to 3 and 64 MB; with a
    zero-span feature, constant in the training set, that still carries a
    weight; and on a space with single-valued dimensions."""
    cases = []
    for budget_mb in (3.0, 64.0):
        space = cfgtune.prune(canonical_space, cfgtune.SizeConstraint(budget_mb))
        model, training, _ = build_indicator(space, SyntheticCapacityOracle(reference_space=space), k=20, seed=5)
        cases.append((model, space))
    vectors = [list(v) for v in training.vectors]
    for row in vectors:
        row[3] = 512.0
    constant = fit(vectors, training.targets)
    assert constant.feature_min[3] == constant.feature_max[3]
    weights = list(constant.weights)
    weights[3] = 0.75
    cases.append((SurrogateModel(**{**constant.to_document(), "weights": tuple(weights)}), space))
    mini_model, _, _ = build_indicator(mini_space, SyntheticCapacityOracle(reference_space=mini_space), k=20, seed=2)
    cases += [(mini_model, mini_space), (model, mini_space)]
    return cases


def test_genome_predictor_equals_predict_mean_of_the_encoding(canonical_space, mini_space):
    rng = random.Random(12)
    for model, space in predictor_cases(canonical_space, mini_space):
        predict = model.genome_predictor(space)
        genomes = [space.sample_genome(rng) for _ in range(500)]
        for genome in genomes + genomes:  # each term computed, then looked up
            assert repr(predict(genome)) == repr(model.predict_mean(space.encode_genome(genome)))


@pytest.mark.parametrize("budget_mb", [None, 3.0, 64.0])
def test_genome_predictor_is_independent_of_the_order_of_first_touch(canonical_space, budget_mb):
    # Terms are filled per position as indices are first met; two fresh
    # predictors that meet the genomes in opposite orders agree with the
    # encoding's ``predict_mean`` on every genome.
    space = canonical_space if budget_mb is None else cfgtune.prune(canonical_space, cfgtune.SizeConstraint(budget_mb))
    model, _, _ = build_indicator(space, SyntheticCapacityOracle(reference_space=space), k=20, seed=3)
    rng = random.Random(7)
    genomes = [space.sample_genome(rng) for _ in range(2000)]
    forward, backward = model.genome_predictor(space), model.genome_predictor(space)
    expected = [repr(model.predict_mean(space.encode_genome(g))) for g in genomes]
    assert [repr(forward(g)) for g in genomes] == expected
    assert [repr(backward(g)) for g in reversed(genomes)] == expected[::-1]


def test_genome_predictor_rejects_a_model_of_another_width(mini_space):
    model = fit([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="length 2"):
        model.genome_predictor(mini_space)
