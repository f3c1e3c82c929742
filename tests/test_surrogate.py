import dataclasses

import numpy as np
import pytest

from cfgtune import SurrogateModel, TrainingSet, fit, r_squared


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
    with pytest.raises(ValueError):
        TrainingSet(vectors=((1.0,),), targets=(0.1, 0.2))
    with pytest.raises(ValueError):
        TrainingSet(vectors=((1.0,), (1.0, 2.0)), targets=(0.1, 0.2))
    data = TrainingSet(vectors=((0.0,), (1.0,), (2.0,)), targets=(0.0, 0.5, 1.0))
    model = fit(data.vectors, data.targets)
    assert model.predict_mean((1.0,)) == pytest.approx(0.5, abs=1e-4)


def test_r_squared_perfect_and_constant():
    X = [[float(i)] for i in range(8)]
    y = [3.0 * i - 2.0 for i in range(8)]
    model = fit(X, y)
    assert r_squared(model, X, y) == pytest.approx(1.0, abs=1e-9)


def rebuilt_predict_mean(model, vector):
    """The mean as computed before the arrays were cached: every array is
    rebuilt from the model's tuples on each call."""
    x = np.asarray(vector, dtype=float)
    lo = np.asarray(model.feature_min, dtype=float)
    span = np.asarray(model.feature_max, dtype=float) - lo
    scaled = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
    return float(np.append(scaled, 1.0) @ np.asarray(model.weights, dtype=float))


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
    models.append(dataclasses.replace(models[2], space_checksum="def456"))
    # Fitting gives a constant column a zero weight; a nonzero one shows
    # whether the column is masked out.
    models.append(dataclasses.replace(models[-2], weights=tuple(rng.normal(size=14))))
    return models


def test_predict_mean_equals_predict_exactly(tmp_path):
    rng = np.random.default_rng(8)
    for model in prediction_models(tmp_path):
        for _ in range(200):
            x = rng.uniform(-5, 12, size=model.n_features)
            if rng.random() < 0.3:
                x = tuple(float(v) for v in x)  # the tuner passes tuples
            mean = model.predict_mean(x)
            assert mean == model.predict(x)[0]
            assert mean == rebuilt_predict_mean(model, x)


def test_predict_mean_rejects_wrong_shape(tmp_path):
    for model in prediction_models(tmp_path):
        d = model.n_features
        for bad in (np.zeros(d + 1), np.zeros((1, d)), np.zeros(0), 1.0):
            with pytest.raises(ValueError):
                model.predict_mean(bad)
