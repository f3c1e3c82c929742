"""Bayesian ridge regression from first principles.

Linear-Gaussian model fit by evidence maximization (fixed-point updates of
the weight precision ``alpha`` and noise precision ``beta``). The intercept
is an appended constant-1 column excluded from the alpha penalty. Features
are min-max scaled with the fit-time statistics stored on the model, so
callers pass raw encoded configuration vectors to both fit and predict.

The posterior mean is computed in pure Python, in one fixed order: starting
from ``0.0``, ``acc += scaled_i * w_i`` over the features left to right (a
multiply rounded, then an add rounded), then the intercept's ``1.0 * w``.
These are the operations of numpy's scaling followed by OpenBLAS's plain
``ddot`` loop, as its Haswell and Zen kernels run it. A BLAS dot product is
not portable: OpenBLAS's SkylakeX kernel fuses each multiply-add and rounds
once, so the same ``model.json`` and seed would give different fronts on
different CPUs. The pure-Python sum gives the same bits everywhere, and it
spares ``tune`` the numpy import.

numpy is imported inside the functions that use it, not at module level:
``fit``, ``r_squared`` and the predictive variance of ``predict``. ``import
cfgtune``, ``prune``, ``tune`` and ``report`` never load it. Every name here is
still bound at import, with no module ``__getattr__``: perfbench's tracer
wraps ``fit`` and ``SurrogateModel.predict_mean`` by reading them from the
module and class dicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .space import atomic_open

# Fixed-point hyperparameter guards: keep the iteration inside a sane box so
# degenerate data (perfect fits, constant targets) cannot overflow.
_PRECISION_FLOOR = 1e-12
_PRECISION_CEIL = 1e12
# Evidence maximization: the starting precisions, the round limit and the
# relative precision shift below which it has converged.
_ALPHA_INIT = 1.0
_BETA_INIT = 1.0
_MAX_ITER = 300
_TOL = 1e-6


@dataclass(frozen=True)
class TrainingSet:
    """Encoded configuration vectors paired with observed effectiveness."""

    vectors: tuple[tuple[float, ...], ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        if len(self.vectors) != len(self.targets):
            raise ValueError("vectors and targets must have equal length")
        if len(self.vectors) >= 1:
            width = len(self.vectors[0])
            if any(len(v) != width for v in self.vectors):
                raise ValueError("all vectors must have the same length")

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class SurrogateModel:
    """Fitted effectiveness predictor. ``weights`` has one entry per feature
    plus a trailing intercept; ``covariance`` is the posterior weight
    covariance used for predictive variance.

    The scaling and the weights as Python floats, and the numpy covariance
    used for the variance, are built once per model, on first use. One method
    scales a vector for both the mean and the variance. ``predict_mean``
    computes the mean only, with no variance; ``predict`` takes its mean from
    it.
    """

    weights: tuple[float, ...]
    alpha: float
    beta: float
    feature_min: tuple[float, ...]
    feature_max: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    n_train: int
    n_iterations: int
    converged: bool
    space_checksum: str | None = None

    @property
    def n_features(self) -> int:
        return len(self.feature_min)

    @cached_property
    def _coefficients(
        self,
    ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """(feature minimums, spans, weights) as Python floats. The span of a
        feature that does not vary is 0.0, and the feature scales to 0.0."""
        lows = tuple(float(lo) for lo in self.feature_min)
        spans = (float(hi) - lo for hi, lo in zip(self.feature_max, lows))
        return (
            lows,
            tuple(span if span > 0 else 0.0 for span in spans),
            tuple(float(w) for w in self.weights),
        )

    @cached_property
    def _covariance(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.covariance, dtype=float)

    def _scaled(self, vector) -> list[float]:
        """The min-max scaled raw vector. Each element is taken as a Python
        float first, so a float32 vector is scaled in float64 as well."""
        if getattr(vector, "ndim", 1) != 1:
            raise ValueError(f"expected a flat vector of length {self.n_features}")
        lows, spans, _ = self._coefficients
        try:
            return [
                (float(x) - lo) / span if span else 0.0
                for x, lo, span in zip(vector, lows, spans, strict=True)
            ]
        except (TypeError, ValueError):
            raise ValueError(
                f"expected a flat vector of length {self.n_features}"
            ) from None

    def predict(self, vector) -> tuple[float, float]:
        """(posterior mean, predictive variance) for one raw feature vector."""
        import numpy as np

        augmented = np.array(self._scaled(vector) + [1.0])
        variance = float(1.0 / self.beta + augmented @ self._covariance @ augmented)
        return self.predict_mean(vector), variance

    def predict_mean(self, vector) -> float:
        """The posterior mean, summed left to right from 0.0 (module docstring)."""
        weights = self._coefficients[2]
        acc = 0.0
        for scaled, w in zip(self._scaled(vector), weights):
            acc += scaled * w
        return acc + weights[-1]  # 1.0 * intercept is the intercept

    def save(self, path) -> None:
        document = {
            "weights": list(self.weights),
            "alpha": self.alpha,
            "beta": self.beta,
            "feature_min": list(self.feature_min),
            "feature_max": list(self.feature_max),
            "covariance": [list(row) for row in self.covariance],
            "n_train": self.n_train,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "space_checksum": self.space_checksum,
        }
        with atomic_open(path) as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        return cls(
            weights=tuple(document["weights"]),
            alpha=float(document["alpha"]),
            beta=float(document["beta"]),
            feature_min=tuple(document["feature_min"]),
            feature_max=tuple(document["feature_max"]),
            covariance=tuple(tuple(row) for row in document["covariance"]),
            n_train=int(document["n_train"]),
            n_iterations=int(document["n_iterations"]),
            converged=bool(document["converged"]),
            space_checksum=document.get("space_checksum"),
        )


def _posterior(
    design: np.ndarray, targets: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the weight posterior. The penalty matrix is
    alpha on every feature coordinate and zero on the intercept."""
    import numpy as np

    d = design.shape[1]
    penalty = np.full(d, alpha)
    penalty[-1] = 0.0
    precision = np.diag(penalty) + beta * (design.T @ design)
    covariance = np.linalg.inv(precision)
    mean = covariance @ (beta * design.T @ targets)
    return mean, covariance


def fit(
    vectors,
    targets,
    update_hyperparameters: bool = True,
    space_checksum: str | None = None,
) -> SurrogateModel:
    """Fit by evidence maximization.

    Each round solves the penalized least squares for the current (alpha,
    beta), then re-estimates them from the effective number of well-determined
    weights gamma = sum beta*lam / (alpha + beta*lam) over the eigenvalues of
    the scaled feature Gram matrix: alpha = gamma / |w_features|^2 and
    beta = (n - gamma) / SSE. Stops when both precisions move by a relative
    amount below ``_TOL``, or after ``_MAX_ITER`` rounds. With
    ``update_hyperparameters=False`` the single solve at the starting
    precisions ``(_ALPHA_INIT, _BETA_INIT)`` is the exact closed-form ridge
    solution.
    """
    import numpy as np

    X = np.asarray(vectors, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2:
        raise ValueError("vectors must form a 2-d array")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 training rows")
    if y.shape != (n,):
        raise ValueError("targets must be a flat sequence matching vectors")

    feature_min = X.min(axis=0)
    feature_max = X.max(axis=0)
    span = feature_max - feature_min
    safe = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (X - feature_min) / safe, 0.0)
    design = np.hstack([scaled, np.ones((n, 1))])

    gram_eigenvalues = np.linalg.eigvalsh(scaled.T @ scaled)
    gram_eigenvalues = np.clip(gram_eigenvalues, 0.0, None)

    alpha, beta = _ALPHA_INIT, _BETA_INIT
    mean, covariance = _posterior(design, y, alpha, beta)
    iterations = 0
    converged = not update_hyperparameters

    if update_hyperparameters:
        for iterations in range(1, _MAX_ITER + 1):
            gamma = float(
                np.sum(beta * gram_eigenvalues / (alpha + beta * gram_eigenvalues))
            )
            feature_norm_sq = float(mean[:-1] @ mean[:-1])
            new_alpha = gamma / max(feature_norm_sq, _PRECISION_FLOOR)
            residual = y - design @ mean
            sse = float(residual @ residual)
            new_beta = max(n - gamma, _PRECISION_FLOOR) / max(sse, _PRECISION_FLOOR)
            new_alpha = float(np.clip(new_alpha, _PRECISION_FLOOR, _PRECISION_CEIL))
            new_beta = float(np.clip(new_beta, _PRECISION_FLOOR, _PRECISION_CEIL))

            alpha_shift = abs(new_alpha - alpha) / max(abs(alpha), _PRECISION_FLOOR)
            beta_shift = abs(new_beta - beta) / max(abs(beta), _PRECISION_FLOOR)
            alpha, beta = new_alpha, new_beta
            mean, covariance = _posterior(design, y, alpha, beta)
            if alpha_shift < _TOL and beta_shift < _TOL:
                converged = True
                break

    return SurrogateModel(
        weights=tuple(float(w) for w in mean),
        alpha=alpha,
        beta=beta,
        feature_min=tuple(float(v) for v in feature_min),
        feature_max=tuple(float(v) for v in feature_max),
        covariance=tuple(tuple(float(c) for c in row) for row in covariance),
        n_train=n,
        n_iterations=iterations,
        converged=converged,
        space_checksum=space_checksum,
    )


def r_squared(model: SurrogateModel, vectors, targets) -> float:
    """Coefficient of determination of the posterior-mean predictions."""
    import numpy as np

    y = np.asarray(targets, dtype=float)
    predictions = np.array([model.predict_mean(v) for v in vectors])
    residual = float(np.sum((y - predictions) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total
