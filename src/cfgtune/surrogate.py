"""Bayesian ridge regression from first principles.

Linear-Gaussian model fit by evidence maximization (fixed-point updates of
the weight precision ``alpha`` and noise precision ``beta``). The intercept
is an appended constant-1 column excluded from the alpha penalty. Features
are min-max scaled with the fit-time statistics stored on the model, so
callers pass raw encoded configuration vectors to both fit and predict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import atomic_open

# Fixed-point hyperparameter guards: keep the iteration inside a sane box so
# degenerate data (perfect fits, constant targets) cannot overflow.
_PRECISION_FLOOR = 1e-12
_PRECISION_CEIL = 1e12


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

    The numpy copies of the scaling, the weights and the covariance are built
    once per model, on first use, and ``predict_mean`` computes the mean only,
    with no variance, by the same operations as ``predict``.
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
    def _scaling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(feature minimum, mask of varying features, span with 1 where 0)."""
        lo = np.asarray(self.feature_min, dtype=float)
        span = np.asarray(self.feature_max, dtype=float) - lo
        varying = span > 0
        return lo, varying, np.where(varying, span, 1.0)

    @cached_property
    def _weights(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @cached_property
    def _covariance(self) -> np.ndarray:
        return np.asarray(self.covariance, dtype=float)

    def _augmented(self, vector) -> np.ndarray:
        """Min-max scaled raw vector with the trailing constant 1."""
        x = np.asarray(vector, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(
                f"expected vector of length {self.n_features}, got shape {x.shape}"
            )
        lo, varying, safe = self._scaling
        return np.append(np.where(varying, (x - lo) / safe, 0.0), 1.0)

    def predict(self, vector) -> tuple[float, float]:
        """(posterior mean, predictive variance) for one raw feature vector."""
        augmented = self._augmented(vector)
        mean = float(augmented @ self._weights)
        variance = float(1.0 / self.beta + augmented @ self._covariance @ augmented)
        return mean, variance

    def predict_mean(self, vector) -> float:
        return float(self._augmented(vector) @ self._weights)

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
    max_iter: int = 300,
    tol: float = 1e-6,
    alpha_init: float = 1.0,
    beta_init: float = 1.0,
    update_hyperparameters: bool = True,
    space_checksum: str | None = None,
) -> SurrogateModel:
    """Fit by evidence maximization.

    Each round solves the penalized least squares for the current (alpha,
    beta), then re-estimates them from the effective number of well-determined
    weights gamma = sum beta*lam / (alpha + beta*lam) over the eigenvalues of
    the scaled feature Gram matrix: alpha = gamma / |w_features|^2 and
    beta = (n - gamma) / SSE. Stops when both precisions move by a relative
    amount below ``tol``. With ``update_hyperparameters=False`` the single
    solve at (alpha_init, beta_init) is the exact closed-form ridge solution.
    """
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

    alpha, beta = float(alpha_init), float(beta_init)
    mean, covariance = _posterior(design, y, alpha, beta)
    iterations = 0
    converged = not update_hyperparameters

    if update_hyperparameters:
        for iterations in range(1, max_iter + 1):
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
            if alpha_shift < tol and beta_shift < tol:
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
    y = np.asarray(targets, dtype=float)
    predictions = np.array([model.predict_mean(v) for v in vectors])
    residual = float(np.sum((y - predictions) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total
