"""Bayesian ridge regression from first principles.

Linear-Gaussian model fit by evidence maximization (fixed-point updates of
the weight precision ``alpha`` and noise precision ``beta``). The intercept
is an appended constant-1 column excluded from the alpha penalty. Features
are min-max scaled with the fit-time statistics stored on the model, so
callers pass raw encoded configuration vectors to both fit and predict.

Everything is pure Python in a fixed order, so ``fit`` writes the same
``model.json``, and ``tune`` finds the same front, on every CPU. (A BLAS does
not: OpenBLAS's SkylakeX kernel fuses each multiply-add, where its Haswell
kernel rounds twice.) Sums of more than two terms are ``math.fsum``, which
rounds once whatever the order of its terms; the builtin ``sum`` is not, since
Python 3.12 compensates it. The posterior mean, on ``tune``'s hot path, is a
plain loop instead: from ``0.0``, ``acc += scaled_i * w_i`` over the features
left to right, then the intercept's ``1.0 * w``, as OpenBLAS's Haswell
``ddot`` computes it.

Every name here is bound at import: perfbench's tracer wraps ``fit`` and
``SurrogateModel.predict_mean`` by reading them from the module and class dicts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from math import fsum
from operator import mul

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


class ModelFormatError(ValueError):
    """A model is missing a field, or its arrays do not fit together."""


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
    covariance used for predictive variance. Arrays whose shapes do not fit
    together raise ``ModelFormatError``.

    The scaling and the weights as Python floats are built once per model, on
    first use. ``predict_mean`` computes the mean only; ``predict`` takes its
    mean from it and adds the variance.
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

    def __post_init__(self):
        d = len(self.feature_min)
        sizes = (len(self.weights), len(self.feature_max) + 1, len(self.covariance))
        if any(size != d + 1 for size in sizes + tuple(map(len, self.covariance))):
            raise ModelFormatError(f"weights, feature_max or covariance do not fit {d} features")

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
        augmented = self._scaled(vector) + [1.0]
        spread = fsum(a * _dot(row, augmented) for a, row in zip(augmented, self.covariance))
        return self.predict_mean(vector), 1.0 / self.beta + spread

    def predict_mean(self, vector) -> float:
        """The posterior mean, summed left to right from 0.0 (module docstring)."""
        weights = self._coefficients[2]
        acc = 0.0
        for scaled, w in zip(self._scaled(vector), weights):
            acc += scaled * w
        return acc + weights[-1]  # 1.0 * intercept is the intercept

    def save(self, path) -> None:
        with atomic_open(path) as handle:
            json.dump(dataclasses.asdict(self), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        try:
            return cls(
                weights=tuple(map(float, document["weights"])),
                alpha=float(document["alpha"]),
                beta=float(document["beta"]),
                feature_min=tuple(map(float, document["feature_min"])),
                feature_max=tuple(map(float, document["feature_max"])),
                covariance=tuple(tuple(map(float, row)) for row in document["covariance"]),
                n_train=int(document["n_train"]),
                n_iterations=int(document["n_iterations"]),
                converged=bool(document["converged"]),
                space_checksum=document.get("space_checksum"),
            )
        except KeyError as err:
            raise ModelFormatError(f"model file {path} has no {err} field") from None
        except (TypeError, ValueError) as err:
            raise ModelFormatError(f"malformed model file {path}: {err}") from None


def _inverse(matrix: list[list[float]]) -> list[list[float]]:
    """The inverse by Gauss-Jordan elimination with partial pivoting."""
    size = len(matrix)
    rows = [list(row) + [float(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = head = [v / scale for v in rows[col]]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(row, head)]
    return [row[size:] for row in rows]


def _dot(a, b) -> float:
    return fsum(map(mul, a, b))


def fit(
    vectors,
    targets,
    update_hyperparameters: bool = True,
    space_checksum: str | None = None,
) -> SurrogateModel:
    """Fit by evidence maximization.

    Each round solves the penalized least squares for the current (alpha,
    beta), then re-estimates them from the effective number of well-determined
    weights gamma = d - alpha * tr((alpha*I + beta*G)^-1), where G is the
    scaled feature Gram matrix and d its width: alpha = gamma / |w_features|^2
    and beta = (n - gamma) / SSE. Stops when both precisions move by a relative
    amount below ``_TOL``, or after ``_MAX_ITER`` rounds. With
    ``update_hyperparameters=False`` the single solve at the starting
    precisions ``(_ALPHA_INIT, _BETA_INIT)`` is the exact closed-form ridge
    solution. ``vectors`` and ``targets`` may be numpy arrays.
    """
    message = "vectors must form a 2-d array, and targets a flat sequence"
    if getattr(vectors, "ndim", 2) != 2 or getattr(targets, "ndim", 1) != 1:
        raise ValueError(message)  # numpy would turn a 1-element array into a float
    try:
        X = [[float(v) for v in row] for row in vectors]
        y = [float(t) for t in targets]
    except TypeError:
        raise ValueError(message) from None
    if len(X) < 2:
        raise ValueError("need at least 2 training rows")
    if len(y) != len(X) or any(len(row) != len(X[0]) for row in X):
        raise ValueError("vectors must form a 2-d array, and targets one value per row")
    n, d = len(X), len(X[0])
    feature_min = [min(column) for column in zip(*X)]
    feature_max = [max(column) for column in zip(*X)]
    design = [
        [(x - lo) / (hi - lo) if hi > lo else 0.0 for x, lo, hi in zip(row, feature_min, feature_max)]
        + [1.0]
        for row in X
    ]
    columns = list(zip(*design))
    gram = [[_dot(a, b) for b in columns] for a in columns]
    moments = [_dot(column, y) for column in columns]

    def inverse_precision(alpha: float, beta: float, size: int) -> list[list[float]]:
        """The inverse of beta * gram plus alpha on the feature diagonal (the
        intercept is not penalized), over the first ``size`` coordinates."""
        return _inverse(
            [[beta * gram[i][j] + (alpha if i == j < d else 0.0) for j in range(size)]
             for i in range(size)]
        )

    def posterior(alpha: float, beta: float) -> tuple[list[float], list[list[float]]]:
        covariance = inverse_precision(alpha, beta, d + 1)
        return [beta * _dot(row, moments) for row in covariance], covariance

    alpha, beta = _ALPHA_INIT, _BETA_INIT
    mean, covariance = posterior(alpha, beta)
    iterations = 0
    converged = not update_hyperparameters

    if update_hyperparameters:
        for iterations in range(1, _MAX_ITER + 1):
            shrunk = inverse_precision(alpha, beta, d)
            gamma = d - alpha * fsum(row[i] for i, row in enumerate(shrunk))
            new_alpha = gamma / max(_dot(mean[:-1], mean[:-1]), _PRECISION_FLOOR)
            sse = fsum((t - _dot(row, mean)) ** 2 for row, t in zip(design, y))
            new_beta = max(n - gamma, _PRECISION_FLOOR) / max(sse, _PRECISION_FLOOR)
            new_alpha = min(max(new_alpha, _PRECISION_FLOOR), _PRECISION_CEIL)
            new_beta = min(max(new_beta, _PRECISION_FLOOR), _PRECISION_CEIL)

            alpha_shift = abs(new_alpha - alpha) / max(abs(alpha), _PRECISION_FLOOR)
            beta_shift = abs(new_beta - beta) / max(abs(beta), _PRECISION_FLOOR)
            alpha, beta = new_alpha, new_beta
            mean, covariance = posterior(alpha, beta)
            if alpha_shift < _TOL and beta_shift < _TOL:
                converged = True
                break

    return SurrogateModel(
        weights=tuple(mean),
        alpha=alpha,
        beta=beta,
        feature_min=tuple(feature_min),
        feature_max=tuple(feature_max),
        covariance=tuple(map(tuple, covariance)),
        n_train=n,
        n_iterations=iterations,
        converged=converged,
        space_checksum=space_checksum,
    )


def r_squared(model: SurrogateModel, vectors, targets) -> float:
    """Coefficient of determination of the posterior-mean predictions."""
    y = [float(t) for t in targets]
    residual = fsum((t - model.predict_mean(v)) ** 2 for v, t in zip(vectors, y, strict=True))
    mean = fsum(y) / len(y)
    total = fsum((t - mean) ** 2 for t in y)
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total
