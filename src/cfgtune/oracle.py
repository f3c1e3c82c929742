"""Ground-truth effectiveness sources and the distillation loss.

Two interchangeable oracles score a configuration in [0, 1]: a closed-form
synthetic benchmark (monotone in model capacity, tokenizer-sensitive, exactly
reproducible) and an external evaluator process spoken to over a line-
delimited JSON request/response file pair. ``build_indicator`` samples the
space, scores the samples, and fits the regression surrogate on the results.

The temperature-scaled distillation loss is included as a pure function so
the soft-target objective that a real student-training evaluator would
minimize is executable and testable here.

numpy is imported inside ``_log_softmax`` and ``kd_loss``, the only functions
here that use it, so that ``import cfgtune`` and the stages that do not fit
(``prune``, ``tune``, ``report``) start without it. Every name here is still
bound at import, with no module ``__getattr__``: perfbench's tracer wraps the
``fit`` imported here by reading it from this module's dict.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import tempfile
from dataclasses import dataclass

from .space import Configuration, ConfigurationSpace
from .surrogate import SurrogateModel, TrainingSet, fit


class OracleError(Exception):
    """Base class for effectiveness-oracle failures."""


class OracleProcessError(OracleError):
    """The external evaluator could not be run or exited with an error."""


class OracleResponseError(OracleError):
    """The evaluator response was missing, malformed, or incomplete."""

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


class OracleTimeoutError(OracleError):
    """The external evaluator exceeded its time limit."""


@dataclass(frozen=True)
class DistillationBatch:
    """Paired teacher/student logit vectors and a softening temperature."""

    teacher_logits: tuple[tuple[float, ...], ...]
    student_logits: tuple[tuple[float, ...], ...]
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if len(self.teacher_logits) != len(self.student_logits):
            raise ValueError("teacher and student batches must have equal length")
        if not self.teacher_logits:
            raise ValueError("batch must contain at least one example")
        for p, q in zip(self.teacher_logits, self.student_logits):
            if len(p) != len(q):
                raise ValueError("paired logit vectors must have equal length")
            if len(p) < 2:
                raise ValueError("logit vectors need at least 2 classes")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    import numpy as np

    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def kd_loss(batch: DistillationBatch) -> float:
    """Soft-target cross entropy between temperature-scaled teacher and
    student distributions, scaled by T^2 and averaged over the batch.

    Minimized exactly when the student logits match the teacher's (up to a
    constant shift); the minimum value is T^2 times the entropy of the
    softened teacher distribution.
    """
    import numpy as np

    p = np.asarray(batch.teacher_logits, dtype=float) / batch.temperature
    q = np.asarray(batch.student_logits, dtype=float) / batch.temperature
    teacher_probs = np.exp(_log_softmax(p))
    per_example = -(teacher_probs * _log_softmax(q)).sum(axis=-1)
    return float(per_example.mean() * batch.temperature**2)


def _log_ramp(value: float, lo: float, hi: float) -> float:
    """Logarithmic ramp from 0 at lo to 1 at hi, clamped to [0, 1]."""
    if value <= 0 or lo <= 0 or hi <= lo:
        return 0.0
    unit = (math.log(value) - math.log(lo)) / (math.log(hi) - math.log(lo))
    return min(1.0, max(0.0, unit))


@dataclass(frozen=True)
class SyntheticCapacityOracle:
    """Closed-form pseudo-accuracy: a capacity score saturating in hidden
    width times depth (weight 0.5), feed-forward width (0.3) and vocabulary
    (0.1), plus a tokenizer preference (0.1, earlier options score higher),
    mapped onto [base, base + span]. Optional Gaussian noise is derived from
    (seed, configuration) only, so evaluation stays pure."""

    reference_space: ConfigurationSpace
    noise_sigma: float = 0.0
    seed: int = 0

    base = 0.55
    span = 0.40

    def _bounds(self, name: str) -> tuple[float, float]:
        dim = self.reference_space.dimension(name)
        return float(dim.min_value()), float(dim.max_value())

    def true_effectiveness(self, config: Configuration) -> float:
        """Noise-free benchmark value; the maximum base + span is attained at
        the capacity maxima combined with the first tokenizer option."""
        h_lo, h_hi = self._bounds("hidden_size")
        l_lo, l_hi = self._bounds("num_hidden_layers")
        i_lo, i_hi = self._bounds("intermediate_size")
        v_lo, v_hi = self._bounds("vocab_size")
        capacity = _log_ramp(
            config.hidden_size * config.num_hidden_layers, h_lo * l_lo, h_hi * l_hi
        )
        feed_forward = _log_ramp(config.intermediate_size, i_lo, i_hi)
        vocabulary = _log_ramp(config.vocab_size, v_lo, v_hi)
        options = self.reference_space.dimension("tokenizer").options
        if len(options) > 1:
            bonus = 1.0 - options.index(config.tokenizer) / (len(options) - 1)
        else:
            bonus = 1.0
        score = 0.5 * capacity + 0.3 * feed_forward + 0.1 * vocabulary + 0.1 * bonus
        return self.base + self.span * score

    def evaluate(self, config: Configuration) -> float:
        value = self.true_effectiveness(config)
        if self.noise_sigma > 0:
            key = json.dumps(
                {"seed": self.seed, "config": config.as_dict()}, sort_keys=True
            )
            rng = random.Random(key)
            value += rng.gauss(0.0, self.noise_sigma)
        return min(1.0, max(0.0, value))

    def evaluate_many(self, configs) -> list[float]:
        return [self.evaluate(c) for c in configs]


# Hard ceiling on evaluator runtime. Real distillation runs take tens of
# minutes per configuration, and one request may carry many, so default to a
# day; override only through the environment.
DEFAULT_ORACLE_TIMEOUT_S = 24 * 60 * 60
TIMEOUT_ENV_VAR = "CFGTUNE_ORACLE_TIMEOUT_S"


def _oracle_timeout_s() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return float(DEFAULT_ORACLE_TIMEOUT_S)
    try:
        value = float(raw)
    except ValueError as err:
        raise OracleError(f"{TIMEOUT_ENV_VAR} must be a number, got {raw!r}") from err
    if value <= 0:
        raise OracleError(f"{TIMEOUT_ENV_VAR} must be positive, got {value}")
    return value


def _kill_process_group(process: subprocess.Popen) -> None:
    """SIGKILL the evaluator's whole process group, then reap the evaluator."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member has already exited
    process.wait()


@dataclass(frozen=True)
class ExternalProcessOracle:
    """Evaluator behind a subprocess boundary.

    The engine writes one JSON object per line, each carrying an id, the full
    13-field configuration, and the space checksum; it then runs the command
    with the request path and a response path appended. The evaluator must
    write one {"id", "effectiveness"} object per line, ids matching the
    request exactly; partial responses are an error. Reported values are
    clamped to [0, 1]. The evaluator runs in a session of its own; on timeout
    its whole process group is killed, so no process it started outlives it.
    """

    command: tuple[str, ...]
    space_checksum: str | None = None

    def evaluate(self, config: Configuration) -> float:
        return self.evaluate_many([config])[0]

    def evaluate_many(self, configs) -> list[float]:
        configs = list(configs)
        ids = [f"cfg-{index}" for index in range(len(configs))]
        with tempfile.TemporaryDirectory(prefix="cfgtune-oracle-") as workdir:
            request_path = os.path.join(workdir, "request.jsonl")
            response_path = os.path.join(workdir, "response.jsonl")
            with open(request_path, "w", encoding="utf-8") as handle:
                for request_id, config in zip(ids, configs):
                    handle.write(
                        json.dumps(
                            {
                                "id": request_id,
                                "config": config.as_dict(),
                                "space_checksum": self.space_checksum,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
            argv = list(self.command) + [request_path, response_path]
            timeout = _oracle_timeout_s()
            try:
                process = subprocess.Popen(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            except OSError as err:
                raise OracleProcessError(f"cannot run evaluator: {err}") from err
            with process:
                try:
                    _, stderr = process.communicate(timeout=timeout)
                except subprocess.TimeoutExpired as err:
                    _kill_process_group(process)
                    raise OracleTimeoutError(f"evaluator exceeded {timeout} s") from err
                except BaseException:
                    _kill_process_group(process)
                    raise
            if process.returncode != 0:
                raise OracleProcessError(
                    f"evaluator exited with status {process.returncode}: "
                    f"{stderr.strip()[:500]}"
                )
            return self._parse_response(response_path, ids)

    def _parse_response(self, response_path: str, ids: list[str]) -> list[float]:
        if not os.path.exists(response_path):
            raise OracleResponseError("evaluator wrote no response file")
        reported: dict[str, float] = {}
        with open(response_path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    request_id = record["id"]
                    value = float(record["effectiveness"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                    raise OracleResponseError(
                        f"malformed response line {line_number}: {err}",
                        partial=reported,
                    ) from err
                if not math.isfinite(value):
                    raise OracleResponseError(
                        f"non-finite effectiveness on response line {line_number}",
                        partial=reported,
                    )
                if request_id in reported:
                    raise OracleResponseError(
                        f"duplicate response id {request_id!r}", partial=reported
                    )
                reported[request_id] = min(1.0, max(0.0, value))
        missing = [i for i in ids if i not in reported]
        extra = sorted(set(reported) - set(ids))
        if missing or extra:
            raise OracleResponseError(
                f"response ids do not match request: missing {missing[:5]}, "
                f"unexpected {extra[:5]}",
                partial=reported,
            )
        return [reported[i] for i in ids]


def build_indicator(
    space: ConfigurationSpace,
    oracle,
    k: int,
    seed: int,
) -> tuple[SurrogateModel, TrainingSet, list[Configuration]]:
    """Sample k configurations, score them, fit the surrogate.

    Returns (model, training set, sampled configurations); rows are kept in
    sampled order so the fit is order-deterministic. Oracle failures abort
    with whatever rows completed attached to the raised error.
    """
    if k < 2:
        raise ValueError("need k >= 2 samples to fit the surrogate")
    configs = space.sample_uniform(k, seed)
    try:
        scores = list(oracle.evaluate_many(configs))
    except OracleError as err:
        # Attach whatever completed so the caller can report partial results.
        partial = getattr(err, "partial", None) or {}
        rows = []
        for index, config in enumerate(configs):
            request_id = f"cfg-{index}"
            if request_id in partial:
                rows.append((config.as_dict(), partial[request_id]))
        err.partial_rows = rows
        raise
    vectors = tuple(space.encode(c) for c in configs)
    targets = tuple(float(s) for s in scores)
    if any(not 0.0 <= t <= 1.0 for t in targets):
        raise OracleResponseError("oracle returned effectiveness outside [0, 1]")
    table = TrainingSet(vectors=vectors, targets=targets)
    model = fit(vectors, targets, space_checksum=space.checksum())
    return model, table, configs
