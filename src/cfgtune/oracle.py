"""Ground-truth effectiveness sources and the distillation loss.

Two interchangeable oracles score a configuration in [0, 1]: a closed-form
synthetic benchmark (monotone in model capacity, tokenizer-sensitive, exactly
reproducible) and an external evaluator process spoken to over a line-
delimited JSON request/response file pair. ``build_indicator`` samples the
space, scores the samples, and fits the regression surrogate on the results.

The temperature-scaled distillation loss is included as a pure function so
the soft-target objective that a real student-training evaluator would
minimize is executable and testable here.

``build_indicator`` calls the ``fit`` bound in this module's dict, so
perfbench's tracer can wrap it there.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import random
from typing import Callable

from .space import CANONICAL_DIMENSIONS, Configuration, ConfigurationSpace, Genome
from .space import is_json_number, scale, write_jsonl
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


class DistillationBatch:
    """Paired teacher/student logit vectors and a softening temperature."""

    def __init__(
        self,
        teacher_logits: tuple[tuple[float, ...], ...],
        student_logits: tuple[tuple[float, ...], ...],
        temperature: float,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if len(teacher_logits) != len(student_logits):
            raise ValueError("teacher and student batches must have equal length")
        if not teacher_logits:
            raise ValueError("batch must contain at least one example")
        for p, q in zip(teacher_logits, student_logits):
            if len(p) != len(q):
                raise ValueError("paired logit vectors must have equal length")
            if len(p) < 2:
                raise ValueError("logit vectors need at least 2 classes")
        self.teacher_logits = teacher_logits
        self.student_logits = student_logits
        self.temperature = temperature


def _log_softmax(logits, temperature: float) -> list[float]:
    """log(softmax(logits / temperature)), shifted by the maximum so that exp
    cannot overflow."""
    scaled = [float(z) / temperature for z in logits]
    top = max(scaled)
    shifted = [z - top for z in scaled]
    log_total = math.log(math.fsum(math.exp(z) for z in shifted))
    return [z - log_total for z in shifted]


def kd_loss(batch: DistillationBatch) -> float:
    """Soft-target cross entropy between temperature-scaled teacher and
    student distributions, scaled by T^2 and averaged over the batch.

    Minimized exactly when the student logits match the teacher's (up to a
    constant shift); the minimum value is T^2 times the entropy of the
    softened teacher distribution.
    """
    t = batch.temperature
    per_example = [
        -math.fsum(math.exp(a) * b for a, b in zip(_log_softmax(p, t), _log_softmax(q, t)))
        for p, q in zip(batch.teacher_logits, batch.student_logits)
    ]
    return math.fsum(per_example) / len(per_example) * t**2


def _ramp(lo: float, hi: float) -> tuple[float, float] | None:
    """``(log lo, log hi - log lo)`` for :func:`_log_ramp`; None for a ramp
    that is constant 0 (``lo <= 0`` or ``hi <= lo``)."""
    if lo <= 0 or hi <= lo:
        return None
    return math.log(lo), math.log(hi) - math.log(lo)


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _log_ramp(value: float, ramp: tuple[float, float] | None) -> float:
    """Logarithmic ramp from 0 at lo to 1 at hi, clamped to [0, 1]."""
    if ramp is None or value <= 0:
        return 0.0
    log_lo, log_span = ramp
    return _clamp(scale(math.log(value), log_lo, log_span))


# The entries of a configuration, a genome or a dimension tuple that the
# synthetic score reads, in the order its terms take them.
_SCORED = ("hidden_size", "num_hidden_layers", "intermediate_size", "vocab_size", "tokenizer")
_scored = operator.itemgetter(*map(CANONICAL_DIMENSIONS.index, _SCORED))


class SyntheticCapacityOracle:
    """Closed-form pseudo-accuracy: a capacity score saturating in hidden
    width times depth (weight 0.5), feed-forward width (0.3) and vocabulary
    (0.1), plus a tokenizer preference (0.1, earlier options score higher),
    mapped onto [base, base + span]. Optional Gaussian noise is derived from
    (seed, configuration) only, so evaluation stays pure."""

    base = 0.55
    span = 0.40

    def __init__(
        self, reference_space: ConfigurationSpace, noise_sigma: float = 0.0, seed: int = 0
    ):
        if not 0 <= noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
        if noise_sigma > 1:  # every score is clamped to [0, 1]
            raise ValueError(f"noise_sigma must be at most 1, got {noise_sigma}")
        self.reference_space = reference_space
        self.noise_sigma = noise_sigma
        self.seed = seed

    @functools.cached_property
    def _terms(self) -> tuple:
        """The capacity term of (hidden size, layers), then the feed-forward,
        vocabulary and tokenizer terms, from the reference space; built once."""
        *numeric, tokenizer = _scored(self.reference_space.dimensions)
        (h_lo, h_hi), (l_lo, l_hi), (i_lo, i_hi), (v_lo, v_hi) = [(dim.lo, dim.hi) for dim in numeric]
        capacity, feed_forward, vocabulary = _ramp(h_lo * l_lo, h_hi * l_hi), _ramp(i_lo, i_hi), _ramp(v_lo, v_hi)
        options = tokenizer.options
        return (
            lambda hidden, layers: _log_ramp(hidden * layers, capacity),
            lambda intermediate: _log_ramp(intermediate, feed_forward),
            lambda vocab: _log_ramp(vocab, vocabulary),
            lambda tokenizer: 1.0 - options.index(tokenizer) / max(1, len(options) - 1),  # one option: 1.0
        )

    def _score(self, capacity: float, feed_forward: float, vocabulary: float, bonus: float) -> float:
        return self.base + self.span * (0.5 * capacity + 0.3 * feed_forward + 0.1 * vocabulary + 0.1 * bonus)

    def true_effectiveness(self, config: Configuration) -> float:
        """Noise-free benchmark value; the maximum base + span is attained at
        the capacity maxima combined with the first tokenizer option."""
        capacity, feed_forward, vocabulary, bonus = self._terms
        h, l, i, v, t = _scored(config)
        return self._score(capacity(h, l), feed_forward(i), vocabulary(v), bonus(t))

    def evaluate(self, config: Configuration) -> float:
        value = self.true_effectiveness(config)
        if self.noise_sigma > 0:
            key = json.dumps({"seed": self.seed, "config": config.as_dict()}, sort_keys=True)
            value += random.Random(key).gauss(0.0, self.noise_sigma)
        return _clamp(value)

    def genome_predictor(self, space: ConfigurationSpace) -> Callable[[Genome], float]:
        """``genome -> evaluate(space.configuration(genome))``, bit for bit.
        Without noise, each term is computed once per value index of ``space``
        (the capacity once per pair of hidden size and layer indices). With
        noise, which is keyed on the configuration's JSON, it is ``evaluate``."""
        if self.noise_sigma > 0:
            configuration = space.configuration
            return lambda genome: self.evaluate(configuration(genome))
        hidden, layers, intermediate, vocab, tokenizer = (dim.domain for dim in _scored(space.dimensions))
        capacity, feed_forward, vocabulary, bonus = self._terms
        capacity_at = functools.cache(lambda h, l: capacity(hidden[h], layers[l]))
        feed_forward_at = functools.cache(lambda i: feed_forward(intermediate[i]))
        vocabulary_at = functools.cache(lambda v: vocabulary(vocab[v]))
        bonus_at = functools.cache(lambda t: bonus(tokenizer[t]))

        def predict(genome: Genome) -> float:
            h, l, i, v, t = _scored(genome)
            return _clamp(self._score(capacity_at(h, l), feed_forward_at(i), vocabulary_at(v), bonus_at(t)))

        return predict

    def evaluate_many(self, configs) -> list[float]:
        return [self.evaluate(c) for c in configs]


# Hard ceiling on evaluator runtime. Real distillation runs take tens of
# minutes per configuration, and one request may carry many, so default to a
# day; override only through the environment.
DEFAULT_ORACLE_TIMEOUT_S = 24 * 60 * 60
TIMEOUT_ENV_VAR = "CFGTUNE_ORACLE_TIMEOUT_S"
MAX_ORACLE_TIMEOUT_S = 2147483.647  # poll()'s longest wait: 2**31 - 1 ms, a C int


def _oracle_timeout_s() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return float(DEFAULT_ORACLE_TIMEOUT_S)
    try:
        value = float(raw)
    except ValueError as err:
        raise OracleError(f"{TIMEOUT_ENV_VAR} must be a number, got {raw!r}") from err
    if not 0 < value <= MAX_ORACLE_TIMEOUT_S:
        raise OracleError(f"{TIMEOUT_ENV_VAR} must be in (0, {MAX_ORACLE_TIMEOUT_S}], got {raw!r}")
    return value


def _kill_process_group(process) -> None:
    """SIGKILL the evaluator's whole process group, then reap the evaluator."""
    import signal

    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member has already exited
    process.wait()


class ExternalProcessOracle:
    """Evaluator behind a subprocess boundary.

    The engine writes one JSON object per line, each carrying an id, the full
    13-field configuration, and the space checksum; it then runs the command
    with the request path and a response path appended. The evaluator must
    write one {"id", "effectiveness"} object per line, ids matching the
    request exactly; partial responses are an error. Reported values are
    clamped to [0, 1]. The evaluator runs in a session of its own; on timeout
    its whole process group is killed, so no process it started outlives it.
    The modules that run it are imported on the first call, so a process that
    never runs an evaluator does not load them.
    """

    def __init__(self, command: tuple[str, ...], space_checksum: str | None = None):
        self.command = command
        self.space_checksum = space_checksum

    def evaluate(self, config: Configuration) -> float:
        return self.evaluate_many([config])[0]

    def evaluate_many(self, configs) -> list[float]:
        import subprocess
        import tempfile

        timeout = _oracle_timeout_s()  # a bad setting fails before any evaluator starts
        configs = list(configs)
        ids = [f"cfg-{index}" for index in range(len(configs))]
        with tempfile.TemporaryDirectory(prefix="cfgtune-oracle-") as workdir:
            request_path = os.path.join(workdir, "request.jsonl")
            response_path = os.path.join(workdir, "response.jsonl")
            write_jsonl(
                request_path,
                (
                    {"id": i, "config": c.as_dict(), "space_checksum": self.space_checksum}
                    for i, c in zip(ids, configs)
                ),
            )
            argv = list(self.command) + [request_path, response_path]
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
                    request_id, value = record["id"], record["effectiveness"]
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                    raise OracleResponseError(
                        f"malformed response line {line_number}: {err}",
                        partial=reported,
                    ) from err
                if not isinstance(request_id, str):
                    raise OracleResponseError(
                        f"response id on line {line_number} is not a string: {request_id!r}",
                        partial=reported,
                    )
                if not is_json_number(value):
                    raise OracleResponseError(
                        f"non-finite or non-numeric effectiveness on response line {line_number}",
                        partial=reported,
                    )
                if request_id in reported:
                    raise OracleResponseError(
                        f"duplicate response id {request_id!r}", partial=reported
                    )
                reported[request_id] = _clamp(float(value))
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
