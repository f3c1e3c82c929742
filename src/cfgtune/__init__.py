"""Configuration tuning for size-constrained transformer models.

Given a declarative 13-dimension model-configuration space, this package
prunes values that cannot fit a parameter-file size budget, fits a Bayesian
ridge surrogate of effectiveness from a handful of scored samples, and runs
a multi-objective evolutionary search returning the Pareto front over
(model size, forward GFLOPs, predicted effectiveness).

The package is pure Python, with no runtime dependency. Every name below is
bound eagerly, since perfbench's tracer reads ``load_space``, ``prune``,
``build_indicator`` and ``tune`` from this module's dict and ``cli``'s. What
makes start-up cheap instead: the record types are named tuples and plain
classes, not dataclasses; the standard-library modules that only the
external oracle or the manifest timestamp need are imported where they are
used; and ``fit`` and ``tune`` hash through :func:`cfgtune.space.sha256`,
the interpreter's built-in SHA-256, which loads no OpenSSL.
"""

__version__ = "0.1.0"

from .costs import (
    DEFAULT_CARBON_INTENSITY,
    MEGABYTE,
    SIZE_RELEVANT_DIMENSIONS,
    SizeBreakdown,
    co2_emissions_kg,
    forward_gflops,
    forward_pass_flops,
    model_size_breakdown,
    model_size_mb,
    parameter_file_bytes,
    training_energy_kwh,
)
from .oracle import (
    DistillationBatch,
    ExternalProcessOracle,
    OracleError,
    OracleProcessError,
    OracleResponseError,
    OracleTimeoutError,
    SyntheticCapacityOracle,
    build_indicator,
    kd_loss,
)
from .pruning import (
    EmptyFeasibleSpaceError,
    SizeConstraint,
    min_corner_bytes,
    prune,
    prune_report,
)
from .space import (
    CANONICAL_DIMENSIONS,
    CATEGORICAL_DIMENSIONS,
    Configuration,
    ConfigurationSpace,
    Dimension,
    SpaceFormatError,
    UnsatisfiableSpaceError,
    ValidationResult,
    correct,
    load_space,
    parse_space,
    save_space,
    space_from_mapping,
)
from .surrogate import ModelFormatError, SurrogateModel, TrainingSet, fit, r_squared
from .tuner import (
    GenerationRecord,
    Individual,
    ObjectiveVector,
    ParetoArchive,
    TuneResult,
    TunerParams,
    adaptive_random_init,
    boundary_random_mutation,
    crossover_at,
    crowding_distances,
    dominates,
    hypervolume,
    reference_point,
    select_deployment_config,
    tournament_select,
    tune,
    two_point_crossover,
    update_archive,
)
