"""Configuration tuning for size-constrained transformer models.

Given a declarative 13-dimension model-configuration space, this package
prunes values that cannot fit a parameter-file size budget, fits a Bayesian
ridge surrogate of effectiveness from a handful of scored samples, and runs
a multi-objective evolutionary search returning the Pareto front over
(model size, forward GFLOPs, predicted effectiveness).

Importing the package, pruning, tuning and reporting do not import numpy;
fitting the surrogate, and its predictive variance, import it on first use.
Every name below is bound eagerly.
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
    PruneReport,
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
from .surrogate import SurrogateModel, TrainingSet, fit, r_squared
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

__all__ = [
    "__version__",
    "CANONICAL_DIMENSIONS",
    "CATEGORICAL_DIMENSIONS",
    "DEFAULT_CARBON_INTENSITY",
    "MEGABYTE",
    "SIZE_RELEVANT_DIMENSIONS",
    "Configuration",
    "ConfigurationSpace",
    "Dimension",
    "DistillationBatch",
    "EmptyFeasibleSpaceError",
    "ExternalProcessOracle",
    "GenerationRecord",
    "Individual",
    "ObjectiveVector",
    "OracleError",
    "OracleProcessError",
    "OracleResponseError",
    "OracleTimeoutError",
    "ParetoArchive",
    "PruneReport",
    "SizeBreakdown",
    "SizeConstraint",
    "SpaceFormatError",
    "SurrogateModel",
    "SyntheticCapacityOracle",
    "TrainingSet",
    "TuneResult",
    "TunerParams",
    "UnsatisfiableSpaceError",
    "ValidationResult",
    "adaptive_random_init",
    "boundary_random_mutation",
    "build_indicator",
    "co2_emissions_kg",
    "correct",
    "crossover_at",
    "crowding_distances",
    "dominates",
    "fit",
    "forward_gflops",
    "forward_pass_flops",
    "hypervolume",
    "kd_loss",
    "load_space",
    "min_corner_bytes",
    "model_size_breakdown",
    "model_size_mb",
    "parameter_file_bytes",
    "parse_space",
    "prune",
    "prune_report",
    "r_squared",
    "reference_point",
    "save_space",
    "select_deployment_config",
    "space_from_mapping",
    "tournament_select",
    "training_energy_kwh",
    "tune",
    "two_point_crossover",
    "update_archive",
]
