"""Split-time prediction for middle distance triathlons.

Predicts per-discipline intermediate times (swim, T1, bike, T2, run) for a
target overall finish time by running a bound-constrained particle swarm
optimizer whose objective rewards plans that preserve the inter-discipline
correlation structure of an archive of real race results.
"""

from .archive import (
    Archive,
    ArchiveError,
    ResultRecord,
    SynthesisError,
    extend_archive,
    load_archive,
    select_group,
    synthesize_archive,
    write_archive_csv,
)
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    RunOutcome,
    emit_report,
    run_experiment,
)
from .preference import (
    DEFAULT_BOUNDS,
    DISCIPLINES,
    ModelConfig,
    NoFeasibleSolutionError,
    PredictionResult,
    SplitVector,
    fitness_literal,
    improvement_time,
    predict,
    preference_fitness,
    resolve_target_ceiling,
    total_time,
)
from .pso import PsoConfig, PsoResult, run
from .stats import (
    CorrelationPair,
    CorrelationUndefinedError,
    archive_correlation,
    pearson,
)
from .timekit import DurationParseError, format_duration, format_split, parse_duration

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "ArchiveError",
    "CorrelationPair",
    "CorrelationUndefinedError",
    "DEFAULT_BOUNDS",
    "DISCIPLINES",
    "DurationParseError",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "ModelConfig",
    "NoFeasibleSolutionError",
    "PredictionResult",
    "PsoConfig",
    "PsoResult",
    "ResultRecord",
    "RunOutcome",
    "SplitVector",
    "SynthesisError",
    "archive_correlation",
    "emit_report",
    "extend_archive",
    "fitness_literal",
    "format_duration",
    "format_split",
    "improvement_time",
    "load_archive",
    "parse_duration",
    "pearson",
    "predict",
    "preference_fitness",
    "resolve_target_ceiling",
    "run",
    "run_experiment",
    "select_group",
    "synthesize_archive",
    "total_time",
    "write_archive_csv",
]
