"""Weighted log-rank testing for treatment/control survival comparison, with
coarsened exact matching of covariates and an inverse-probability-weighting
baseline, plus a reproducible replicated-simulation harness."""

__version__ = "0.1.0"

from .errors import (
    CemLogrankError,
    ConfigError,
    DatasetFormatError,
    RankDeficiencyError,
    SeparationError,
    WeightOverflowError,
)
from .survival import Cohort, SubjectRecord
from .matching import (
    CoarseningScheme,
    MatchReason,
    MatchedCohort,
    cem_weight,
    grid_scheme,
    match,
    omega_n_holds,
    pooled_at_risk,
)
from .logrank import (
    TestResult,
    WeightFunction,
    kernel,
    run_test,
    statistic_path,
    variance_estimate,
)
from .iptw import (
    IptwWeights,
    LogisticModel,
    fit_logistic,
    iptw_logrank,
    iptw_weights,
)
from .simulate import HazardModel, Scenario, generate
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    MethodSummary,
    ReplicateRecord,
    run_experiment,
    run_replicate,
)

__all__ = [
    "__version__",
    "CemLogrankError",
    "ConfigError",
    "DatasetFormatError",
    "RankDeficiencyError",
    "SeparationError",
    "WeightOverflowError",
    "Cohort",
    "SubjectRecord",
    "CoarseningScheme",
    "MatchReason",
    "MatchedCohort",
    "cem_weight",
    "grid_scheme",
    "match",
    "omega_n_holds",
    "pooled_at_risk",
    "TestResult",
    "WeightFunction",
    "kernel",
    "run_test",
    "statistic_path",
    "variance_estimate",
    "IptwWeights",
    "LogisticModel",
    "fit_logistic",
    "iptw_logrank",
    "iptw_weights",
    "HazardModel",
    "Scenario",
    "generate",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodSummary",
    "ReplicateRecord",
    "run_experiment",
    "run_replicate",
]
