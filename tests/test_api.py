"""The public API: every top-level name and every public name of
``cemlogrank.oracle`` and ``cemlogrank.survival`` is listed here, so adding
or removing one is a visible edit, and the helpers kept off the top level
still import from their modules."""

import importlib

import pytest

import cemlogrank
from cemlogrank import oracle, survival

PUBLIC = [
    "CemLogrankError",
    "CoarseningScheme",
    "Cohort",
    "ConfigError",
    "DatasetFormatError",
    "ExperimentConfig",
    "ExperimentResult",
    "HazardModel",
    "IptwWeights",
    "LogisticModel",
    "MatchReason",
    "MatchedCohort",
    "MethodSummary",
    "RankDeficiencyError",
    "ReplicateRecord",
    "Scenario",
    "SeparationError",
    "SubjectRecord",
    "TestResult",
    "WeightFunction",
    "WeightOverflowError",
    "__version__",
    "cem_weight",
    "fit_logistic",
    "generate",
    "grid_scheme",
    "iptw_logrank",
    "iptw_weights",
    "kernel",
    "match",
    "omega_n_holds",
    "pooled_at_risk",
    "run_experiment",
    "run_replicate",
    "run_test",
    "statistic_path",
    "variance_estimate",
]

# the oracle's own public functions and result types, not the names it imports
ORACLE = [
    "ClassicalLogrank",
    "DriftDecomposition",
    "MartingaleResidual",
    "classical_logrank",
    "compensator",
    "martingale_residual_mean",
    "nelson_aalen_difference",
    "pooled_by_enumeration",
    "statistic_by_enumeration",
    "statistic_decomposition",
    "stratum_by_comparison",
    "weights_by_enumeration",
]

# the survival module's own classes and functions, not the names it imports
SURVIVAL = [
    "Cohort",
    "SubjectRecord",
    "SubjectRows",
    "build_event_grid",
    "risk_set_sums",
]

MODULE_ONLY = [
    ("simulate", "assign_treatment"),
    ("simulate", "assignment_probability"),
    ("simulate", "draw_covariates"),
    ("simulate", "draw_survival"),
    ("simulate", "replicate_rng"),
    ("iptw", "predict_propensity"),
    ("matching", "StratumId"),
]


def test_top_level_names_are_the_listed_ones():
    assert sorted(cemlogrank.__all__) == PUBLIC


def test_every_listed_name_resolves():
    for name in cemlogrank.__all__:
        assert hasattr(cemlogrank, name), name


@pytest.mark.parametrize("module, name", MODULE_ONLY)
def test_helper_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(f"cemlogrank.{module}"), name)


def defined_names(module) -> list[str]:
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    )


def test_oracle_names_are_the_listed_ones():
    assert defined_names(oracle) == ORACLE


def test_survival_names_are_the_listed_ones():
    assert defined_names(survival) == SURVIVAL


def test_oracle_takes_no_rows():
    # the oracle reads the cohort's columns, so it binds no row type
    assert not hasattr(oracle, "SubjectRecord")
    assert not hasattr(oracle, "EventGrid")
