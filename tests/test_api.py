"""The public API: every top-level name is listed here, so adding or removing
one is a visible edit, and the helpers kept off the top level still import
from their modules."""

import importlib

import pytest

import cemlogrank

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
