"""Every input check lives in the type that owns the input and raises
ConfigError, which the CLI maps to exit 2; ConfigError is also a ValueError,
so code that catches ValueError keeps working."""

import math

import numpy as np
import pytest

from cemlogrank import (
    CoarseningScheme,
    Cohort,
    ConfigError,
    ExperimentConfig,
    IptwWeights,
    Scenario,
    WeightFunction,
    fit_logistic,
    generate,
    grid_scheme,
    iptw_logrank,
    match,
    run_test,
)
from cemlogrank.experiment import MAX_THREADS
from cemlogrank.logrank import MAX_WEIGHT
from cemlogrank.matching import MAX_BINS
from cemlogrank.util import require_int

BOX = ([-5.0] * 3, [5.0] * 3)


@pytest.fixture(scope="module")
def cohort():
    return generate(Scenario(n=120, seed=4))


def uniform_weights(cohort):
    return IptwWeights(ids=cohort.ids, values=np.ones(len(cohort)))


OWNER_CHECKS = {
    "scenario-n": lambda c: Scenario(n=1),
    "scenario-seed": lambda c: Scenario(n=200, seed=-1),
    "scenario-model": lambda c: Scenario(n=200, assignment_model="model3"),
    "scenario-horizon": lambda c: Scenario(n=200, horizon=math.inf),
    "scenario-horizon-str": lambda c: Scenario(n=200, horizon="5"),
    "scenario-horizon-bool": lambda c: Scenario(n=200, horizon=True),
    "scenario-censor-upper-str": lambda c: Scenario(n=200, censor_upper="5"),
    "scenario-censor-upper-bool": lambda c: Scenario(n=200, censor_upper=True),
    "scenario-treatment-log-hazard-str": lambda c: Scenario(n=200, treatment_log_hazard="1"),
    "scenario-baseline-log-hazard-none": lambda c: Scenario(n=200, baseline_log_hazard=None),
    "cohort-horizon-str": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], [1.0], [True], "5"),
    "cohort-horizon-none": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], [1.0], [True], None),
    "cohort-horizon-bool": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], [1.0], [True], True),
    "config-theta-overflow": lambda c: ExperimentConfig(Scenario(n=200), theta=1000.0),
    "config-theta-over-ceiling": lambda c: ExperimentConfig(Scenario(n=200), theta=3.0),
    "config-theta-nan": lambda c: ExperimentConfig(Scenario(n=200), theta=math.nan),
    "config-theta-str": lambda c: ExperimentConfig(Scenario(n=200), theta="5"),
    "config-theta-bool": lambda c: ExperimentConfig(Scenario(n=200), theta=True),
    "config-threads-zero": lambda c: ExperimentConfig(Scenario(n=200), threads=0),
    "config-threads-ceiling": lambda c: ExperimentConfig(Scenario(n=200), threads=MAX_THREADS + 1),
    "config-replications": lambda c: ExperimentConfig(Scenario(n=200), replications=2.5),
    "config-alpha": lambda c: ExperimentConfig(Scenario(n=200), alpha=1.0),
    "config-alpha-str": lambda c: ExperimentConfig(Scenario(n=200), alpha="0.5"),
    "config-method": lambda c: ExperimentConfig(Scenario(n=200), method="all"),
    "config-box-dims": lambda c: ExperimentConfig(Scenario(n=200), box_lo=(0.0,) * 2),
    "config-box-span": lambda c: ExperimentConfig(Scenario(n=200), box_hi=(5.0, 5.0, -5.0)),
    "scheme-edges": lambda c: CoarseningScheme(((0.0,),)),
    "scheme-binary-fraction": lambda c: CoarseningScheme(((0.0, 1.0),), binary_dims=1.7),
    "scheme-binary-negative": lambda c: CoarseningScheme(((0.0, 1.0),), binary_dims=-1),
    "scheme-dict-fractions": lambda c: CoarseningScheme.from_dict(
        {"box_lo": BOX[0], "box_hi": BOX[1], "bins_per_dim": 2.9, "binary_dims": 1}
    ),
    "scheme-dict-no-keys": lambda c: CoarseningScheme.from_dict({"edges": 3}),
    "scheme-dict-array": lambda c: CoarseningScheme.from_dict([]),
    "scheme-dict-edges-number": lambda c: CoarseningScheme.from_dict({"continuous_edges": 3}),
    "grid-bins-fraction": lambda c: grid_scheme(*BOX, 2.9),
    "grid-bins-ceiling": lambda c: grid_scheme(*BOX, MAX_BINS + 1),
    "grid-box-span": lambda c: grid_scheme([0.0], [0.0], 2),
    "weight-fn": lambda c: WeightFunction(breakpoints=(1.0,), values=(1.0,)),
    "weight-fn-ceiling": lambda c: WeightFunction(breakpoints=(1.0,), values=(1.0, -2 * MAX_WEIGHT)),
    "weight-fn-dict-null-values": lambda c: WeightFunction.from_dict({"values": None}),
    "weight-fn-dict-no-values": lambda c: WeightFunction.from_dict({}),
    "match-dimension": lambda c: match(c, grid_scheme(*BOX, 4)),
    "logistic-features": lambda c: fit_logistic(c, (0, 8)),
    "logistic-features-fraction": lambda c: fit_logistic(c, (0.9, 1.7)),
    "logistic-features-bool": lambda c: fit_logistic(c, (True, 1)),
    "logistic-features-duplicate": lambda c: fit_logistic(c, (1, 1)),
    "run-test-alpha": lambda c: run_test(match(c, grid_scheme(*BOX, 4, 2)), alpha=0.0),
    "iptw-direction": lambda c: iptw_logrank(c, uniform_weights(c), direction="left"),
    "require-int-bool": lambda c: require_int("k", True, 0),
    "require-int-ceiling": lambda c: require_int("k", 11, 0, 10),
}


@pytest.mark.parametrize("check", OWNER_CHECKS.values(), ids=OWNER_CHECKS.keys())
def test_owner_check_raises_config_error(cohort, check):
    with pytest.raises(ConfigError) as info:
        check(cohort)
    assert isinstance(info.value, ValueError)


def test_feature_error_names_the_column(cohort):
    with pytest.raises(ConfigError, match="x9"):
        fit_logistic(cohort, (8,))


def test_negative_feature_error_names_the_column(cohort):
    with pytest.raises(ConfigError, match="feature column x0 outside"):
        fit_logistic(cohort, (-1,))


def test_ceilings_are_inclusive():
    require_int("k", 10, 0, 10)
    assert WeightFunction.constant(-MAX_WEIGHT).values == (-MAX_WEIGHT,)
    assert ExperimentConfig(Scenario(n=200), threads=MAX_THREADS).threads == MAX_THREADS


def test_config_builds_its_scheme_once():
    config = ExperimentConfig(Scenario(n=5000, seed=1))
    assert config.scheme == grid_scheme(config.box_lo, config.box_hi, 12, 2)
    assert config.bins_per_dim == 12
    assert "scheme" not in config.to_dict()
