"""Every input check lives in the type that owns the input and raises
ConfigError, which the CLI maps to exit 2; ConfigError is also a ValueError,
so code that catches ValueError keeps working."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cemlogrank.experiment import MAX_REPLICATIONS, MAX_THREADS
from cemlogrank.logrank import MAX_WEIGHT
from cemlogrank.matching import MAX_BINS
from cemlogrank.simulate import MAX_N
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
    "scenario-baseline-log-hazard-huge": lambda c: Scenario(n=200, baseline_log_hazard=10**400),
    "scenario-horizon-huge": lambda c: Scenario(n=200, horizon=10**400),
    "scenario-n-ceiling": lambda c: Scenario(n=MAX_N + 1),
    "cohort-horizon-str": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], [1.0], [True], "5"),
    "cohort-horizon-none": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], [1.0], [True], None),
    "cohort-horizon-bool": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], [1.0], [True], True),
    "cohort-ids-number": lambda c: Cohort.from_columns(5, [[0.0]], [1], [1.0], [True], 5.0),
    "cohort-ids-unhashable": lambda c: Cohort.from_columns([[1]], [[0.0]], [1], [1.0], [True], 5.0),
    "cohort-times-str": lambda c: Cohort.from_columns(range(1), [[0.0]], [1], ["x"], [True], 5.0),
    "config-theta-overflow": lambda c: ExperimentConfig(Scenario(n=200), theta=1000.0),
    "config-theta-over-ceiling": lambda c: ExperimentConfig(Scenario(n=200), theta=3.0),
    "config-theta-nan": lambda c: ExperimentConfig(Scenario(n=200), theta=math.nan),
    "config-theta-str": lambda c: ExperimentConfig(Scenario(n=200), theta="5"),
    "config-theta-bool": lambda c: ExperimentConfig(Scenario(n=200), theta=True),
    "config-theta-huge": lambda c: ExperimentConfig(Scenario(n=200), theta=10**400),
    "config-threads-zero": lambda c: ExperimentConfig(Scenario(n=200), threads=0),
    "config-threads-ceiling": lambda c: ExperimentConfig(Scenario(n=200), threads=MAX_THREADS + 1),
    "config-replications": lambda c: ExperimentConfig(Scenario(n=200), replications=2.5),
    "config-replications-ceiling": lambda c: ExperimentConfig(
        Scenario(n=200), replications=MAX_REPLICATIONS + 1
    ),
    "config-scenario-dict": lambda c: ExperimentConfig(scenario={"n": 300}),
    "config-alpha": lambda c: ExperimentConfig(Scenario(n=200), alpha=1.0),
    "config-alpha-str": lambda c: ExperimentConfig(Scenario(n=200), alpha="0.5"),
    "config-method": lambda c: ExperimentConfig(Scenario(n=200), method="all"),
    "config-box-dims": lambda c: ExperimentConfig(Scenario(n=200), box_lo=(0.0,) * 2),
    "config-box-span": lambda c: ExperimentConfig(Scenario(n=200), box_hi=(5.0, 5.0, -5.0)),
    "config-box-number": lambda c: ExperimentConfig(Scenario(n=200), box_lo=3),
    "config-dict-no-scenario": lambda c: ExperimentConfig.from_dict({}),
    "config-dict-scenario-number": lambda c: ExperimentConfig.from_dict({"scenario": 3}),
    "scenario-dict-unknown-key": lambda c: Scenario.from_dict({"m": 1}),
    "scheme-edges": lambda c: CoarseningScheme(((0.0,),)),
    "scheme-binary-fraction": lambda c: CoarseningScheme(((0.0, 1.0),), binary_dims=1.7),
    "scheme-binary-negative": lambda c: CoarseningScheme(((0.0, 1.0),), binary_dims=-1),
    "scheme-edges-number": lambda c: CoarseningScheme(continuous_edges=3),
    "scheme-dict-fractions": lambda c: CoarseningScheme.from_dict(
        {"box_lo": BOX[0], "box_hi": BOX[1], "bins_per_dim": 2.9, "binary_dims": 1}
    ),
    "scheme-dict-no-keys": lambda c: CoarseningScheme.from_dict({"edges": 3}),
    "scheme-dict-array": lambda c: CoarseningScheme.from_dict([]),
    "scheme-dict-edges-number": lambda c: CoarseningScheme.from_dict({"continuous_edges": 3}),
    "scheme-dict-edge-null": lambda c: CoarseningScheme.from_dict({"continuous_edges": [[0, None]]}),
    "scheme-dict-edge-overflow": lambda c: CoarseningScheme.from_dict({"continuous_edges": [[0, 10**400]]}),
    "grid-bins-fraction": lambda c: grid_scheme(*BOX, 2.9),
    "grid-bins-ceiling": lambda c: grid_scheme(*BOX, MAX_BINS + 1),
    "grid-box-span": lambda c: grid_scheme([0.0], [0.0], 2),
    "weight-fn": lambda c: WeightFunction(breakpoints=(1.0,), values=(1.0,)),
    "weight-fn-ceiling": lambda c: WeightFunction(breakpoints=(1.0,), values=(1.0, -2 * MAX_WEIGHT)),
    "weight-fn-dict-null-values": lambda c: WeightFunction.from_dict({"values": None}),
    "weight-fn-dict-no-values": lambda c: WeightFunction.from_dict({}),
    "weight-fn-dict-null-value": lambda c: WeightFunction.from_dict({"values": [None]}),
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


# a malformed element or key raises a ConfigError naming its field or key
NAMED_FIELDS = {
    "continuous_edges": lambda: CoarseningScheme.from_dict({"continuous_edges": [[0, None]]}),
    "breakpoints": lambda: WeightFunction(breakpoints=(10**400,), values=(1.0, 2.0)),
    "values": lambda: WeightFunction.from_dict({"values": [None]}),
    "box_lo": lambda: ExperimentConfig(Scenario(n=200), box_lo=3),
    "box_hi": lambda: ExperimentConfig(Scenario(n=200), box_hi=("5", "5", "5")),
    "'scenario'": lambda: ExperimentConfig.from_dict({}),
    "'m'": lambda: Scenario.from_dict({"n": 200, "m": 1}),
}


@pytest.mark.parametrize("name, check", NAMED_FIELDS.items(), ids=NAMED_FIELDS.keys())
def test_a_malformed_field_or_key_is_named(name, check):
    with pytest.raises(ConfigError, match=name):
        check()


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


# JSON-like values: None, bools, small integers and integers beyond the
# float range and the ceilings, floats with nan and +-inf, strings, and
# lists and objects of these, nested
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 300),
        st.sampled_from([10**400, -(10**400), 2**1024, 10**20]),
        st.floats(),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

SCENARIO = {"n": 50, "assignment_model": "model2", "hypothesis": "alternative",
            "treatment_log_hazard": -0.4, "covariate_log_hazard": 0.25, "baseline_log_hazard": -2.0,
            "censor_upper": 10.0, "horizon": 10.0, "seed": 1}
CONFIG = {"replications": 2, "method": "both", "box_lo": [-5.0] * 3, "box_hi": [5.0] * 3,
          "theta": 0.3, "alpha": 0.05, "threads": 1}
EDGES = {"continuous_edges": [[0.0, 1.0], [-1.0, 0.0, 1.0]], "binary_dims": 1}
WEIGHTS = {"breakpoints": [2.0], "values": [1.0, 0.5]}

# each entry point, whether it reads one object (whose keys may also be
# dropped or added, or which may be replaced whole) rather than keyword
# arguments, and valid arguments for it
ENTRY_POINTS = {
    "Cohort.from_columns": (lambda kw: Cohort.from_columns(**kw), False, {
        "ids": ["a", "b"], "covariates": [[0.0, 1.0], [1.0, 0.0]], "arms": [0, 1],
        "times": [1.0, 2.0], "events": [True, False], "horizon": 5.0}),
    "CoarseningScheme": (lambda kw: CoarseningScheme(**kw), False, EDGES),
    "CoarseningScheme.from_dict": (CoarseningScheme.from_dict, True, EDGES),
    "CoarseningScheme.from_dict-grid": (CoarseningScheme.from_dict, True, {
        "box_lo": [-5.0, 0.0], "box_hi": [5.0, 1.0], "bins_per_dim": 2, "binary_dims": 1}),
    "WeightFunction": (lambda kw: WeightFunction(**kw), False, WEIGHTS),
    "WeightFunction.from_dict": (WeightFunction.from_dict, True, WEIGHTS),
    "Scenario": (lambda kw: Scenario(**kw), False, SCENARIO),
    "Scenario.from_dict": (Scenario.from_dict, True, SCENARIO),
    "ExperimentConfig": (lambda kw: ExperimentConfig(**kw), False, {"scenario": Scenario(n=50), **CONFIG}),
    "ExperimentConfig.from_dict": (ExperimentConfig.from_dict, True, {"scenario": SCENARIO, **CONFIG}),
}


def element_paths(value, prefix=()):
    """The path of every key and element of nested dicts and lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from element_paths(item, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_entry_points_build_or_raise_config_error(data):
    """Valid arguments with one to three values replaced by JSON-like ones,
    or keys of an object dropped or added, either build or raise
    ConfigError; a scenario that builds has a hazard rate."""
    build, reads_object, valid = ENTRY_POINTS[data.draw(st.sampled_from(sorted(ENTRY_POINTS)))]
    args = copy.deepcopy(valid)
    if reads_object and data.draw(st.integers(0, 9)) == 0:
        args = data.draw(JSON_VALUES)
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            added = [("extra",)] if reads_object else []
            path = data.draw(st.sampled_from(list(element_paths(args)) + added))
            parent = args
            for key in path[:-1]:
                parent = parent[key]
            # a keyword argument is never dropped or added
            if isinstance(parent, dict) and (reads_object or len(path) > 1) and data.draw(st.booleans()):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        built = build(args)
    except ConfigError:
        return
    scenario = built.scenario if isinstance(built, ExperimentConfig) else built
    if isinstance(scenario, Scenario):
        scenario.hazard_model().rate(np.zeros(5), 1)
