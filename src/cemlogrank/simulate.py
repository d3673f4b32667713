"""Synthetic cohort generation: independent covariates, logistic treatment
assignment (with or without interaction terms), constant-baseline proportional
hazards for the potential outcomes, and uniform censoring.

Covariates are three standard normals followed by two fair Bernoulli
coordinates.  Replicate r of a scenario draws from the counter-based stream
keyed by (seed, r), so parallel execution order can never change the data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError
from .survival import Cohort
from .util import expit, require_arguments, require_int, require_positive, require_real

AssignmentModel = Literal["model1", "model2"]
Hypothesis = Literal["null", "alternative"]

CONTINUOUS_DIMS = 3
BINARY_DIMS = 2

# treatment-assignment log-odds: intercept, per-covariate slope, and the
# interaction coefficient used only by model2 (x1*x2 + x1*x3)
MODEL1_INTERCEPT = -3.4
MODEL2_INTERCEPT = -3.7
ASSIGN_SLOPE = -0.2
MODEL2_INTERACTION = 0.5

# Ceiling on a scenario's n: generate holds about 128 bytes per subject at
# its peak, so 10**9 subjects already ask for 128 GB; a larger n is refused
# before numpy is asked for arrays it may not even be able to size.
MAX_N = 10**9


@dataclass(frozen=True)
class HazardModel:
    """Constant-in-time conditional hazard,

        rate(x, z) = exp(log_baseline + arm_effect * z + covariate_effect * sum(x)),

    so the cumulative hazard up to time t is t * rate(x, z)."""

    log_baseline: float = -2.0
    arm_effect: float = 0.0
    covariate_effect: float = 0.25

    def rate(self, x, z):
        """Hazard rate of one covariate row, or of each row of a matrix.  A
        log-rate above the float range gives an infinite rate, one below it
        a zero rate, as a baseline of -inf does, whatever the covariates add."""
        if self.log_baseline == -math.inf:
            # a covariate term that overflows to +inf would make the sum NaN
            return np.zeros(np.shape(x)[:-1])[()]
        with np.errstate(over="ignore"):
            return np.exp(
                self.log_baseline + self.arm_effect * z + self.covariate_effect * np.sum(x, axis=-1)
            )


@dataclass(frozen=True)
class Scenario:
    """One data-generating configuration."""

    n: int
    assignment_model: AssignmentModel = "model1"
    hypothesis: Hypothesis = "null"
    treatment_log_hazard: float = -0.4
    covariate_log_hazard: float = 0.25
    baseline_log_hazard: float = -2.0
    censor_upper: float = 10.0
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        require_int("n", self.n, 2, MAX_N)
        require_int("seed", self.seed, 0)
        if self.assignment_model not in ("model1", "model2"):
            raise ConfigError(f"unknown assignment model {self.assignment_model!r}")
        if self.hypothesis not in ("null", "alternative"):
            raise ConfigError(f"unknown hypothesis {self.hypothesis!r}")
        require_real("treatment_log_hazard", self.treatment_log_hazard)
        require_real("covariate_log_hazard", self.covariate_log_hazard)
        # a baseline of -inf is a zero hazard
        if self.baseline_log_hazard != -math.inf:
            require_real("baseline_log_hazard", self.baseline_log_hazard, "be finite or -inf")
        require_positive("censor_upper", self.censor_upper)
        require_positive("horizon", self.horizon)

    def hazard_model(self) -> HazardModel:
        """Hazard of the generated outcomes; the arm effect vanishes under the null."""
        effect = self.treatment_log_hazard if self.hypothesis == "alternative" else 0.0
        return HazardModel(
            log_baseline=self.baseline_log_hazard,
            arm_effect=effect,
            covariate_effect=self.covariate_log_hazard,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        require_arguments(cls, data, "a scenario")
        return cls(**data)


def replicate_rng(seed: int, replicate: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one replicate of one seed, both
    nonnegative integers."""
    require_int("seed", seed, 0)
    require_int("replicate", replicate, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def draw_covariates(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows of (three standard normals, two fair 0/1 draws), independent."""
    if n < 1:
        raise ValueError("need n >= 1")
    xs = np.empty((n, CONTINUOUS_DIMS + BINARY_DIMS))
    xs[:, :CONTINUOUS_DIMS] = rng.standard_normal((n, CONTINUOUS_DIMS))
    xs[:, CONTINUOUS_DIMS:] = rng.integers(0, 2, size=(n, BINARY_DIMS)).astype(float)
    return xs


def assignment_probability(xs: np.ndarray, model: AssignmentModel) -> np.ndarray:
    """Treatment probability per covariate row under the given logistic model."""
    total = xs.sum(axis=1)
    if model == "model1":
        logit = MODEL1_INTERCEPT + ASSIGN_SLOPE * total
    elif model == "model2":
        logit = (
            MODEL2_INTERCEPT
            + ASSIGN_SLOPE * total
            + MODEL2_INTERACTION * (xs[:, 0] * xs[:, 1] + xs[:, 0] * xs[:, 2])
        )
    else:
        raise ValueError(f"unknown assignment model {model!r}")
    return expit(logit)


def assign_treatment(
    rng: np.random.Generator, xs: np.ndarray, model: AssignmentModel
) -> np.ndarray:
    """Independent Bernoulli arm per row at the model's probability."""
    p = assignment_probability(xs, model)
    return (rng.random(len(xs)) < p).astype(np.int64)


def draw_survival(rng: np.random.Generator, x, z: int, hazard: HazardModel):
    """Outcome draw by exact exponential inversion of the linear cumulative
    hazard (a zero rate gives an infinite time, an infinite rate an immediate
    event at time 0): one time for a covariate row, an array of times, in row
    order, for a matrix of rows."""
    rate = hazard.rate(x, z)
    e = rng.exponential(size=None if np.ndim(rate) == 0 else len(rate))
    with np.errstate(divide="ignore", over="ignore"):
        return e / rate


def generate(scenario: Scenario, replicate: int = 0) -> Cohort:
    """Full synthetic cohort for one replicate of a scenario.

    Both potential outcomes are drawn and the one matching the assigned arm is
    kept; the other is discarded.  Censoring is uniform on (0, censor_upper);
    the observed time is the minimum and the event flag records whether the
    outcome preceded censoring.
    """
    rng = replicate_rng(scenario.seed, replicate)
    hazard = scenario.hazard_model()
    n = scenario.n

    xs = draw_covariates(rng, n)
    z = assign_treatment(rng, xs, scenario.assignment_model)
    t_pot0 = draw_survival(rng, xs, 0, hazard)
    t_pot1 = draw_survival(rng, xs, 1, hazard)
    censor = rng.uniform(0.0, scenario.censor_upper, size=n)

    t_true = np.where(z == 1, t_pot1, t_pot0)
    del t_pot0, t_pot1
    observed = np.minimum(t_true, censor)
    event = t_true <= censor
    # the draws go before the columns are copied into the cohort
    del t_true, censor

    return Cohort.from_columns(range(n), xs, z, observed, event, scenario.horizon)
