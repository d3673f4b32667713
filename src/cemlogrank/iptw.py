"""Inverse-probability-of-treatment baseline: logistic propensity model via
Newton-Raphson, per-subject inverse weights, and the weighted log-rank test
with its own variance estimator computed over the pooled event grid.

The test shares the matched test's risk-set sums, kernel path and result
builder (see ``logrank``); only the weights and the variance are its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RankDeficiencyError, SeparationError, WeightOverflowError
from .logrank import Direction, TestResult, WeightFunction, _kernel, _path, _test_result, check_decision
from .survival import Cohort, SubjectId, risk_set_sums
from .util import expit, pinv, pinv_array, require_int

DECREMENT_TOL = 1e-12  # score @ H^-1 @ score: the same in any units of the covariates
MAX_ITER = 100
MAX_HALVINGS = 30
# a fitted probability this close to 0 or 1 means the odds left double
# precision: the MLE is drifting to infinity along a separating direction
SATURATION_TOL = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic regression of arm on an intercept plus selected covariates."""

    feature_selector: tuple[int, ...]
    coefficients: tuple[float, ...]
    iterations: int
    log_likelihood: float

    def to_dict(self) -> dict:
        return {
            "feature_columns": [f"x{j + 1}" for j in self.feature_selector],
            "coefficients": list(self.coefficients),
            "iterations": self.iterations,
            "log_likelihood": self.log_likelihood,
        }


# eq=False: the values array has no single truth value, so two weight sets
# compare by identity
@dataclass(frozen=True, eq=False)
class IptwWeights:
    """Per-subject constant weights: 1/p-hat for treated, 1/(1 - p-hat) for
    controls.  Always at least 1 because fitted propensities lie in (0, 1).

    ``values`` is a read-only float array aligned with ``ids``.
    """

    ids: tuple[SubjectId, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.ids),):
            raise ValueError("weights need exactly one value per id")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _design(cohort: Cohort, feature_selector: tuple[int, ...]) -> np.ndarray:
    xs = cohort.covariate_matrix
    for k, j in enumerate(feature_selector):
        require_int("feature column index", j)
        if not 0 <= j < xs.shape[1]:
            raise ConfigError(f"feature column x{j + 1} outside the dataset's {xs.shape[1]} covariates")
        if j in feature_selector[:k]:
            raise ConfigError(f"feature column x{j + 1} selected twice")
    return np.column_stack([np.ones(len(cohort))] + [xs[:, j] for j in feature_selector])


def _log_likelihood(eta: np.ndarray, z: np.ndarray) -> float:
    # sum(z * eta - log(1 + exp(eta))), stable for large |eta|
    return float(np.sum(z * eta - np.logaddexp(0.0, eta)))


def fit_logistic(
    cohort: Cohort, feature_selector: tuple[int, ...] = (0, 1)
) -> LogisticModel:
    """Maximum-likelihood logistic fit of arm on (1, covariates[selector]).

    Newton-Raphson from the intercept-only MLE, on the features centred and
    divided by their largest absolute deviation, so in [-1, 1] in any units;
    a step that lowers the log-likelihood is halved up to 30 times.  It stops
    on the unit-free Newton decrement alone (1e-12, then one last step) and
    maps the coefficients back to the covariates' units.  One arm, no
    convergence in 100 iterations or probabilities saturating at 0/1 raise
    SeparationError; a constant feature, a singular Hessian or values beyond
    the float range raise RankDeficiencyError.  A returned model converged.
    """
    selector = tuple(feature_selector)
    X = _design(cohort, selector)
    z = cohort.arms.astype(float)
    if z.min() == z.max():
        raise SeparationError("all subjects in one arm: logistic MLE diverges")
    features = X[:, 1:].T.copy()  # a contiguous row per feature: fast reductions
    for j, lo, hi in zip(selector, features.min(axis=1), features.max(axis=1)):
        if lo == hi:
            raise RankDeficiencyError(f"feature column x{j + 1} is constant: collinear with the intercept")
    # the largest deviation, not the sd, since the squares of tiny units underflow
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        center = features.mean(axis=1)
        features -= center[:, None]
        scale = np.max(np.abs(features), axis=1)
        X[:, 1:] = (features / scale[:, None]).T
    if not np.isfinite(X).all():
        raise RankDeficiencyError("logistic fit overflowed: rescale the covariates")
    beta = np.array([math.log(z.mean() / (1.0 - z.mean()))] + [0.0] * len(selector))
    eta = X @ beta
    ll = _log_likelihood(eta, z)
    for iterations in range(1, MAX_ITER + 1):
        p = expit(eta)
        score = X.T @ (z - p)
        hessian = X.T @ (X * (p * (1.0 - p))[:, None])
        try:
            newton_step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"singular Hessian in logistic fit: {exc}") from exc
        converged = float(score @ newton_step) <= DECREMENT_TOL
        # halve only on genuine decreases, with slack for float noise near the
        # maximum; after MAX_HALVINGS the last halved step is taken whatever its fit
        floor = ll - 1e-10 * (1.0 + abs(ll))
        for halvings in range(MAX_HALVINGS + 1):
            step = 0.5**halvings * newton_step
            eta = X @ (beta + step)
            ll = _log_likelihood(eta, z)
            if ll >= floor or halvings == MAX_HALVINGS:
                break
        beta = beta + step
        if converged:
            break
    else:
        # no finite MLE exists when Newton cannot reach one (Albert & Anderson 1984)
        raise SeparationError(
            f"logistic fit did not converge in {MAX_ITER} Newton iterations: "
            "complete or quasi-complete separation"
        )

    p = expit(eta)
    if np.any(p <= SATURATION_TOL) or np.any(p >= 1.0 - SATURATION_TOL):
        raise SeparationError(
            "fitted probabilities saturated at 0 or 1: complete or quasi-complete separation"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        slopes = beta[1:] / scale
        coefficients = np.concatenate([[beta[0] - slopes @ center], slopes])
    if not np.isfinite(coefficients).all():
        raise RankDeficiencyError("logistic fit overflowed: rescale the covariates")
    return LogisticModel(selector, tuple(map(float, coefficients)), iterations, ll)


def predict_propensity(model: LogisticModel, cohort: Cohort) -> np.ndarray:
    """Fitted treatment probabilities, in cohort subject order."""
    X = _design(cohort, model.feature_selector)
    return expit(X @ np.asarray(model.coefficients))


def iptw_weights(model: LogisticModel, cohort: Cohort) -> IptwWeights:
    """Inverse-propensity weight per subject, in cohort order; no truncation
    is applied."""
    p = predict_propensity(model, cohort)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise WeightOverflowError("fitted propensity reached 0 or 1")
    z = cohort.arms.astype(float)
    w = z / p + (1.0 - z) / (1.0 - p)
    return IptwWeights(ids=cohort.ids, values=w)


def iptw_logrank(
    cohort: Cohort,
    weights: IptwWeights,
    weight_fn: WeightFunction | None = None,
    alpha: float = 0.05,
    direction: Direction = "two_sided",
    include_path: bool = False,
) -> TestResult:
    """Weighted log-rank test with constant per-subject weights and no matching.

    The statistic uses the same kernel-times-increment construction as the
    matched test, with every subject participating at its own inverse weight.
    The variance integrates, over pooled events s up to the horizon,

        U_s * pinv(Ybar_s * (Ybar_s - 1)) * (Ybar_s - dNbar_s) * dNbar_s

    where U_s mixes the squared at-risk weight sums of the two arms and Ybar /
    dNbar are the unweighted pooled at-risk and event counts, scaled by
    (Y1_0 + Y0_0) * pinv(Y1_0 * Y0_0), the squared front factor of the kernel,
    so degenerate all-ones weights reduce exactly to the classical log-rank.

    ``weights`` must be in cohort order (``weights.ids == cohort.ids``), as
    ``iptw_weights`` returns them; other weights raise ValueError.
    """
    check_decision(alpha, direction)
    if weights.ids != cohort.ids:
        raise ValueError("weights must be given for the cohort's subjects, in cohort order")
    wf = weight_fn or WeightFunction.constant()
    w = weights.values
    z = cohort.arms
    axis, rank = cohort.time_axis
    grid, step = cohort.event_steps
    times = axis[grid]
    w1 = w * (z == 1)
    w0 = w * (z == 0)
    # at each pooled event time in (0, horizon]: the arm-wise at-risk sums of
    # the weights and of the squared weights, and the unweighted pooled count
    a1, a0, q1, q0, yb = (
        risk_set_sums(rank, len(axis), v)[grid] for v in (w1, w0, w1 * w, w0 * w, None)
    )
    # bin 0 collects the subjects without an event in (0, horizon]
    dn1, dn0, d = (
        np.bincount(step + 1, weights=v, minlength=len(grid) + 1)[1:] for v in (w1, w0, None)
    )

    y1_0 = float(w[z == 1].sum())
    y0_0 = float(w[z == 0].sum())
    front_sq = (y1_0 + y0_0) * pinv(y1_0 * y0_0)
    wk = wf.value_at(times)
    path = _path(_kernel(y1_0, y0_0, a1, a0, wk), a1, a0, dn1, dn0)
    u = (a0 * pinv_array(a1 + a0)) ** 2 * q1 + (a1 * pinv_array(a1 + a0)) ** 2 * q0
    var_terms = u * pinv_array(yb * (yb - 1.0)) * (yb - d) * d * wk**2

    n1 = int(np.count_nonzero(z == 1))
    return _test_result(
        times,
        path,
        front_sq * math.fsum(var_terms.tolist()),
        alpha,
        direction,
        include_path,
        omega_n=None,
        n1=n1,
        n0=len(cohort) - n1,
        unmatched_count=0,
        method="iptw",
    )
