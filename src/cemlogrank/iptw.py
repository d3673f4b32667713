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
from .logrank import Direction, TestResult, WeightFunction, _kernel, _path, _test_result
from .survival import Cohort, SubjectId, risk_set_sums
from .util import expit, pinv, pinv_array, require_int

SCORE_TOL = 1e-10
STEP_TOL = 1e-12
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

    Newton-Raphson with step halving (up to 30 halvings when a step lowers the
    log-likelihood).  Converged when the score max-norm falls to 1e-10 or the
    step norm to 1e-12, and the unit-free Newton decrement to 1e-12.  An empty
    arm, no convergence within 100 iterations or fitted probabilities
    saturating at 0/1 mean separation, whatever the covariates' units, and
    raise SeparationError; a singular or overflowing Hessian raises
    RankDeficiencyError.  So a returned model met a tolerance.
    """
    selector = tuple(feature_selector)
    X = _design(cohort, selector)
    z = cohort.arms.astype(float)
    if z.min() == z.max():
        raise SeparationError("all subjects in one arm: logistic MLE diverges")

    beta = np.zeros(X.shape[1])
    eta = X @ beta
    ll = _log_likelihood(eta, z)
    for iterations in range(1, MAX_ITER + 1):
        p = expit(eta)
        # covariates near the float ceiling overflow here; checked below
        with np.errstate(over="ignore", invalid="ignore"):
            score = X.T @ (z - p)
            w = p * (1.0 - p)
            hessian = X.T @ (X * w[:, None])
        if not (np.isfinite(score).all() and np.isfinite(hessian).all()):
            raise RankDeficiencyError("logistic fit overflowed: rescale the covariates")
        try:
            newton_step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"singular Hessian in logistic fit: {exc}") from exc
        # a score or a step small only because of the units leaves the decrement large
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is not converged
            if float(score @ newton_step) <= DECREMENT_TOL:
                if np.max(np.abs(score)) <= SCORE_TOL:
                    iterations -= 1
                    break
                if float(np.linalg.norm(newton_step)) <= STEP_TOL:
                    break
        # halve only on genuine decreases; the slack keeps float noise in a
        # log-likelihood near its maximum from strangling the step.  After
        # MAX_HALVINGS the last halved step is taken whatever its fit.
        floor = ll - 1e-10 * (1.0 + abs(ll))
        step = newton_step
        for halvings in range(MAX_HALVINGS + 1):
            eta = X @ (beta + step)
            ll = _log_likelihood(eta, z)
            if ll >= floor or halvings == MAX_HALVINGS:
                break
            step = 0.5 * step
        beta = beta + step
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
    return LogisticModel(
        feature_selector=selector,
        coefficients=tuple(float(b) for b in beta),
        iterations=iterations,
        log_likelihood=ll,
    )


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
