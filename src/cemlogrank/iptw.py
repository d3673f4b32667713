"""Inverse-probability-of-treatment baseline: logistic propensity model via
Newton-Raphson, per-subject inverse weights, and the weighted log-rank test
with its own variance estimator computed over the pooled event grid.

The test shares the matched test's risk-set sums, kernel path and result
builder (see ``logrank``); only the weights and the variance are its own.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import RankDeficiencyError, SeparationError, WeightOverflowError
from .logrank import Direction, TestResult, WeightFunction, _kernel, _path, _test_result
from .survival import Cohort, SubjectId, risk_set_sums
from .util import pinv, pinv_array

SCORE_TOL = 1e-10
STEP_TOL = 1e-12
MAX_ITER = 100
MAX_HALVINGS = 30
DIVERGENCE_NORM = 1e4
# a fitted probability this close to 0 or 1 means the odds left double
# precision: the MLE is drifting to infinity along a separating direction
SATURATION_TOL = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic regression of arm on an intercept plus selected covariates."""

    feature_selector: tuple[int, ...]
    coefficients: tuple[float, ...]
    converged: bool
    iterations: int
    log_likelihood: float

    def to_dict(self) -> dict:
        return {
            "feature_columns": [f"x{j + 1}" for j in self.feature_selector],
            "coefficients": list(self.coefficients),
            "converged": self.converged,
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

    def by_id(self) -> dict[SubjectId, float]:
        return dict(zip(self.ids, self.values.tolist()))


def _design(cohort: Cohort, feature_selector: tuple[int, ...]) -> np.ndarray:
    xs = cohort.covariate_matrix
    bad = [j for j in feature_selector if not 0 <= j < xs.shape[1]]
    if bad:
        raise ValueError(f"feature indices out of range: {bad}")
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
    step norm to 1e-12, within 100 iterations.  Separation raises
    SeparationError, whether caught as an empty arm, a diverging coefficient
    norm, or fitted probabilities saturating at 0/1; a singular Hessian raises
    RankDeficiencyError.
    """
    selector = tuple(int(j) for j in feature_selector)
    z = cohort.arms.astype(float)
    if z.min() == z.max():
        raise SeparationError("all subjects in one arm: logistic MLE diverges")
    X = _design(cohort, selector)

    beta = np.zeros(X.shape[1])
    eta = X @ beta
    ll = _log_likelihood(eta, z)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        p = expit(eta)
        score = X.T @ (z - p)
        if np.max(np.abs(score)) <= SCORE_TOL:
            converged = True
            iterations -= 1
            break
        w = p * (1.0 - p)
        hessian = X.T @ (X * w[:, None])
        try:
            newton_step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"singular Hessian in logistic fit: {exc}") from exc
        if float(np.linalg.norm(newton_step)) <= STEP_TOL:
            converged = True
            break
        # halve only on genuine decreases; the slack keeps float noise in a
        # near-converged log-likelihood from strangling the step.  After
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
        if np.max(np.abs(beta)) > DIVERGENCE_NORM:
            raise SeparationError(
                "logistic coefficients diverged: complete or quasi-complete separation"
            )

    p = expit(eta)
    if np.any(p <= SATURATION_TOL) or np.any(p >= 1.0 - SATURATION_TOL):
        raise SeparationError(
            "fitted probabilities saturated at 0 or 1: complete or quasi-complete separation"
        )
    return LogisticModel(
        feature_selector=selector,
        coefficients=tuple(float(b) for b in beta),
        converged=converged,
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
    if not model.converged:
        raise ValueError("refusing to weight with an unconverged propensity model")
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
    """
    wf = weight_fn or WeightFunction.constant()
    if weights.ids == cohort.ids:
        w = weights.values
    else:
        by_id = weights.by_id()
        missing = [sid for sid in cohort.ids if sid not in by_id]
        if missing:
            raise ValueError(f"weights missing for {len(missing)} subjects (e.g. {missing[0]!r})")
        w = np.array([by_id[sid] for sid in cohort.ids], dtype=float)
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
        float(path[-1]) if len(path) else 0.0,
        front_sq * math.fsum(var_terms.tolist()),
        alpha,
        direction,
        tuple(zip(times.tolist(), path.tolist())) if include_path else None,
        omega_n=None,
        n1=n1,
        n0=len(cohort) - n1,
        unmatched_count=0,
        method="iptw",
    )
