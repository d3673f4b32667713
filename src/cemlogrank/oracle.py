"""Independent brute-force references used to verify the main code paths.

Everything here is deliberately naive: each defining sum is transcribed
directly, as a loop over time points, and the sum at one time runs over every
subject at once as numpy masks over the cohort's columns (O(n) memory, O(n·G)
work for G time points).  Nothing is shared with the optimized sweeps (no
time axis, no cell keys, no running sums), so agreement between this module
and the main path is real evidence, not self-confirmation.  Shipped with the
library so users can re-run the cross-checks on their data.
"""

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .logrank import WeightFunction
from .matching import MatchedCohort, MatchReason
from .simulate import HazardModel, Scenario, generate
from .survival import Cohort
from .util import pinv, pinv_array


def _distinct_times(cohort: Cohort, among: np.ndarray) -> list[float]:
    """The distinct observed times in (0, horizon] of the subjects ``among``
    selects, ascending."""
    t = cohort.times
    return sorted(set(t[among & (t > 0.0) & (t <= cohort.horizon)].tolist()))


def _two_sample_counts(cohort: Cohort, t: float) -> tuple[int, int, int, int]:
    """(Y1, Y0, d1, d0): the treated and the controls at risk at t, and the
    treated and the controls with an event at t."""
    treated = cohort.arms == 1
    dies = cohort.events & (cohort.times == t)
    return tuple(np.count_nonzero(m & a) for m in (cohort.times >= t, dies) for a in (treated, ~treated))


@dataclass(frozen=True)
class ClassicalLogrank:
    """Two-sample log-rank pieces: observed-minus-expected numerator,
    hypergeometric variance, and their standardized ratio."""

    numerator: float
    variance: float
    standardized: float


def classical_logrank(cohort: Cohort) -> ClassicalLogrank:
    """Textbook unweighted two-sample log-rank by direct risk-set enumeration.

    At each distinct event time up to the horizon: numerator adds
    d1 - d * Y1 / Ybar, variance adds Y1 * Y0 * d * (Ybar - d) /
    (Ybar^2 * (Ybar - 1)), the latter dropped when only one subject remains.
    """
    if cohort.arms.all() or not cohort.arms.any():
        raise ValueError("classical log-rank needs both arms nonempty")
    numer_terms, var_terms = [], []
    for t in _distinct_times(cohort, cohort.events):
        y1, y0, d1, d0 = _two_sample_counts(cohort, t)
        ybar = y1 + y0
        d = d1 + d0
        numer_terms.append(d1 - d * y1 / ybar)
        if ybar > 1:
            var_terms.append(y1 * y0 * d * (ybar - d) / (ybar**2 * (ybar - 1)))
    numerator = math.fsum(numer_terms)
    variance = math.fsum(var_terms)
    return ClassicalLogrank(
        numerator=numerator,
        variance=variance,
        standardized=numerator * pinv(math.sqrt(variance)),
    )


def nelson_aalen_difference(cohort: Cohort) -> float:
    """Difference of cumulative hazard-increment sums between arms:
    sum over event times of d1/Y1 - d0/Y0, risk sets enumerated directly."""
    terms = []
    for t in _distinct_times(cohort, cohort.events):
        y1, y0, d1, d0 = _two_sample_counts(cohort, t)
        terms.append(pinv(float(y1)) * d1 - pinv(float(y0)) * d0)
    return math.fsum(terms)


def compensator(cohort: Cohort, hazard: HazardModel, t: float) -> np.ndarray:
    """Each subject's cumulative-hazard compensator at t, in subject order."""
    return _accrued(t, cohort.times, hazard.rate(cohort.covariate_matrix, cohort.arms))


def _accrued(t, observed_times, rate):
    """Compensator at t of each subject, from the columns of the subjects'
    observed times and hazard rates: the hazard accrues only while the
    subject is at risk, min(t, observed_time) times the rate, and over an
    empty interval nothing accrues, even at an infinite rate (where the
    product 0 * inf would be NaN)."""
    at_risk = np.minimum(t, observed_times)
    return np.multiply(at_risk, rate, out=np.zeros(np.shape(rate)), where=at_risk > 0)


@dataclass(frozen=True)
class MartingaleResidual:
    """Monte-Carlo summary of event-count minus compensator residuals."""

    mean: float
    stderr: float
    draws: int
    residual_second_moment: float
    compensator_mean: float


def martingale_residual_mean(scenario: Scenario, replications: int) -> MartingaleResidual:
    """Mean residual (event indicator at the horizon minus the compensator
    there) over fresh replicates, with its standard error.  Each replicate's
    residuals are computed on the cohort's columns and summed with math.fsum."""
    if replications < 100:
        raise ValueError("need at least 100 replications")
    hazard = scenario.hazard_model()
    sums = []
    count = 0
    for r in range(replications):
        cohort = generate(scenario, replicate=r)
        tau, t = cohort.horizon, cohort.times
        n_tau = cohort.events & (t <= tau)
        a_tau = compensator(cohort, hazard, tau)
        resid = n_tau - a_tau
        sums.append([math.fsum(v.tolist()) for v in (resid, resid * resid, a_tau)])
        count += len(cohort)
    total, total_sq, total_a = map(math.fsum, zip(*sums))
    mean = total / count
    var = total_sq / count - mean * mean
    return MartingaleResidual(
        mean=mean,
        stderr=math.sqrt(max(var, 0.0) / count),
        draws=count,
        residual_second_moment=total_sq / count,
        compensator_mean=total_a / count,
    )


# ---------------------------------------------------------------------------
# Naive evaluation of the matched weighted statistic, straight from the
# defining sums: each time point recounts every cell's risk sets from scratch.


@functools.lru_cache(maxsize=8)
def stratum_by_comparison(mc: MatchedCohort) -> Mapping:
    """Every subject id mapped to the StratumId of its matched cell, or else
    to the MatchReason it was left out, each cell found by comparing every
    covariate with every bin edge of the scheme under the (lo, hi] rule and
    every binary covariate with exactly 0 and 1.

    Cached for the last few matched cohorts, which hash by identity; the
    mapping is read-only because every caller shares it.
    """
    scheme = mc.scheme

    def cell_of(x) -> tuple[int, ...] | None:
        bins = [[k for k in range(len(e) - 1) if e[k] < v <= e[k + 1]]
                for v, e in zip(x, scheme.continuous_edges)]
        binary = x[scheme.continuous_dims:]
        if all(bins) and all(v == 0.0 or v == 1.0 for v in binary):
            return tuple(b[0] for b in bins) + tuple(int(v) for v in binary)
        return None

    cohort = mc.cohort
    cells = dict(zip(cohort.ids, map(cell_of, cohort.covariate_matrix.tolist())))
    arms_in = {}
    for cell, arm in zip(cells.values(), cohort.arms.tolist()):
        arms_in.setdefault(cell, set()).add(arm)
    return MappingProxyType({
        sid: MatchReason.OUTSIDE_REGION if cell is None
        else cell if arms_in[cell] == {0, 1}
        else MatchReason.NO_CROSS_ARM_PARTNER
        for sid, cell in cells.items()
    })


@functools.lru_cache(maxsize=8)
def _cell_labels(mc: MatchedCohort) -> np.ndarray:
    """Each subject's matched cell by ``stratum_by_comparison``, numbered 1,
    2, ... in order of first appearance, or 0 when the subject is unmatched;
    cached and read-only as that mapping is."""
    strata = stratum_by_comparison(mc)
    numbers = {}
    labels = np.array([
        0 if isinstance(cell, MatchReason) else numbers.setdefault(cell, len(numbers) + 1)
        for cell in map(strata.__getitem__, mc.cohort.ids)
    ], dtype=np.intp)
    labels.setflags(write=False)
    return labels


def weights_by_enumeration(mc: MatchedCohort, t: float) -> np.ndarray:
    """Each subject's weight at t, in subject order: 1 for a matched treated
    subject, pinv(r0) * r1 for a matched control, where r1 and r0 count the
    treated and the controls of its cell at risk at t, and 0 when unmatched."""
    labels = _cell_labels(mc)
    treated = mc.cohort.arms == 1
    at_risk = mc.cohort.times >= t
    size = labels.max() + 1
    r1 = np.bincount(labels[at_risk & treated], minlength=size)
    r0 = np.bincount(labels[at_risk & ~treated], minlength=size)
    control_weight = pinv_array(r0) * r1
    return np.where(labels == 0, 0.0, np.where(treated, 1.0, control_weight[labels]))


def _pooled(cohort: Cohort, weights: np.ndarray, arm: int, t: float) -> float:
    return math.fsum(weights[(cohort.arms == arm) & (cohort.times >= t)].tolist())


def pooled_by_enumeration(mc: MatchedCohort, arm: int, t: float) -> float:
    """Weighted at-risk total of ``arm`` at t: the fsum of the weights at t of
    its subjects at risk at t."""
    return _pooled(mc.cohort, weights_by_enumeration(mc, t), arm, t)


def _kernel(mc: MatchedCohort, weight_fn: WeightFunction | None):
    """t -> (weights at t, Y1(t), Y0(t), K(t)), the pooled totals by
    enumeration and K(t) = sqrt(Y(0) / (Y1(0) Y0(0))) Y1(t) Y0(t) / Y(t) W(t)."""
    wf = weight_fn or WeightFunction.constant()
    y1_0, y0_0 = (pooled_by_enumeration(mc, arm, 0.0) for arm in (1, 0))
    front = math.sqrt((y1_0 + y0_0) * pinv(y1_0 * y0_0))

    def at(t: float):
        w = weights_by_enumeration(mc, t)
        y1, y0 = (_pooled(mc.cohort, w, arm, t) for arm in (1, 0))
        return w, y1, y0, front * pinv(y1 + y0) * y1 * y0 * wf.value_at(t)

    return at


def statistic_by_enumeration(mc: MatchedCohort, weight_fn: WeightFunction | None = None) -> float:
    """Matched weighted log-rank statistic at the horizon, recomputed from the
    defining sums at each event time in (0, horizon] without any state."""
    kernel_at = _kernel(mc, weight_fn)
    cohort = mc.cohort
    matched_events = (_cell_labels(mc) > 0) & cohort.events
    terms = []
    for t in _distinct_times(cohort, cohort.events):
        w, y1, y0, k = kernel_at(t)
        dies = matched_events & (cohort.times == t)
        dn1, dn0 = (math.fsum(w[dies & (cohort.arms == arm)].tolist()) for arm in (1, 0))
        terms.append(k * (pinv(y1) * dn1 - pinv(y0) * dn0))
    return math.fsum(terms)


@dataclass(frozen=True)
class DriftDecomposition:
    """Split of the matched statistic into per-arm compensated (martingale)
    parts and per-arm systematic drift parts; their signed sum reproduces the
    statistic when the generating hazard is known."""

    martingale_treated: float
    martingale_control: float
    drift_treated: float
    drift_control: float

    @property
    def total(self) -> float:
        return (
            self.martingale_treated
            - self.martingale_control
            + self.drift_treated
            - self.drift_control
        )


def statistic_decomposition(
    mc: MatchedCohort, hazard: HazardModel, weight_fn: WeightFunction | None = None
) -> DriftDecomposition:
    """Assemble the event-driven and compensator-driven parts of the statistic
    with the known generating hazard, by direct interval integration.

    All integrands are step functions between consecutive matched observed
    times, so each time integral is an exact finite sum with the integrand
    evaluated at the right endpoint of each interval (left-continuous
    processes are constant on the open interval and at its right end).
    """
    kernel_at = _kernel(mc, weight_fn)
    cohort = mc.cohort
    matched = _cell_labels(mc) > 0
    rates = hazard.rate(cohort.covariate_matrix, cohort.arms)
    arms = {arm: matched & (cohort.arms == arm) for arm in (1, 0)}

    # over the interval partition (lo, hi]: the event-driven halves sum
    # K * pinv(pooled) * weight over the arm's events at hi, the
    # compensator-driven and drift halves integrate over the interval
    event_half, comp_half, drift_half = ({1: [], 0: []} for _ in range(3))
    lo = 0.0
    for hi in sorted({*_distinct_times(cohort, matched), cohort.horizon}):
        w, y1, y0, k = kernel_at(hi)
        dies = cohort.events & (cohort.times == hi)
        for arm, pooled in ((1, y1), (0, y0)):
            sel, scale = arms[arm], k * pinv(pooled)
            times, rate, weight = cohort.times[sel], rates[sel], w[sel]
            event_half[arm].extend((scale * weight[dies[sel]]).tolist())
            accrued = _accrued(hi, times, rate) - _accrued(lo, times, rate)
            drift = weight * (times >= hi) * rate * (hi - lo)
            comp_half[arm].append(scale * math.fsum((weight * accrued).tolist()))
            drift_half[arm].append(scale * math.fsum(drift.tolist()))
        lo = hi

    return DriftDecomposition(
        martingale_treated=math.fsum(event_half[1]) - math.fsum(comp_half[1]),
        martingale_control=math.fsum(event_half[0]) - math.fsum(comp_half[0]),
        drift_treated=math.fsum(drift_half[1]),
        drift_control=math.fsum(drift_half[0]),
    )
