"""Independent brute-force references used to verify the main code paths.

Everything here is deliberately naive (direct transcriptions of defining sums,
quadratic scans, no shared code with the optimized sweeps) so that agreement
between this module and the main path is real evidence, not self-confirmation.
Shipped with the library so users can re-run the cross-checks on their data.
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
from .survival import Cohort, EventGrid, SubjectRecord
from .util import pinv


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
    subjects = cohort.subjects
    if not any(s.arm == 1 for s in subjects) or not any(s.arm == 0 for s in subjects):
        raise ValueError("classical log-rank needs both arms nonempty")
    event_times = sorted(
        {s.observed_time for s in subjects if s.event and 0.0 < s.observed_time <= cohort.horizon}
    )
    numer_terms = []
    var_terms = []
    for t in event_times:
        y1 = sum(1 for s in subjects if s.arm == 1 and s.observed_time >= t)
        y0 = sum(1 for s in subjects if s.arm == 0 and s.observed_time >= t)
        ybar = y1 + y0
        d1 = sum(1 for s in subjects if s.arm == 1 and s.event and s.observed_time == t)
        d0 = sum(1 for s in subjects if s.arm == 0 and s.event and s.observed_time == t)
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
    subjects = cohort.subjects
    event_times = sorted(
        {s.observed_time for s in subjects if s.event and 0.0 < s.observed_time <= cohort.horizon}
    )
    terms = []
    for t in event_times:
        y1 = sum(1 for s in subjects if s.arm == 1 and s.observed_time >= t)
        y0 = sum(1 for s in subjects if s.arm == 0 and s.observed_time >= t)
        d1 = sum(1 for s in subjects if s.arm == 1 and s.event and s.observed_time == t)
        d0 = sum(1 for s in subjects if s.arm == 0 and s.event and s.observed_time == t)
        terms.append(pinv(float(y1)) * d1 - pinv(float(y0)) * d0)
    return math.fsum(terms)


def compensator(subject: SubjectRecord, hazard: HazardModel, t: float) -> float:
    """Cumulative-hazard compensator at t."""
    return float(_compensators(hazard, t, subject.observed_time, subject.covariates, subject.arm))


def _compensators(hazard: HazardModel, t, observed_times, covariates, arms):
    """Compensator at t of one subject, or of each subject of columns: the
    hazard accrues only while the subject is at risk, min(t, observed_time)
    times the rate, and over an empty interval nothing accrues, even at an
    infinite rate (where the product 0 * inf would be NaN)."""
    at_risk = np.minimum(t, observed_times)
    rate = hazard.rate(covariates, arms)
    return np.multiply(at_risk, rate, out=np.zeros(np.shape(rate)), where=at_risk > 0)


@dataclass(frozen=True)
class CompensatorPath:
    """One subject's compensator evaluated along an event grid."""

    subject_id: object
    times: tuple[float, ...]
    values: tuple[float, ...]


def compensator_path(subject: SubjectRecord, hazard: HazardModel, grid: EventGrid) -> CompensatorPath:
    return CompensatorPath(
        subject_id=subject.id,
        times=grid.times,
        values=tuple(compensator(subject, hazard, t) for t in grid.times),
    )


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
        a_tau = _compensators(hazard, tau, t, cohort.covariate_matrix, cohort.arms)
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
# defining sums.  O(n^2) per time point; test-scale inputs only.


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

    cells = {s.id: cell_of(s.covariates) for s in mc.cohort.subjects}
    arms_in = {}
    for s in mc.cohort.subjects:
        arms_in.setdefault(cells[s.id], set()).add(s.arm)
    return MappingProxyType({
        sid: MatchReason.OUTSIDE_REGION if cell is None
        else cell if arms_in[cell] == {0, 1}
        else MatchReason.NO_CROSS_ARM_PARTNER
        for sid, cell in cells.items()
    })


def _matched(mc: MatchedCohort, subject: SubjectRecord) -> bool:
    return not isinstance(stratum_by_comparison(mc)[subject.id], MatchReason)


def _naive_cellmates(mc: MatchedCohort, cell) -> list[SubjectRecord]:
    strata = stratum_by_comparison(mc)
    return [s for s in mc.cohort.subjects if strata[s.id] == cell]


def _naive_weight(mc: MatchedCohort, subject: SubjectRecord, t: float) -> float:
    cell = stratum_by_comparison(mc)[subject.id]
    if isinstance(cell, MatchReason):
        return 0.0
    if subject.arm == 1:
        return 1.0
    mates = _naive_cellmates(mc, cell)
    den = sum(1.0 for m in mates if m.arm == 0 and m.observed_time >= t)
    num = sum(1.0 for m in mates if m.arm == 1 and m.observed_time >= t)
    return pinv(den) * num


def _naive_pooled(mc: MatchedCohort, arm: int, t: float) -> float:
    return math.fsum(
        _naive_weight(mc, s, t) * (1.0 if s.observed_time >= t else 0.0)
        for s in mc.cohort.subjects
        if s.arm == arm and _matched(mc, s)
    )


def statistic_by_enumeration(mc: MatchedCohort, weight_fn: WeightFunction | None = None) -> float:
    """Matched weighted log-rank statistic at the horizon, recomputed from the
    defining sums at each event time in (0, horizon] without any state."""
    wf = weight_fn or WeightFunction.constant()
    subjects = mc.cohort.subjects
    event_times = sorted(
        {s.observed_time for s in subjects if s.event and 0.0 < s.observed_time <= mc.cohort.horizon}
    )
    y1_0 = _naive_pooled(mc, 1, 0.0)
    y0_0 = _naive_pooled(mc, 0, 0.0)
    front = math.sqrt((y1_0 + y0_0) * pinv(y1_0 * y0_0))
    terms = []
    for t in event_times:
        y1 = _naive_pooled(mc, 1, t)
        y0 = _naive_pooled(mc, 0, t)
        k = front * pinv(y1 + y0) * y1 * y0 * wf.value_at(t)
        events = [s for s in subjects if s.event and s.observed_time == t]
        dn1 = math.fsum(_naive_weight(mc, s, t) for s in events if s.arm == 1 and _matched(mc, s))
        dn0 = math.fsum(_naive_weight(mc, s, t) for s in events if s.arm == 0 and _matched(mc, s))
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
    wf = weight_fn or WeightFunction.constant()
    tau = mc.cohort.horizon
    subjects = mc.cohort.subjects
    matched = [s for s in subjects if _matched(mc, s)]

    y1_0 = _naive_pooled(mc, 1, 0.0)
    y0_0 = _naive_pooled(mc, 0, 0.0)
    front = math.sqrt((y1_0 + y0_0) * pinv(y1_0 * y0_0))

    def naive_kernel(t: float) -> float:
        y1 = _naive_pooled(mc, 1, t)
        y0 = _naive_pooled(mc, 0, t)
        return front * pinv(y1 + y0) * y1 * y0 * wf.value_at(t)

    # event-driven halves: sum of K * pinv(pooled) * weight over own-arm events
    event_half = {1: [], 0: []}
    for s in matched:
        if s.event and 0.0 < s.observed_time <= tau:
            arm = s.arm
            t = s.observed_time
            pooled = _naive_pooled(mc, arm, t)
            event_half[arm].append(
                naive_kernel(t) * pinv(pooled) * _naive_weight(mc, s, t)
            )

    # compensator-driven and drift halves over the interval partition
    cuts = sorted({s.observed_time for s in matched if s.observed_time <= tau} | {tau})
    comp_half = {1: [], 0: []}
    drift_half = {1: [], 0: []}
    lo = 0.0
    for hi in cuts:
        if hi <= lo:
            lo = hi
            continue
        k = naive_kernel(hi)
        for arm in (1, 0):
            pooled_inv = pinv(_naive_pooled(mc, arm, hi))
            comp_terms = 0.0
            drift_terms = 0.0
            for s in matched:
                if s.arm != arm:
                    continue
                w = _naive_weight(mc, s, hi)
                comp_terms += w * (
                    compensator(s, hazard, hi) - compensator(s, hazard, lo)
                )
                at_risk = 1.0 if s.observed_time >= hi else 0.0
                drift_terms += w * at_risk * hazard.rate(s.covariates, arm) * (hi - lo)
            comp_half[arm].append(k * pooled_inv * comp_terms)
            drift_half[arm].append(k * pooled_inv * drift_terms)
        lo = hi

    return DriftDecomposition(
        martingale_treated=math.fsum(event_half[1]) - math.fsum(comp_half[1]),
        martingale_control=math.fsum(event_half[0]) - math.fsum(comp_half[0]),
        drift_treated=math.fsum(drift_half[1]),
        drift_control=math.fsum(drift_half[0]),
    )
