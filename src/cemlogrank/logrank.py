"""Matched weighted log-rank statistic, its variance estimator, and the test.

All processes are evaluated left-continuously: at an event time s, weights and
at-risk totals include every subject failing at s.  Tied events at one time
are processed in a single grid step by summing their contributions.  The
statistic path is a sequential running sum (``np.cumsum``) of the per-step
increments in ascending time order: deterministic, independent of thread
count, but not compensated.  The variance sum is exactly rounded
(``math.fsum``).
"""

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .matching import MatchedCohort, omega_n_holds, pooled_at_risk
from .survival import event_steps
from .util import norm_cdf, norm_sf, pinv, pinv_array

Direction = Literal["upper", "lower", "two_sided"]
_DIRECTIONS = ("upper", "lower", "two_sided")


@dataclass(frozen=True)
class WeightFunction:
    """Deterministic step function on the time axis, evaluated left-continuously.

    ``values`` has one more entry than ``breakpoints``; value ``values[k]``
    applies on the interval (breakpoints[k-1], breakpoints[k]] (with open ends
    at the extremes).  The constant-1 function recovers the plain statistic.
    """

    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(map(float, self.breakpoints)))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("weight values must be finite")

    @classmethod
    def constant(cls, value: float = 1.0) -> "WeightFunction":
        return cls(breakpoints=(), values=(float(value),))

    def value_at(self, s):
        """Value at time s, a scalar or an array of times."""
        return np.take(self.values, np.searchsorted(self.breakpoints, s, side="left"))

    def scaled(self, c: float) -> "WeightFunction":
        return WeightFunction(self.breakpoints, tuple(c * v for v in self.values))

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightFunction":
        return cls(tuple(data.get("breakpoints", ())), tuple(data["values"]))


@dataclass(frozen=True)
class TestResult:
    """Outcome of one weighted log-rank test."""

    statistic: float
    variance_estimate: float
    standardized: float
    p_lower: float
    p_upper: float
    p_two_sided: float
    alpha: float
    direction: Direction
    reject: bool
    omega_n: Optional[bool]
    n1: int
    n0: int
    unmatched_count: int
    degenerate_variance: bool
    method: str
    path: Optional[tuple[tuple[float, float], ...]] = None

    def to_dict(self) -> dict:
        d = {
            "statistic": self.statistic,
            "variance_estimate": self.variance_estimate,
            "standardized": self.standardized,
            "p_lower": self.p_lower,
            "p_upper": self.p_upper,
            "p_two_sided": self.p_two_sided,
            "alpha": self.alpha,
            "direction": self.direction,
            "reject": self.reject,
            "omega_n": self.omega_n,
            "n1": self.n1,
            "n0": self.n0,
            "unmatched_count": self.unmatched_count,
            "degenerate_variance": self.degenerate_variance,
            "method": self.method,
        }
        if self.path is not None:
            d["path"] = [[t, v] for t, v in self.path]
        return d


def kernel(mc: MatchedCohort, weight_fn: WeightFunction | None, s: float) -> float:
    """Predictable factor multiplying the arm-wise increment difference at s:

        sqrt((Y1_0 + Y0_0) * pinv(Y1_0 * Y0_0)) * pinv(Y1_s + Y0_s) * Y1_s * Y0_s * W(s)

    where Y1/Y0 are the pooled weighted at-risk totals of the two arms.
    """
    wf = weight_fn or WeightFunction.constant()
    y1_0 = pooled_at_risk(mc, 1, 0.0)
    y0_0 = pooled_at_risk(mc, 0, 0.0)
    y1 = pooled_at_risk(mc, 1, s)
    y0 = pooled_at_risk(mc, 0, s)
    front = math.sqrt((y1_0 + y0_0) * pinv(y1_0 * y0_0))
    return front * pinv(y1 + y0) * y1 * y0 * float(wf.value_at(s))


def statistic_path(
    mc: MatchedCohort, weight_fn: WeightFunction | None = None
) -> list[tuple[float, float]]:
    """Cumulative statistic at every event-grid time of the cohort.

    Each grid step adds  K(s) * [pinv(Y1_s) * dN1_s - pinv(Y0_s) * dN0_s]
    with dNz_s the weighted event mass of arm z at s; all weights and at-risk
    totals are evaluated at s itself.  Events of unmatched subjects contribute
    zero but their times still appear in the path.  An empty grid yields an
    empty path (statistic 0).

    The pooled totals follow from the effective-time identity: a cell adds r1
    to the control total while it has a control at risk, so Y0_s counts the
    matched treated with min(T, E_c) >= s, where E_c is the last control time
    of the subject's cell, and Y1_s those with T >= s.
    """
    wf = weight_fn or WeightFunction.constant()
    times, step = event_steps(mc.cohort)
    if len(times) == 0:
        return []

    t = mc.cohort.times
    arms = mc.cohort.arms
    treated = (mc.cell >= 0) & (arms == 1)
    t1 = t[treated]
    effective = np.minimum(t1, mc.last_control_time[mc.cell[treated]])
    y1 = (len(t1) - np.searchsorted(np.sort(t1), times, side="left")).astype(float)
    y0 = (len(t1) - np.searchsorted(np.sort(effective), times, side="left")).astype(float)

    d1 = np.bincount(step[treated & (step >= 0)], minlength=len(times)).astype(float)
    control_events = np.flatnonzero((mc.cell >= 0) & (arms == 0) & (step >= 0))
    r1, r0 = mc.at_risk_counts(mc.cell[control_events], t[control_events])
    d0 = np.bincount(step[control_events], weights=r1 / r0, minlength=len(times))

    # at time 0 both pooled totals equal n1
    y_0 = float(mc.n1)
    front = math.sqrt((y_0 + y_0) * pinv(y_0 * y_0))
    k = front * pinv_array(y1 + y0) * y1 * y0 * wf.value_at(times)
    path = np.cumsum(k * (pinv_array(y1) * d1 - pinv_array(y0) * d0))
    return list(zip(times.tolist(), path.tolist()))


def variance_estimate(mc: MatchedCohort, weight_fn: WeightFunction | None = None) -> float:
    """Variance estimator: pinv(2 * n1) times the sum of squared weight-function
    values over the matched treated events in (0, horizon]."""
    wf = weight_fn or WeightFunction.constant()
    cohort = mc.cohort
    t = cohort.times
    treated_events = (
        (mc.cell >= 0) & (cohort.arms == 1) & cohort.events & (t > 0.0) & (t <= cohort.horizon)
    )
    return pinv(2.0 * mc.n1) * math.fsum((wf.value_at(t[treated_events]) ** 2).tolist())


def _decide(
    statistic: float,
    variance: float,
    alpha: float,
    direction: Direction,
) -> tuple[float, float, float, float, bool, bool]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    degenerate = variance == 0.0
    standardized = statistic * pinv(math.sqrt(variance))
    p_lower = norm_cdf(standardized)
    p_upper = norm_sf(standardized)
    p_two = min(1.0, 2.0 * min(p_lower, p_upper))
    if direction == "upper":
        reject = p_upper <= alpha
    elif direction == "lower":
        reject = p_lower <= alpha
    else:
        reject = p_two <= alpha
    return standardized, p_lower, p_upper, p_two, reject, degenerate


def run_test(
    mc: MatchedCohort,
    weight_fn: WeightFunction | None = None,
    alpha: float = 0.05,
    direction: Direction = "two_sided",
    include_path: bool = False,
) -> TestResult:
    """Full matched weighted log-rank test at the cohort horizon.

    A zero variance estimate (for example an empty matched treated set) gives
    a standardized statistic of 0 and sets the degenerate flag; it is never an
    error.
    """
    path = statistic_path(mc, weight_fn)
    w_tau = path[-1][1] if path else 0.0
    v_tau = variance_estimate(mc, weight_fn)
    standardized, p_lo, p_up, p_two, reject, degenerate = _decide(
        w_tau, v_tau, alpha, direction
    )
    return TestResult(
        statistic=w_tau,
        variance_estimate=v_tau,
        standardized=standardized,
        p_lower=p_lo,
        p_upper=p_up,
        p_two_sided=p_two,
        alpha=alpha,
        direction=direction,
        reject=reject,
        omega_n=omega_n_holds(mc),
        n1=mc.n1,
        n0=mc.n0,
        unmatched_count=mc.unmatched_count,
        degenerate_variance=degenerate,
        method="cem",
        path=tuple(path) if include_path else None,
    )
