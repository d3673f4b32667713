"""Matched weighted log-rank statistic, its variance estimator, and the test.

The matched test and the IPTW test in ``iptw`` share the cohort's time order
and event grid (``Cohort.time_axis``, ``Cohort.event_steps``), the risk-set
sums (``survival.risk_set_sums``), the kernel path (``_kernel``, ``_path``)
and the result builder (``_test_result``); only weights and variances differ.

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

from .errors import ConfigError
from .matching import MatchedCohort, omega_n_holds
from .util import is_real, norm_cdf, norm_sf, pinv, pinv_array

Direction = Literal["upper", "lower", "two_sided"]
_DIRECTIONS = ("upper", "lower", "two_sided")

# Ceiling on a weight function's |value|: the variances sum squared values
# over a cohort's event times, which stays finite below this.
MAX_WEIGHT = 1e100


@dataclass(frozen=True)
class WeightFunction:
    """Deterministic step function on the time axis, evaluated left-continuously.

    ``values`` has one more entry than ``breakpoints``; value ``values[k]``
    applies on the interval (breakpoints[k-1], breakpoints[k]] (with open ends
    at the extremes).  Each value lies within +-MAX_WEIGHT.  The constant-1
    function recovers the plain statistic.
    """

    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(map(float, self.breakpoints)))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.values) != len(self.breakpoints) + 1:
            raise ConfigError("need exactly one more value than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        if any(not math.isfinite(v) for v in self.breakpoints + self.values):
            raise ConfigError("breakpoints and weight values must be finite")
        if any(abs(v) > MAX_WEIGHT for v in self.values):
            raise ConfigError(f"weight values must lie in [-{MAX_WEIGHT:g}, {MAX_WEIGHT:g}]")

    @classmethod
    def constant(cls, value: float = 1.0) -> "WeightFunction":
        return cls(breakpoints=(), values=(float(value),))

    def value_at(self, s):
        """Value at time s, a scalar or an array of times."""
        return np.take(self.values, np.searchsorted(self.breakpoints, s, side="left"))

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightFunction":
        if not isinstance(data, dict):
            raise ConfigError(f"a weight function must be an object, got {type(data).__name__}")
        lists = (data.get("breakpoints", ()), data.get("values"))
        if not all(isinstance(v, (list, tuple)) for v in lists):
            raise ConfigError("a weight function needs a values list, and a breakpoints list if any")
        return cls(*map(tuple, lists))


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
        d = dict(self.__dict__)
        path = d.pop("path")
        if path is not None:
            d["path"] = [[t, v] for t, v in path]
        return d


def _kernel(y1_0: float, y0_0: float, y1, y0, w):
    """Predictable factor multiplying the arm-wise increment difference, at
    every time whose pooled at-risk totals are y1, y0 and weight w:

        sqrt((Y1_0 + Y0_0) * pinv(Y1_0 * Y0_0)) * pinv(Y1_s + Y0_s) * Y1_s * Y0_s * W(s)
    """
    front = math.sqrt((y1_0 + y0_0) * pinv(y1_0 * y0_0))
    return front * pinv_array(y1 + y0) * y1 * y0 * w


def _path(kern, y1, y0, dn1, dn0) -> np.ndarray:
    """Running sum of K(s) * [pinv(Y1_s) * dN1_s - pinv(Y0_s) * dN0_s]."""
    return np.cumsum(kern * (pinv_array(y1) * dn1 - pinv_array(y0) * dn0))


def kernel(mc: MatchedCohort, weight_fn: WeightFunction | None, s: float) -> float:
    """The kernel K(s) of the matched test (the formula is at ``_kernel``),
    Y1/Y0 being the pooled weighted at-risk totals of the two arms."""
    wf = weight_fn or WeightFunction.constant()
    y1, y0 = mc._pooled_totals(np.searchsorted(mc.cohort.time_axis[0], [0.0, s]))
    return float(_kernel(y1[0], y0[0], y1[1:], y0[1:], wf.value_at(s))[0])


def statistic_path(
    mc: MatchedCohort, weight_fn: WeightFunction | None = None
) -> list[tuple[float, float]]:
    """Cumulative statistic at every event-grid time of the cohort.

    Each grid step adds  K(s) * [pinv(Y1_s) * dN1_s - pinv(Y0_s) * dN0_s]
    with dNz_s the weighted event mass of arm z at s; all weights and at-risk
    totals are evaluated at s itself.  Events of unmatched subjects contribute
    zero but their times still appear in the path.  An empty grid yields an
    empty path (statistic 0).
    """
    times, path = _matched_path(mc, weight_fn)
    return list(zip(times.tolist(), path.tolist()))


def _matched_path(mc: MatchedCohort, weight_fn: WeightFunction | None):
    """The event-grid times and the statistic path at them, as arrays."""
    wf = weight_fn or WeightFunction.constant()
    grid, step = mc.cohort.event_steps
    matched = mc.cell >= 0
    arms = mc.cohort.arms
    control_events = np.flatnonzero(matched & (arms == 0) & (step >= 0))
    # a subject's own time sits at its rank on the time axis; the lookups
    # run before the per-time arrays exist, since they set the peak memory
    r1, r0 = mc._at_risk(mc.cell[control_events], mc.cohort.time_axis[1][control_events])
    d0 = np.bincount(step[control_events], weights=r1 / r0, minlength=len(grid))
    del control_events, r1, r0
    d1 = np.bincount(step[matched & (arms == 1) & (step >= 0)], minlength=len(grid))
    times = mc.cohort.time_axis[0][grid]
    y1, y0 = mc._pooled_totals(grid)

    # at time 0 both pooled totals equal n1
    kern = _kernel(float(mc.n1), float(mc.n1), y1, y0, wf.value_at(times))
    return times, _path(kern, y1, y0, d1, d0)


def variance_estimate(mc: MatchedCohort, weight_fn: WeightFunction | None = None) -> float:
    """Variance estimator: pinv(2 * n1) times the sum of squared weight-function
    values over the matched treated events in (0, horizon]."""
    wf = weight_fn or WeightFunction.constant()
    cohort = mc.cohort
    treated_events = (mc.cell >= 0) & (cohort.arms == 1) & (cohort.event_steps[1] >= 0)
    return pinv(2.0 * mc.n1) * math.fsum((wf.value_at(cohort.times[treated_events]) ** 2).tolist())


def check_decision(alpha: float, direction: Direction = "two_sided") -> None:
    """ConfigError unless ``alpha`` is a real number (a bool is not) in
    (0, 1) and ``direction`` is known."""
    if not (is_real(alpha) and 0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
    if direction not in _DIRECTIONS:
        raise ConfigError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


def _test_result(
    times, path, variance: float, alpha: float, direction: Direction, include_path: bool, **fields
) -> TestResult:
    """Standardize the path's last value (0 for an empty grid), compute its
    normal tail p-values and the decision, for an alpha and a direction the
    caller checked before its work; ``fields`` carry the method's own counts
    and flags."""
    statistic = float(path[-1]) if len(path) else 0.0
    standardized = statistic * pinv(math.sqrt(variance))
    p_lower = norm_cdf(standardized)
    p_upper = norm_sf(standardized)
    p_two = min(1.0, 2.0 * min(p_lower, p_upper))
    p = {"upper": p_upper, "lower": p_lower, "two_sided": p_two}[direction]
    return TestResult(
        statistic=statistic,
        variance_estimate=variance,
        standardized=standardized,
        p_lower=p_lower,
        p_upper=p_upper,
        p_two_sided=p_two,
        alpha=alpha,
        direction=direction,
        reject=p <= alpha,
        degenerate_variance=variance == 0.0,
        path=tuple(zip(times.tolist(), path.tolist())) if include_path else None,
        **fields,
    )


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
    check_decision(alpha, direction)
    times, path = _matched_path(mc, weight_fn)
    return _test_result(
        times,
        path,
        variance_estimate(mc, weight_fn),
        alpha,
        direction,
        include_path,
        omega_n=omega_n_holds(mc),
        n1=mc.n1,
        n0=mc.n0,
        unmatched_count=mc.unmatched_count,
        method="cem",
    )
