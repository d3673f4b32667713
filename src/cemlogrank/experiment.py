"""Replicated simulation harness: generate cohorts, run the matched and/or
inverse-weighted tests on each, and summarize the standardized statistics.

Replicate r always draws from the stream keyed by (seed, r) and results are
gathered in replicate order, so the worker count can never change any output.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np
from scipy import stats

from .iptw import fit_logistic, iptw_logrank, iptw_weights
from .logrank import Direction, run_test
from .matching import grid_scheme, match
from .simulate import BINARY_DIMS, CONTINUOUS_DIMS, Scenario, generate
from .util import require_int

Method = Literal["cem", "iptw", "both"]

IPTW_FEATURES = (0, 1)  # intercept plus the first two covariates


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replicated experiment needs, defaults matching the
    standard scenario: covariate box [-5, 5]^3, bin count floor(n^theta)."""

    scenario: Scenario
    replications: int = 300
    method: Method = "both"
    box_lo: tuple[float, ...] = (-5.0, -5.0, -5.0)
    box_hi: tuple[float, ...] = (5.0, 5.0, 5.0)
    theta: float = 0.3
    alpha: float = 0.05
    direction: Direction = "two_sided"
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "box_lo", tuple(map(float, self.box_lo)))
        object.__setattr__(self, "box_hi", tuple(map(float, self.box_hi)))
        require_int("replications", self.replications, 1)
        require_int("threads", self.threads, 1)
        if not 0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.method not in ("cem", "iptw", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.direction not in ("upper", "lower", "two_sided"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if len(self.box_lo) != CONTINUOUS_DIMS or len(self.box_hi) != CONTINUOUS_DIMS:
            raise ValueError(f"covariate box must have {CONTINUOUS_DIMS} dimensions")
        if not all(lo < hi and math.isfinite(hi - lo) for lo, hi in zip(self.box_lo, self.box_hi)):
            raise ValueError("box_lo must be strictly below box_hi, a finite span apart")

    @property
    def bins_per_dim(self) -> int:
        return max(1, int(math.floor(self.scenario.n**self.theta)))

    def methods(self) -> tuple[str, ...]:
        return ("cem", "iptw") if self.method == "both" else (self.method,)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "replications": self.replications,
            "method": self.method,
            "box_lo": list(self.box_lo),
            "box_hi": list(self.box_hi),
            "theta": self.theta,
            "alpha": self.alpha,
            "direction": self.direction,
            "threads": self.threads,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        data["scenario"] = Scenario.from_dict(data["scenario"])
        return cls(**data)


@dataclass(frozen=True)
class ReplicateRecord:
    """One method's outcome on one generated cohort."""

    replicate: int
    method: str
    statistic: float  # standardized
    w_tau: float
    v_tau: float
    p_lower: float
    p_upper: float
    p_two_sided: float
    omega_n: Optional[bool]
    n1: int
    n0: int
    unmatched_count: int
    treated_total: int
    degenerate_variance: bool


def run_replicate(config: ExperimentConfig, replicate: int) -> list[ReplicateRecord]:
    """Generate one cohort and evaluate every requested method on it."""
    cohort = generate(config.scenario, replicate=replicate)
    treated_total = cohort.arm_count(1)
    records = []
    for method in config.methods():
        if method == "cem":
            scheme = grid_scheme(
                config.box_lo, config.box_hi, config.bins_per_dim, BINARY_DIMS
            )
            result = run_test(
                match(cohort, scheme),
                alpha=config.alpha,
                direction=config.direction,
            )
        else:
            model = fit_logistic(cohort, IPTW_FEATURES)
            result = iptw_logrank(
                cohort,
                iptw_weights(model, cohort),
                alpha=config.alpha,
                direction=config.direction,
            )
        records.append(
            ReplicateRecord(
                replicate=replicate,
                method=method,
                statistic=result.standardized,
                w_tau=result.statistic,
                v_tau=result.variance_estimate,
                p_lower=result.p_lower,
                p_upper=result.p_upper,
                p_two_sided=result.p_two_sided,
                omega_n=result.omega_n,
                n1=result.n1,
                n0=result.n0,
                unmatched_count=result.unmatched_count,
                treated_total=treated_total,
                degenerate_variance=result.degenerate_variance,
            )
        )
    return records


@dataclass(frozen=True)
class MethodSummary:
    """Distribution summary of one method's standardized statistics.

    Spread, shape, histogram, and quantile fields are None when a single
    replicate leaves them undefined.
    """

    method: str
    replications: int
    mean: float
    sd: Optional[float]
    skewness: Optional[float]
    ks_distance: Optional[float]
    rejection_rate_upper: float
    rejection_rate_lower: float
    rejection_rate_two_sided: float
    lower_tail_rate: float  # share of statistics below the alpha lower normal point
    mean_v_tau: float
    var_w_tau: Optional[float]
    mean_n1: float
    mean_treated_total: float
    omega_n_rate: Optional[float]
    match_exponent_mean: Optional[float]  # mean of log(n1)/log(n) where n1 > 0
    histogram_edges: Optional[list[float]]
    histogram_counts: Optional[list[int]]
    qq_theoretical: Optional[list[float]]
    qq_sample: Optional[list[float]]

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def summarize_method(
    records: list[ReplicateRecord], config: ExperimentConfig
) -> MethodSummary:
    vals = np.array([r.statistic for r in records], dtype=float)
    m = len(vals)
    alpha = config.alpha
    z_lower = float(stats.norm.ppf(alpha))
    omegas = [r.omega_n for r in records if r.omega_n is not None]
    n = config.scenario.n
    exps = [math.log(r.n1) / math.log(n) for r in records if r.n1 > 0]

    if m >= 2:
        sd = float(np.std(vals, ddof=1))
        skewness = float(stats.skew(vals))
        ks = float(stats.kstest(vals, "norm").statistic)
        var_w = float(np.var([r.w_tau for r in records], ddof=1))
        counts, edges = np.histogram(vals, bins="fd")
        hist_edges = [float(e) for e in edges]
        hist_counts = [int(c) for c in counts]
        qq_theory = [
            float(stats.norm.ppf((i - 0.5) / m)) for i in range(1, m + 1)
        ]
        qq_sample = [float(v) for v in np.sort(vals)]
    else:
        sd = skewness = ks = var_w = None
        hist_edges = hist_counts = qq_theory = qq_sample = None

    return MethodSummary(
        method=records[0].method,
        replications=m,
        mean=float(np.mean(vals)),
        sd=sd,
        skewness=skewness,
        ks_distance=ks,
        rejection_rate_upper=float(np.mean([r.p_upper <= alpha for r in records])),
        rejection_rate_lower=float(np.mean([r.p_lower <= alpha for r in records])),
        rejection_rate_two_sided=float(np.mean([r.p_two_sided <= alpha for r in records])),
        lower_tail_rate=float(np.mean(vals < z_lower)),
        mean_v_tau=float(np.mean([r.v_tau for r in records])),
        var_w_tau=var_w,
        mean_n1=float(np.mean([r.n1 for r in records])),
        mean_treated_total=float(np.mean([r.treated_total for r in records])),
        omega_n_rate=float(np.mean(omegas)) if omegas else None,
        match_exponent_mean=float(np.mean(exps)) if exps else None,
        histogram_edges=hist_edges,
        histogram_counts=hist_counts,
        qq_theoretical=qq_theory,
        qq_sample=qq_sample,
    )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: list[ReplicateRecord] = field(repr=False)
    summaries: dict[str, MethodSummary] = field(repr=False)

    def method_records(self, method: str) -> list[ReplicateRecord]:
        return [r for r in self.records if r.method == method]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every replicate, in parallel when asked, and summarize per method."""
    indices = range(config.replications)
    if config.threads > 1:
        chunk = max(1, config.replications // (4 * config.threads))
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            nested = list(pool.map(_replicate_task, [(config, r) for r in indices], chunksize=chunk))
    else:
        nested = [run_replicate(config, r) for r in indices]
    records = [rec for group in nested for rec in group]
    summaries = {
        method: summarize_method([r for r in records if r.method == method], config)
        for method in config.methods()
    }
    return ExperimentResult(config=config, records=records, summaries=summaries)


def _replicate_task(args: tuple[ExperimentConfig, int]) -> list[ReplicateRecord]:
    return run_replicate(*args)
