"""Replicated simulation harness: generate cohorts, run the matched and/or
inverse-weighted tests on each, and summarize the standardized statistics.

Replicate r always draws from the stream keyed by (seed, r) and results are
gathered in replicate order, so the worker count can never change any output.
"""

import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field
from typing import Literal, Optional

import numpy as np

from .errors import ConfigError
from .iptw import fit_logistic, iptw_logrank, iptw_weights
from .logrank import check_decision, run_test
from .matching import MAX_BINS, grid_scheme, match
from .simulate import BINARY_DIMS, CONTINUOUS_DIMS, Scenario, generate
from .util import norm_cdf, require_arguments, require_int, require_positive, require_reals

Method = Literal["cem", "iptw", "both"]

IPTW_FEATURES = (0, 1)  # intercept plus the first two covariates

# Ceiling on worker processes: run_experiment forks min(threads, replications)
# of them at once.
MAX_THREADS = 64

# Ceiling on replications: run_experiment keeps every replicate's records,
# about 0.5 kB per method, until it summarizes them, so 10**6 replicates of
# both methods hold about 1 GB.
MAX_REPLICATIONS = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replicated experiment needs, defaults matching the
    standard scenario: covariate box [-5, 5]^3, bin count floor(n^theta).

    ``scheme``, the matching grid, is built once from the fields and is not
    itself a field."""

    scenario: Scenario
    replications: int = 300
    method: Method = "both"
    box_lo: tuple[float, ...] = (-5.0, -5.0, -5.0)
    box_hi: tuple[float, ...] = (5.0, 5.0, 5.0)
    theta: float = 0.3
    alpha: float = 0.05
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.scenario, Scenario):
            raise ConfigError(f"scenario must be a Scenario, got {type(self.scenario).__name__}")
        object.__setattr__(self, "box_lo", require_reals("box_lo", self.box_lo))
        object.__setattr__(self, "box_hi", require_reals("box_hi", self.box_hi))
        require_int("replications", self.replications, 1, MAX_REPLICATIONS)
        require_int("threads", self.threads, 1, MAX_THREADS)
        check_decision(self.alpha)
        if self.method not in ("cem", "iptw", "both"):
            raise ConfigError(f"unknown method {self.method!r}")
        if len(self.box_lo) != CONTINUOUS_DIMS or len(self.box_hi) != CONTINUOUS_DIMS:
            raise ConfigError(f"covariate box must have {CONTINUOUS_DIMS} dimensions")
        require_positive("theta", self.theta)
        n = self.scenario.n
        # n ** theta is formed only below the ceiling, so it cannot overflow
        if self.theta * math.log(n) >= math.log(MAX_BINS + 1):
            raise ConfigError(
                f"theta {self.theta!r} at n = {n} asks for more than {MAX_BINS} bins per dimension"
            )
        bins = max(1, math.floor(n**self.theta))
        object.__setattr__(self, "scheme", grid_scheme(self.box_lo, self.box_hi, bins, BINARY_DIMS))

    @property
    def bins_per_dim(self) -> int:
        return self.scheme.bins(0)

    def methods(self) -> tuple[str, ...]:
        return ("cem", "iptw") if self.method == "both" else (self.method,)

    def to_dict(self) -> dict:
        return {**asdict(self), "box_lo": list(self.box_lo), "box_hi": list(self.box_hi)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        require_arguments(cls, data, "an experiment config")
        return cls(**{**data, "scenario": Scenario.from_dict(data["scenario"])})


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
        # records keep the p-values, not the decision: default alpha suffices
        if method == "cem":
            result = run_test(match(cohort, config.scheme))
        else:
            model = fit_logistic(cohort, IPTW_FEATURES)
            result = iptw_logrank(cohort, iptw_weights(model, cohort))
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


def _skew(vals: np.ndarray) -> Optional[float]:
    """Biased sample skewness m3 / m2^1.5, or None when the spread is zero
    at the mean's precision: m2 <= (eps * mean)^2."""
    mean = vals.mean()
    dev = vals - mean
    m2 = np.mean(dev * dev)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return None
    return float(np.mean(dev * dev * dev) / m2**1.5)


def _ks_distance(sorted_vals: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of sorted values from N(0, 1)."""
    m = len(sorted_vals)
    cdf = np.array([norm_cdf(v) for v in sorted_vals.tolist()])
    steps = np.arange(m + 1) / m
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


def summarize_method(
    records: list[ReplicateRecord], config: ExperimentConfig
) -> MethodSummary:
    # statistics loads fractions, decimal and random; only experiments need it
    from statistics import NormalDist

    vals = np.array([r.statistic for r in records], dtype=float)
    m = len(vals)
    alpha = config.alpha
    normal = NormalDist()
    z_lower = normal.inv_cdf(alpha)
    omegas = [r.omega_n for r in records if r.omega_n is not None]
    n = config.scenario.n
    exps = [math.log(r.n1) / math.log(n) for r in records if r.n1 > 0]

    if m >= 2:
        ordered = np.sort(vals)
        sd = float(np.std(vals, ddof=1))
        skewness = _skew(vals)
        ks = _ks_distance(ordered)
        var_w = float(np.var([r.w_tau for r in records], ddof=1))
        counts, edges = np.histogram(vals, bins="fd")
        hist_edges = [float(e) for e in edges]
        hist_counts = [int(c) for c in counts]
        qq_theory = [normal.inv_cdf((i - 0.5) / m) for i in range(1, m + 1)]
        qq_sample = ordered.tolist()
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


def _run_block(config: ExperimentConfig, start: int, stop: int) -> list[ReplicateRecord]:
    """The records of replicates start .. stop - 1, in replicate order."""
    return [rec for r in range(start, stop) for rec in run_replicate(config, r)]


def _serve_block(config: ExperimentConfig, start: int, stop: int, out: int, inherited: list[int]) -> None:
    """In a forked child: close the ``inherited`` read ends, pickle (True,
    records) or (False, exception) to the pipe ``out`` and leave by os._exit,
    whatever happens.  An exception that does not pickle leaves the pipe
    empty and the exit code 1."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload = (True, _run_block(config, start, stop))
        except BaseException as exc:
            payload = (False, exc)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with open(out, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _read_to_eof(fd: int) -> bytes:
    with open(fd, "rb", closefd=False) as pipe:
        return pipe.read()


def _forked_records(config: ExperimentConfig, workers: int) -> list[ReplicateRecord]:
    """Fork one child per contiguous block of replicates, then only collect:
    read each pipe to EOF in block order and raise the first failed block's
    error, which is the lowest failing replicate's.  No child is reaped
    before the end, so on failure every one can be killed, exited or not,
    and then every one is reaped."""
    # imported here: only a forked experiment uses signals
    import signal

    n = config.replications
    bounds = [n * k // workers for k in range(workers + 1)]
    pids: list[int] = []
    reads: list[int] = []  # the read end of each block's pipe
    records: list[ReplicateRecord] = []
    try:
        # SIGINT waits until each child is recorded, so an interrupt reaps it
        # too; the children keep it blocked and are killed on an interrupt
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for k in range(workers):
                read_end, write_end = os.pipe()
                reads.append(read_end)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve_block(config, bounds[k], bounds[k + 1], write_end, reads)
                    pids.append(pid)
                finally:
                    os.close(write_end)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k, pid in enumerate(pids):
            data = _read_to_eof(reads[k])
            try:
                ok, value = pickle.loads(data)
            except Exception:
                ended = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                how = "exit code" if ended.si_code == os.CLD_EXITED else "killed by signal"
                raise RuntimeError(
                    f"the worker for replicates {bounds[k]} to {bounds[k + 1] - 1} ended "
                    f"without a result ({how} {ended.si_status})"
                ) from None
            if not ok:
                raise value
            records += value
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in reads:
            os.close(fd)
    return records


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every replicate, in forked workers when asked and fork is safe
    (Linux), and summarize per method."""
    workers = min(config.threads, config.replications)
    if workers > 1 and sys.platform == "linux":
        records = _forked_records(config, workers)
    else:
        records = _run_block(config, 0, config.replications)
    summaries = {
        method: summarize_method([r for r in records if r.method == method], config)
        for method in config.methods()
    }
    return ExperimentResult(config=config, records=records, summaries=summaries)
