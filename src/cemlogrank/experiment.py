"""Replicated simulation harness: generate cohorts, run the matched and/or
inverse-weighted tests on each, and summarize the standardized statistics.

Replicate r always draws from the stream keyed by (seed, r) and results are
gathered in replicate order, so the worker count can never change any output.
"""

import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Literal, Optional

import numpy as np

from .errors import ConfigError, RankDeficiencyError, SeparationError, WeightOverflowError
from .iptw import fit_logistic, iptw_logrank, iptw_weights
from .logrank import check_decision, run_test
from .matching import MAX_BINS, grid_scheme, match
from .simulate import BINARY_DIMS, CONTINUOUS_DIMS, Scenario, generate
from .util import norm_cdf, require_arguments, require_int, require_positive, require_reals

Method = Literal["cem", "iptw", "both"]
Status = Literal["ok", "separation", "overflow", "rank_deficient"]

IPTW_FEATURES = (0, 1)  # intercept plus the first two covariates

# the status of a replicate whose method raised each numeric failure
FAILURES = {SeparationError: "separation", WeightOverflowError: "overflow",
            RankDeficiencyError: "rank_deficient"}

# Ceiling on worker processes: run_experiment forks min(threads, replications)
# of them at once.
MAX_THREADS = 64

# Ceiling on replications: a replicate's record takes about 0.47 kB per
# method (traced, Python 3.11) and its samples.csv row 0.15 kB of text, all
# held until written, so 10**6 replicates of both methods hold about 1.2 GB.
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
    """One method's outcome on one generated cohort, its fields in order the
    columns of samples.csv; a numeric failure leaves those with defaults None."""

    replicate: int
    method: str
    status: Status
    treated_total: int
    statistic: Optional[float] = None  # standardized
    w_tau: Optional[float] = None
    v_tau: Optional[float] = None
    p_lower: Optional[float] = None
    p_upper: Optional[float] = None
    p_two_sided: Optional[float] = None
    omega_n: Optional[bool] = None
    n1: Optional[int] = None
    n0: Optional[int] = None
    unmatched_count: Optional[int] = None
    degenerate_variance: Optional[bool] = None


# the fields a failed method leaves None; a method that ran sets each to the
# TestResult attribute of the same name, but for the three renamed here
_RESULT_FIELDS = tuple(f.name for f in fields(ReplicateRecord) if f.default is None)
_RESULT_ATTRIBUTE = {"statistic": "standardized", "w_tau": "statistic", "v_tau": "variance_estimate"}


def run_replicate(config: ExperimentConfig, replicate: int) -> list[ReplicateRecord]:
    """Generate one cohort and evaluate every requested method on it; a
    method's numeric failure is recorded by its status, not raised."""
    cohort = generate(config.scenario, replicate=replicate)
    treated_total = cohort.arm_count(1)
    records = []
    for method in config.methods():
        # records keep the p-values, not the decision: default alpha suffices
        try:
            if method == "cem":
                result = run_test(match(cohort, config.scheme))
            else:
                result = iptw_logrank(cohort, iptw_weights(fit_logistic(cohort, IPTW_FEATURES), cohort))
        except tuple(FAILURES) as exc:
            records.append(ReplicateRecord(replicate, method, FAILURES[type(exc)], treated_total))
            continue
        results = {k: getattr(result, _RESULT_ATTRIBUTE.get(k, k)) for k in _RESULT_FIELDS}
        records.append(ReplicateRecord(replicate, method, "ok", treated_total, **results))
    return records


@dataclass(frozen=True)
class MethodSummary:
    """Distribution summary of one method's standardized statistics over its
    ``replications`` ok replicates, and the share of its replicates that failed.
    Every statistic is None when none is ok, and the spread, shape, histogram,
    and quantile fields when a single one leaves them undefined."""

    method: str
    replications: int
    failure_rate: float
    mean: Optional[float] = None
    sd: Optional[float] = None
    skewness: Optional[float] = None
    ks_distance: Optional[float] = None
    rejection_rate_upper: Optional[float] = None
    rejection_rate_lower: Optional[float] = None
    rejection_rate_two_sided: Optional[float] = None
    lower_tail_rate: Optional[float] = None  # share of statistics below the alpha lower normal point
    mean_v_tau: Optional[float] = None
    var_w_tau: Optional[float] = None
    mean_n1: Optional[float] = None
    mean_treated_total: Optional[float] = None
    omega_n_rate: Optional[float] = None
    match_exponent_mean: Optional[float] = None  # mean of log(n1)/log(n) where n1 > 0
    histogram_edges: Optional[list[float]] = None
    histogram_counts: Optional[list[int]] = None
    qq_theoretical: Optional[list[float]] = None
    qq_sample: Optional[list[float]] = None

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


def summarize_method(records: list[ReplicateRecord], config: ExperimentConfig) -> MethodSummary:
    """The summary of one method's records, which reads only their fields
    (so samples.csv) and the config."""
    # statistics loads fractions, decimal and random; only experiments need it
    from statistics import NormalDist

    if not records:
        raise ValueError("summarize_method needs the records of one method, got an empty list")
    ok = [r for r in records if r.status == "ok"]
    m = len(ok)
    failure_rate = (len(records) - m) / len(records)
    if not ok:
        return MethodSummary(records[0].method, 0, failure_rate)
    # a float column per numeric field of the ok records: a flag as 0 or 1, None as nan
    names = ("treated_total", *_RESULT_FIELDS)
    col = dict(zip(names, np.array([[getattr(r, k) for r in ok] for k in names], dtype=float)))
    vals = col["statistic"]
    alpha = config.alpha
    normal = NormalDist()
    omegas = col["omega_n"][~np.isnan(col["omega_n"])]
    n = config.scenario.n
    exps = [math.log(k) / math.log(n) for k in col["n1"].tolist() if k > 0]
    spread = {}  # the fields a single replicate leaves undefined
    if m >= 2:
        ordered = np.sort(vals)
        counts, edges = np.histogram(vals, bins="fd")
        spread = dict(
            sd=float(np.std(vals, ddof=1)),
            skewness=_skew(vals),
            ks_distance=_ks_distance(ordered),
            var_w_tau=float(np.var(col["w_tau"], ddof=1)),
            histogram_edges=edges.tolist(),
            histogram_counts=counts.tolist(),
            qq_theoretical=[normal.inv_cdf((i - 0.5) / m) for i in range(1, m + 1)],
            qq_sample=ordered.tolist(),
        )
    return MethodSummary(
        method=records[0].method,
        replications=m,
        failure_rate=failure_rate,
        mean=float(np.mean(vals)),
        rejection_rate_upper=float(np.mean(col["p_upper"] <= alpha)),
        rejection_rate_lower=float(np.mean(col["p_lower"] <= alpha)),
        rejection_rate_two_sided=float(np.mean(col["p_two_sided"] <= alpha)),
        lower_tail_rate=float(np.mean(vals < normal.inv_cdf(alpha))),
        mean_v_tau=float(np.mean(col["v_tau"])),
        mean_n1=float(np.mean(col["n1"])),
        mean_treated_total=float(np.mean(col["treated_total"])),
        omega_n_rate=float(np.mean(omegas)) if len(omegas) else None,
        match_exponent_mean=float(np.mean(exps)) if exps else None,
        **spread,
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
