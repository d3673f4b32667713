"""Coarsened exact matching: covariate partition, stratum assignment, matched
sets, and the stratum-local weight and pooled at-risk processes.

A subject is matched when its covariate cell contains at least one subject of
each arm.  Matched treated subjects carry weight 1; a matched control at time
t carries the ratio of treated to control at-risk counts within its own cell,
with an exhausted control risk set giving weight 0 via the total reciprocal.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .survival import Cohort, SubjectId, risk_set_sums
from .util import pinv, require_int

# Bin index per continuous dimension followed by the literal value of each
# binary dimension; identifies exactly one cell of the partition.
StratumId = tuple[int, ...]

# Ceiling on a uniform grid's bins per continuous dimension: grid_scheme
# materializes every edge, so the ceiling bounds its memory.
MAX_BINS = 10**6


class MatchReason(enum.Enum):
    """Why a subject is outside the matched sets."""

    OUTSIDE_REGION = "outside_region"
    NO_CROSS_ARM_PARTNER = "no_cross_arm_partner"


@dataclass(frozen=True)
class CoarseningScheme:
    """Finite partition of a covariate region into half-open product cells.

    Each continuous dimension carries a strictly increasing edge sequence;
    cell k of that dimension is the interval (edges[k], edges[k+1]].  Binary
    dimensions contribute their literal 0/1 value.  A point on or below the
    lowest edge of any continuous dimension, above the highest edge, or with
    a non-0/1 binary coordinate lies outside the covered region.
    """

    continuous_edges: tuple[tuple[float, ...], ...]
    binary_dims: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "continuous_edges", tuple(tuple(map(float, e)) for e in self.continuous_edges)
        )
        for edges in self.continuous_edges:
            if len(edges) < 2:
                raise ConfigError("each continuous dimension needs at least 2 edges")
            if any(not math.isfinite(e) for e in edges):
                raise ConfigError("bin edges must be finite")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ConfigError("bin edges must be strictly increasing")
        require_int("binary_dims", self.binary_dims, 0)
        if self.dimension == 0:
            raise ConfigError("scheme must cover at least one dimension")

    @property
    def continuous_dims(self) -> int:
        return len(self.continuous_edges)

    @property
    def dimension(self) -> int:
        return self.continuous_dims + self.binary_dims

    def bins(self, dim: int) -> int:
        return len(self.continuous_edges[dim]) - 1

    def to_dict(self) -> dict:
        return {
            "continuous_edges": [list(e) for e in self.continuous_edges],
            "binary_dims": self.binary_dims,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoarseningScheme":
        if not isinstance(data, dict):
            raise ConfigError(f"a scheme must be an object, got {type(data).__name__}")
        if "continuous_edges" in data:
            edges, lists = data["continuous_edges"], (list, tuple)
            if not (isinstance(edges, lists) and all(isinstance(e, lists) for e in edges)):
                raise ConfigError("continuous_edges must be a list of edge lists")
            return cls(tuple(map(tuple, edges)), data.get("binary_dims", 0))
        missing = [key for key in ("box_lo", "box_hi", "bins_per_dim") if key not in data]
        if missing:
            raise ConfigError(
                "a scheme needs continuous_edges, or box_lo, box_hi and bins_per_dim;"
                f" missing {', '.join(missing)}"
            )
        return grid_scheme(
            data["box_lo"], data["box_hi"], data["bins_per_dim"], data.get("binary_dims", 0)
        )


def grid_scheme(
    box_lo: Sequence[float],
    box_hi: Sequence[float],
    bins_per_dim: int,
    binary_dims: int = 0,
) -> CoarseningScheme:
    """Uniform partition: ``bins_per_dim`` (at most MAX_BINS) half-open bins
    per continuous dimension across the box, crossed with all binary values."""
    require_int("bins_per_dim", bins_per_dim, 1, MAX_BINS)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ConfigError("box_lo and box_hi must be equal-length vectors")
    if not all(a < b and math.isfinite(b - a) for a, b in zip(lo.tolist(), hi.tolist())):
        raise ConfigError("box_lo must be strictly below box_hi, a finite span apart")
    edges = tuple(
        tuple(np.linspace(lo[j], hi[j], bins_per_dim + 1).tolist()) for j in range(len(lo))
    )
    return CoarseningScheme(continuous_edges=edges, binary_dims=binary_dims)


def _dimension_codes(scheme: CoarseningScheme, xs: np.ndarray, j: int) -> tuple:
    """Each row's code in dimension j, its bin index when the dimension is
    continuous and its 0/1 value when binary, and whether the row's
    coordinate lies in the covered region."""
    col = xs[:, j]
    if j >= scheme.continuous_dims:
        return (col == 1.0).view(np.int8), (col == 0.0) | (col == 1.0)
    e = np.asarray(scheme.continuous_edges[j])
    code = np.searchsorted(e, col, side="left")
    code -= 1
    np.clip(code, 0, len(e) - 2, out=code)
    return code, (col > e[0]) & (col <= e[-1])


_INT64_MAX = np.iinfo(np.int64).max


def _cell_codes(scheme: CoarseningScheme, xs: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Each row's cell as one int64 below ``span``, ordered like the cells'
    lexicographic order, and whether the row lies in the covered region.

    Mixed-radix digits, added one dimension at a time.  When the next digit
    would overflow int64, the prefix is first replaced by its rank among the
    distinct prefixes, which keeps the order and bounds the prefix by the row
    count.
    """
    flat = np.zeros(len(xs), dtype=np.int64)
    valid = np.ones(len(xs), dtype=bool)
    span = 1
    for j in range(scheme.dimension):
        radix = scheme.bins(j) if j < scheme.continuous_dims else 2
        if span > _INT64_MAX // radix:
            prefixes, flat = np.unique(flat, return_inverse=True)
            span = len(prefixes)
        code, inside = _dimension_codes(scheme, xs, j)
        flat *= radix
        flat += code
        span *= radix
        valid &= inside
    return flat, span, valid


# Per-subject reason codes of MatchedCohort.reason; the index into _REASONS.
_MATCHED, _OUTSIDE_REGION, _NO_PARTNER = 0, 1, 2
_REASONS = (None, MatchReason.OUTSIDE_REGION, MatchReason.NO_CROSS_ARM_PARTNER)


# eq=False: the per-subject arrays have no single truth value, so two results
# compare by identity
@dataclass(frozen=True, eq=False)
class MatchedCohort:
    """Result of coarsened exact matching; immutable after construction.

    ``cell`` holds, per subject in cohort order, the index of its matched
    cell, or -1 when the subject is unmatched; cells are indexed in the
    lexicographic order of their StratumId.  ``reason`` holds 0 for matched
    subjects and otherwise the code of the reason it was left out.
    ``stratum_of`` is a per-subject dict view derived from them on first use;
    the library itself reads the arrays.
    """

    cohort: Cohort
    scheme: CoarseningScheme
    cell: np.ndarray = field(repr=False)
    reason: np.ndarray = field(repr=False)
    n1: int
    n0: int

    @property
    def unmatched_count(self) -> int:
        return len(self.cohort) - self.n1 - self.n0

    @cached_property
    def n_cells(self) -> int:
        """Number of matched cells."""
        return int(self.cell.max()) + 1

    @cached_property
    def cell_keys(self) -> tuple[StratumId, ...]:
        """StratumId of each matched cell, in cell-index order."""
        cells, first = np.unique(self.cell, return_index=True)
        xs = self.cohort.covariate_matrix[first[cells >= 0]]
        codes = [_dimension_codes(self.scheme, xs, j)[0] for j in range(self.scheme.dimension)]
        return tuple(map(tuple, np.column_stack(codes).tolist()))

    @cached_property
    def stratum_of(self) -> dict[SubjectId, "StratumId | MatchReason"]:
        """Every subject id mapped to its StratumId when matched, or else to
        the reason it was left out."""
        keys = self.cell_keys
        return {
            sid: keys[c] if c >= 0 else _REASONS[r]
            for sid, c, r in zip(self.cohort.ids, self.cell.tolist(), self.reason.tolist())
        }

    @cached_property
    def _risk_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The matched subjects as sorted integer keys cell * m + rank, one
        array per arm (treated, control), where rank indexes the subject's
        time on the cohort's time axis of m distinct times."""
        axis, rank = self.cohort.time_axis
        matched = self.cell >= 0
        keys = self.cell[matched] * len(axis) + rank[matched]
        arms = self.cohort.arms[matched]
        return np.sort(keys[arms == 1]), np.sort(keys[arms == 0])

    def at_risk_counts(self, cells, t) -> tuple[np.ndarray, np.ndarray]:
        """Treated and control at-risk counts (observed time >= t) within
        matched cells; ``cells`` and ``t`` broadcast against each other."""
        axis = self.cohort.time_axis[0]
        cells = np.asarray(cells, dtype=np.int64)
        return self._at_risk(cells, np.searchsorted(axis, t, side="left"))

    def _at_risk(self, cells, k) -> tuple[np.ndarray, np.ndarray]:
        """``at_risk_counts`` at the positions ``k`` on the cohort's time axis
        (``np.searchsorted(axis, t)``, or a subject's rank): the end of the
        cell's keys less the position of key cell * m + k.  The lookups run
        in ascending key order, where each binary search starts from the
        last one's result."""
        m = len(self.cohort.time_axis[0])
        # the sorted keys are built before the lookups' own arrays
        per_arm = tuple(zip(self._risk_keys, self._cell_bounds))
        starts = np.add(cells * m, k)
        order = np.argsort(starts, axis=None)
        shape, starts = starts.shape, starts.ravel()[order]
        # a cell index outside the matched cells has no keys
        ends = np.add(cells, 1)
        counts = []
        for keys, bounds in per_arm:
            count = np.empty(shape, dtype=np.intp)
            count.reshape(-1)[order] = np.searchsorted(keys, starts)
            counts.append(np.subtract(np.take(bounds, ends, mode="clip"), count, out=count)[()])
        return tuple(counts)

    @cached_property
    def _cell_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """For each arm's ``_risk_keys``, the position where each matched
        cell's keys start, and then their length."""
        m = len(self.cohort.time_axis[0])
        starts = np.arange(self.n_cells + 1) * m
        return tuple(np.searchsorted(keys, starts) for keys in self._risk_keys)

    @cached_property
    def _last_control_rank(self) -> np.ndarray:
        """Position of each matched cell's E_c on the cohort's time axis: the
        rank part of the cell's last control key."""
        return self._risk_keys[1][self._cell_bounds[1][1:] - 1] % len(self.cohort.time_axis[0])

    @property
    def last_control_time(self) -> np.ndarray:
        """E_c: the largest observed control time in each matched cell."""
        return self.cohort.time_axis[0][self._last_control_rank]

    def _pooled_totals(self, k) -> tuple[np.ndarray, np.ndarray]:
        """Pooled at-risk totals (Y1, Y0) at the times whose positions on the
        cohort's time axis are ``k`` (as ``np.searchsorted(axis, t)`` gives).

        Effective-time identity: each at-risk control carries its cell's ratio
        r1/r0, so a cell adds r1 to the control total while it still has a
        control at risk.  Y1_t counts the matched treated with T >= t and Y0_t
        those with min(T, E_c) >= t, where E_c is the cell's last control time.
        """
        axis, rank = self.cohort.time_axis
        treated = (self.cell >= 0) & (self.cohort.arms == 1)
        r1 = rank[treated]
        effective = np.minimum(r1, self._last_control_rank[self.cell[treated]])
        return risk_set_sums(r1, len(axis))[k], risk_set_sums(effective, len(axis))[k]


def match(cohort: Cohort, scheme: CoarseningScheme) -> MatchedCohort:
    """Partition the cohort by stratum and keep subjects whose cell contains
    at least one subject of each arm.  An empty matched treated set is a
    legal, flagged outcome, not an error."""
    xs = cohort.covariate_matrix
    if xs.shape[1] != scheme.dimension:
        raise ConfigError(
            f"dataset has {xs.shape[1]} covariates but the scheme covers {scheme.dimension}"
        )
    cell, span, valid = _cell_codes(scheme, xs)
    if span > 2 * len(cell):
        # a sparse grid: rank the cells that occur, so the counts stay O(n)
        occupied, cell = np.unique(cell, return_inverse=True)
        span = len(occupied)
    # rows outside the region count in one more cell, never matched
    cell[~valid] = span
    total = np.bincount(cell, minlength=span + 1)
    treated = np.bincount(cell[cohort.arms == 1], minlength=span + 1)
    controls = total - treated
    both = (treated > 0) & (controls > 0)
    both[span] = False
    cell = np.where(both, np.cumsum(both) - 1, -1)[cell]
    reason = np.full(len(cell), _NO_PARTNER, dtype=np.int8)
    reason[cell >= 0] = _MATCHED
    reason[~valid] = _OUTSIDE_REGION
    cell.flags.writeable = False
    reason.flags.writeable = False
    return MatchedCohort(
        cohort=cohort,
        scheme=scheme,
        cell=cell,
        reason=reason,
        n1=int(treated[both].sum()),
        n0=int(controls[both].sum()),
    )


def cem_weight(mc: MatchedCohort, subject_id: SubjectId, t: float) -> float:
    """Weight of one subject at time t.

    Matched treated: 1.  Matched control: treated at-risk count over control
    at-risk count within its own cell, both evaluated at t, with an empty
    control denominator giving 0 via the total reciprocal.  Unmatched: 0.
    """
    i = mc.cohort.index_of.get(subject_id)
    if i is None:
        raise ValueError(f"unknown subject id {subject_id!r}")
    c = int(mc.cell[i])
    if c < 0:
        return 0.0
    if mc.cohort.arms[i] == 1:
        return 1.0
    r1, r0 = mc.at_risk_counts(c, t)
    return pinv(float(r0)) * float(r1)


def pooled_at_risk(mc: MatchedCohort, arm: int, t: float) -> float:
    """Weighted at-risk total over the matched subjects of one arm at time t;
    each at-risk control carries its cell's ratio r1/r0."""
    if arm not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, got {arm!r}")
    return float(mc._pooled_totals(np.searchsorted(mc.cohort.time_axis[0], t))[1 - arm])


def omega_n_holds(mc: MatchedCohort) -> bool:
    """Coverage event: every matched treated subject's cell still has at
    least one control at risk at the horizon.  Vacuously true when the
    matched treated set is empty."""
    return bool(np.all(mc.last_control_time >= mc.cohort.horizon))
