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

from .survival import Cohort, SubjectId, risk_set_sums
from .util import pinv

# Bin index per continuous dimension followed by the literal value of each
# binary dimension; identifies exactly one cell of the partition.
StratumId = tuple[int, ...]


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
                raise ValueError("each continuous dimension needs at least 2 edges")
            if any(not math.isfinite(e) for e in edges):
                raise ValueError("bin edges must be finite")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError("bin edges must be strictly increasing")
        if self.binary_dims < 0:
            raise ValueError("binary_dims must be nonnegative")
        if self.dimension == 0:
            raise ValueError("scheme must cover at least one dimension")

    @property
    def continuous_dims(self) -> int:
        return len(self.continuous_edges)

    @property
    def dimension(self) -> int:
        return self.continuous_dims + self.binary_dims

    def bins(self, dim: int) -> int:
        return len(self.continuous_edges[dim]) - 1

    def max_cell_diameter(self) -> float:
        """Largest cell diameter; binary dimensions contribute zero width."""
        sq = 0.0
        for edges in self.continuous_edges:
            sq += max(b - a for a, b in zip(edges, edges[1:])) ** 2
        return math.sqrt(sq)

    def to_dict(self) -> dict:
        return {
            "continuous_edges": [list(e) for e in self.continuous_edges],
            "binary_dims": self.binary_dims,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoarseningScheme":
        if "continuous_edges" in data:
            return cls(
                continuous_edges=tuple(tuple(e) for e in data["continuous_edges"]),
                binary_dims=int(data.get("binary_dims", 0)),
            )
        return grid_scheme(
            data["box_lo"],
            data["box_hi"],
            int(data["bins_per_dim"]),
            int(data.get("binary_dims", 0)),
        )


def grid_scheme(
    box_lo: Sequence[float],
    box_hi: Sequence[float],
    bins_per_dim: int,
    binary_dims: int = 0,
) -> CoarseningScheme:
    """Uniform partition: ``bins_per_dim`` half-open bins per continuous
    dimension across the box, crossed with all binary values."""
    if bins_per_dim < 1:
        raise ValueError("bins_per_dim must be at least 1")
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("box_lo and box_hi must be equal-length vectors")
    if not all(a < b and math.isfinite(b - a) for a, b in zip(lo.tolist(), hi.tolist())):
        raise ValueError("box_lo must be strictly below box_hi, a finite span apart")
    edges = tuple(
        tuple(np.linspace(lo[j], hi[j], bins_per_dim + 1).tolist()) for j in range(len(lo))
    )
    return CoarseningScheme(continuous_edges=edges, binary_dims=binary_dims)


def assign_stratum(scheme: CoarseningScheme, x: Sequence[float]) -> StratumId | None:
    """Cell containing ``x`` under the (lo, hi] convention, or None when any
    coordinate falls outside the covered region (including exactly on the
    global lower edge) or a binary coordinate is not exactly 0 or 1."""
    if len(x) != scheme.dimension:
        raise ValueError(f"expected {scheme.dimension} coordinates, got {len(x)}")
    codes, valid = _assign_codes(scheme, np.asarray(x, dtype=float).reshape(1, -1))
    return tuple(codes[0].tolist()) if valid[0] else None


def _assign_codes(scheme: CoarseningScheme, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized stratum assignment: integer codes plus an in-region mask."""
    n = xs.shape[0]
    codes = np.zeros((n, scheme.dimension), dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    for j, edges in enumerate(scheme.continuous_edges):
        col = xs[:, j]
        e = np.asarray(edges)
        k = np.searchsorted(e, col, side="left") - 1
        with np.errstate(invalid="ignore"):
            valid &= (col > e[0]) & (col <= e[-1])
        codes[:, j] = np.clip(k, 0, len(edges) - 2)
    for j in range(scheme.binary_dims):
        col = xs[:, scheme.continuous_dims + j]
        is01 = (col == 0.0) | (col == 1.0)
        valid &= is01
        codes[:, scheme.continuous_dims + j] = np.where(col == 1.0, 1, 0)
    return codes, valid


_INT64_MAX = np.iinfo(np.int64).max


def _flat_codes(scheme: CoarseningScheme, codes: np.ndarray) -> np.ndarray:
    """One int64 per row of per-dimension codes, ordered like the rows'
    lexicographic order.

    Mixed-radix digits, one per dimension.  When the next digit would overflow
    int64, the prefix is first replaced by its rank among the distinct
    prefixes, which keeps the order and bounds the prefix by the row count.
    """
    radices = [scheme.bins(j) for j in range(scheme.continuous_dims)] + [2] * scheme.binary_dims
    flat = codes[:, 0].copy()
    span = radices[0]
    for j in range(1, len(radices)):
        if span > _INT64_MAX // radices[j]:
            prefixes, flat = np.unique(flat, return_inverse=True)
            span = len(prefixes)
        flat = flat * radices[j] + codes[:, j]
        span *= radices[j]
    return flat


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
    ``stratum_of``, ``g1`` and ``g0`` are per-subject views derived from
    them on first use.
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
        codes, _ = _assign_codes(self.scheme, self.cohort.covariate_matrix[first[cells >= 0]])
        return tuple(map(tuple, codes.tolist()))

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
    def g1(self) -> frozenset:
        """Ids of the matched treated subjects."""
        return self._matched_ids(1)

    @cached_property
    def g0(self) -> frozenset:
        """Ids of the matched controls."""
        return self._matched_ids(0)

    def _matched_ids(self, arm: int) -> frozenset:
        picked = np.flatnonzero((self.cell >= 0) & (self.cohort.arms == arm))
        ids = self.cohort.ids
        return frozenset(ids[i] for i in picked.tolist())

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
        lo = cells * len(axis) + np.searchsorted(axis, t, side="left")
        hi = (cells + 1) * len(axis)
        return tuple(
            np.searchsorted(keys, hi, side="left") - np.searchsorted(keys, lo, side="left")
            for keys in self._risk_keys
        )

    @cached_property
    def last_control_time(self) -> np.ndarray:
        """E_c: the largest observed control time in each matched cell."""
        axis = self.cohort.time_axis[0]
        keys0 = self._risk_keys[1]
        ends = np.searchsorted(keys0, np.arange(1, self.n_cells + 1) * len(axis), side="left")
        return axis[keys0[ends - 1] % len(axis)]

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
        effective = np.minimum(r1, np.searchsorted(axis, self.last_control_time)[self.cell[treated]])
        return risk_set_sums(r1, len(axis))[k], risk_set_sums(effective, len(axis))[k]


def match(cohort: Cohort, scheme: CoarseningScheme) -> MatchedCohort:
    """Partition the cohort by stratum and keep subjects whose cell contains
    at least one subject of each arm.  An empty matched treated set is a
    legal, flagged outcome, not an error."""
    xs = cohort.covariate_matrix
    if xs.shape[1] != scheme.dimension:
        raise ValueError(
            f"scheme covers {scheme.dimension} dimensions but subjects have {xs.shape[1]}"
        )
    codes, valid = _assign_codes(scheme, xs)
    arms = cohort.arms[valid]
    # occupied cells of the region, in lexicographic order of their codes
    cells, occupied = np.unique(_flat_codes(scheme, codes[valid]), return_inverse=True)
    treated = np.bincount(occupied[arms == 1], minlength=len(cells))
    controls = np.bincount(occupied[arms == 0], minlength=len(cells))
    both = (treated > 0) & (controls > 0)
    matched_index = np.where(both, np.cumsum(both) - 1, -1)

    cell = np.full(len(valid), -1, dtype=np.int64)
    cell[valid] = matched_index[occupied]
    reason = np.where(cell >= 0, _MATCHED, _NO_PARTNER).astype(np.int8)
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
