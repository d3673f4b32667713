"""Core survival data model: the columnar cohort, subject records,
risk/counting indicators, risk-set sums, event grids.

A Cohort is a set of read-only columns (ids, covariate matrix, arms, times,
events) plus a horizon, built by ``Cohort.from_columns`` or from records by
``Cohort(subjects=..., horizon=...)``.  ``Cohort.subjects`` is a lazy row
view of SubjectRecords for code that reads one subject at a time.

The cohort sorts its observed times once, on first use (``time_axis``), and
derives its event grid from that order (``event_steps``); the matched and the
IPTW tests both read the two, and every risk-set sum is indexed on the axis.

Times are plain 64-bit floats and are compared exactly; ingestion controls
rounding, and no epsilon merging is ever applied to the event grid.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SubjectId = int | str


@dataclass(frozen=True)
class SubjectRecord:
    """One individual's covariates, arm assignment, observed time, and event flag.

    ``observed_time`` is the earlier of the event time and the censoring time;
    ``event`` is True when the event itself (not censoring) was observed.
    Covariates are a flat vector; callers that split it into a continuous
    block followed by a binary block declare the split where it matters (the
    coarsening scheme), not here.
    """

    id: SubjectId
    covariates: tuple[float, ...]
    arm: int
    observed_time: float
    event: bool

    def __post_init__(self):
        if self.arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {self.arm!r}")
        if not (math.isfinite(self.observed_time) and self.observed_time >= 0.0):
            raise ValueError(
                f"observed_time must be finite and nonnegative, got {self.observed_time!r}"
            )


@dataclass(frozen=True, init=False, eq=False)
class Cohort:
    """A collection of subjects observed on the window [0, horizon], held as
    read-only columns in subject order.

    ``Cohort.from_columns`` builds one from its columns; ``Cohort(subjects=...,
    horizon=...)`` converts a sequence of SubjectRecords into the same
    columns.  ``subjects`` is a lazy row view that builds the records on first
    row access; its length needs no records.
    """

    ids: tuple[SubjectId, ...]
    covariate_matrix: np.ndarray = field(repr=False)
    arms: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    events: np.ndarray = field(repr=False)
    horizon: float

    def __init__(self, subjects: Sequence[SubjectRecord], horizon: float):
        subjects = tuple(subjects)
        d = len(subjects[0].covariates) if subjects else 0
        if any(len(s.covariates) != d for s in subjects):
            raise ValueError("all subjects must share one covariate dimension")
        self._set_columns(
            tuple(s.id for s in subjects),
            np.array([s.covariates for s in subjects], dtype=float).reshape(len(subjects), d),
            [s.arm for s in subjects],
            [s.observed_time for s in subjects],
            [s.event for s in subjects],
            horizon,
        )
        # the records are immutable and already valid: they serve as the rows
        self.__dict__["_records"] = subjects

    @classmethod
    def from_columns(cls, ids, covariates, arms, times, events, horizon: float) -> "Cohort":
        """Cohort from per-subject columns: ids, an n x d covariate matrix,
        0/1 arms, nonnegative finite times and event flags.  The arrays are
        copied."""
        cohort = cls.__new__(cls)
        cohort._set_columns(tuple(ids), covariates, arms, times, events, horizon)
        return cohort

    def _set_columns(self, ids, covariates, arms, times, events, horizon) -> None:
        n = len(ids)
        if n == 0:
            raise ValueError("cohort must contain at least one subject")
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
        arms = np.array(arms)
        bad = ~np.isin(arms, (0, 1))
        if bad.any():
            raise ValueError(f"arm must be 0 or 1, got {arms[bad][0].item()!r}")
        times = np.array(times, dtype=float)
        bad = ~(np.isfinite(times) & (times >= 0.0))
        if bad.any():
            raise ValueError(
                f"observed_time must be finite and nonnegative, got {times[bad][0].item()!r}"
            )
        if len(set(ids)) != n:
            raise ValueError("subject ids must be unique")
        covariates = np.array(covariates, dtype=float)
        if covariates.ndim != 2:
            raise ValueError("all subjects must share one covariate dimension")
        columns = {
            "covariate_matrix": covariates,
            "arms": arms.astype(np.int8),
            "times": times,
            "events": np.array(events, dtype=bool),
        }
        if any(c.shape[0] != n for c in columns.values()):
            raise ValueError("every column needs one entry per subject")
        object.__setattr__(self, "ids", ids)
        for name, column in columns.items():
            object.__setattr__(self, name, _read_only(column))
        object.__setattr__(self, "horizon", horizon)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.horizon == other.horizon
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("covariate_matrix", "arms", "times", "events")
            )
        )

    def __hash__(self) -> int:
        return hash((self.ids, self.horizon))

    @cached_property
    def subjects(self) -> "SubjectRows":
        """Read-only per-subject records, built on first row access."""
        return SubjectRows(self)

    @cached_property
    def _records(self) -> tuple[SubjectRecord, ...]:
        return tuple(
            SubjectRecord(id=i, covariates=tuple(x), arm=z, observed_time=t, event=e)
            for i, x, z, t, e in zip(
                self.ids,
                self.covariate_matrix.tolist(),
                self.arms.tolist(),
                self.times.tolist(),
                self.events.tolist(),
            )
        )

    @cached_property
    def index_of(self) -> dict[SubjectId, int]:
        """Position of each subject id in the cohort's subject order."""
        return {sid: i for i, sid in enumerate(self.ids)}

    def arm_count(self, arm: int) -> int:
        return int(np.count_nonzero(self.arms == arm))

    @cached_property
    def time_axis(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct observed times, ascending, and each subject's index
        among them."""
        axis, rank = np.unique(self.times, return_inverse=True)
        return _read_only(axis), _read_only(rank)

    @cached_property
    def event_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis indices of the distinct event times in (0, horizon], ascending,
        and for each subject the index of its own time among them, or -1 when
        the subject has no event in that window."""
        axis, rank = self.time_axis
        t = self.times
        in_window = self.events & (t > 0.0) & (t <= self.horizon)
        is_event_time = np.bincount(rank[in_window], minlength=len(axis)) > 0
        step = np.where(in_window, (np.cumsum(is_event_time) - 1)[rank], -1)
        return _read_only(np.flatnonzero(is_event_time)), _read_only(step)


class SubjectRows(Sequence):
    """Read-only sequence view of a cohort's rows as SubjectRecords."""

    def __init__(self, cohort: Cohort):
        self._cohort = cohort

    def __len__(self) -> int:
        return len(self._cohort)

    def __getitem__(self, index):
        return self._cohort._records[index]

    def __iter__(self):
        return iter(self._cohort._records)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EventGrid:
    """Distinct observed event times in (0, horizon], ascending, with the
    (subject id, arm) pairs of the events occurring at each time."""

    times: tuple[float, ...]
    events: tuple[tuple[tuple[SubjectId, int], ...], ...]

    def __post_init__(self):
        if len(self.times) != len(self.events):
            raise ValueError("times and event groups must align")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("grid times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def at_risk(subject: SubjectRecord, t: float) -> int:
    """At-risk indicator at time t: 1 iff observed_time >= t.

    Left-continuous convention: a subject whose observed time equals t is
    still at risk at t.
    """
    return 1 if subject.observed_time >= t else 0


def counting(subject: SubjectRecord, t: float) -> int:
    """Counting-process value at t: 1 iff the event occurred at or before t."""
    return 1 if (subject.event and subject.observed_time <= t) else 0


def risk_set_sums(rank: np.ndarray, m: int, weights=None) -> np.ndarray:
    """For each axis index k in 0..m, the sum of weights (without weights, the
    count) over the subjects whose time has axis index ``rank`` >= k, i.e.
    whose observed time is at least the k-th distinct time; entry m is 0."""
    return np.cumsum(np.bincount(rank, weights, minlength=m + 1)[::-1])[::-1]


def build_event_grid(cohort: Cohort) -> EventGrid:
    """Collect the distinct event times in (0, horizon] with their events.

    Tied events at one time are grouped into a single grid step; the order of
    events within a step follows the subject order of the cohort and carries
    no meaning (all per-step quantities are sums).
    """
    grid, step = cohort.event_steps
    members = np.flatnonzero(step >= 0)
    members = members[np.argsort(step[members], kind="stable")]
    bounds = np.searchsorted(step[members], np.arange(len(grid) + 1)).tolist()
    ids = cohort.ids
    pairs = list(zip([ids[i] for i in members.tolist()], cohort.arms[members].tolist()))
    return EventGrid(
        times=tuple(cohort.time_axis[0][grid].tolist()),
        events=tuple(tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])),
    )
