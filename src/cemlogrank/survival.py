"""Core survival data model: subject records, risk/counting indicators, event grids.

Times are plain 64-bit floats and are compared exactly; ingestion controls
rounding, and no epsilon merging is ever applied to the event grid.
"""

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Cohort:
    """A collection of subjects observed on the window [0, horizon]."""

    subjects: tuple[SubjectRecord, ...]
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if not self.subjects:
            raise ValueError("cohort must contain at least one subject")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValueError("subject ids must be unique")

    @cached_property
    def index_of(self) -> dict[SubjectId, int]:
        """Position of each subject id in the cohort's subject order."""
        return {s.id: i for i, s in enumerate(self.subjects)}

    @cached_property
    def covariate_matrix(self) -> np.ndarray:
        """Subjects-by-dimensions float matrix, in subject order."""
        d = len(self.subjects[0].covariates)
        if any(len(s.covariates) != d for s in self.subjects):
            raise ValueError("all subjects must share one covariate dimension")
        return _read_only(np.array([s.covariates for s in self.subjects], dtype=float))

    @cached_property
    def times(self) -> np.ndarray:
        """Observed times, in subject order."""
        return _read_only(np.array([s.observed_time for s in self.subjects], dtype=float))

    @cached_property
    def arms(self) -> np.ndarray:
        """Arm (0 or 1) of each subject, in subject order."""
        return _read_only(np.array([s.arm for s in self.subjects], dtype=np.int8))

    @cached_property
    def events(self) -> np.ndarray:
        """Event flags, in subject order."""
        return _read_only(np.array([s.event for s in self.subjects], dtype=bool))

    def arm_count(self, arm: int) -> int:
        return int(np.count_nonzero(self.arms == arm))


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


def event_steps(cohort: Cohort) -> tuple[np.ndarray, np.ndarray]:
    """Distinct event times in (0, horizon], ascending, and for each subject
    the index of its own time among them, or -1 when the subject has no event
    in that window."""
    t = cohort.times
    in_window = cohort.events & (t > 0.0) & (t <= cohort.horizon)
    times, step_in_window = np.unique(t[in_window], return_inverse=True)
    step = np.full(len(t), -1, dtype=np.int64)
    step[in_window] = step_in_window
    return times, step


def build_event_grid(cohort: Cohort) -> EventGrid:
    """Collect the distinct event times in (0, horizon] with their events.

    Tied events at one time are grouped into a single grid step; the order of
    events within a step follows the subject order of the cohort and carries
    no meaning (all per-step quantities are sums).
    """
    times, step = event_steps(cohort)
    members = np.flatnonzero(step >= 0)
    members = members[np.argsort(step[members], kind="stable")]
    bounds = np.searchsorted(step[members], np.arange(len(times) + 1)).tolist()
    subjects = cohort.subjects
    pairs = [(subjects[i].id, subjects[i].arm) for i in members.tolist()]
    return EventGrid(
        times=tuple(times.tolist()),
        events=tuple(tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])),
    )
