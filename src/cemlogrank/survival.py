"""Core survival data model: the columnar cohort and its risk-set sums.

A Cohort is a set of read-only columns (ids, covariate matrix, arms, times,
events) plus a horizon, built by ``Cohort.from_columns``.  The row types,
``SubjectRecord``, ``Cohort(subjects=...)``, the lazy row view
``Cohort.subjects`` and ``build_event_grid``, are kept only for the benchmark
harness, which still reads them; no production path uses them.  A subject is
at risk at t while its observed time is at least t, the convention of every
risk-set sum.

The cohort sorts its observed times once, on first use (``time_axis``), and
derives from that order the steps of its distinct event times
(``event_steps``); the matched and the IPTW tests both read the two, and every
risk-set sum is indexed on the axis.

Times are plain 64-bit floats and are compared exactly; ingestion controls
rounding, and no epsilon merging is ever applied to event times.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError
from .util import require_positive

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
        if self.event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {self.event!r}")
        if not (math.isfinite(self.observed_time) and self.observed_time >= 0.0):
            raise ValueError(
                f"observed_time must be finite and nonnegative, got {self.observed_time!r}"
            )


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Cohort:
    """A collection of subjects observed on the window [0, horizon], held as
    read-only columns in subject order.

    ``Cohort.from_columns`` builds one from its columns.  For the benchmark
    harness only, ``Cohort(subjects=..., horizon=...)`` passes a sequence of
    SubjectRecords to the same checks field by field, and ``subjects`` is a
    lazy row view that builds the records on first row access; its length
    needs no records.  A cohort given its ids as a ``range`` (or by the CSV
    reader) builds the ``ids`` tuple on first use.  The covariate matrix is
    C-ordered, a subject's covariates adjacent, whichever way the cohort was
    built.
    """

    covariate_matrix: np.ndarray
    arms: np.ndarray
    times: np.ndarray
    events: np.ndarray
    horizon: float

    # the ``range`` a cohort was given as its ids, which stands for the tuple
    _id_range = None

    def __init__(self, subjects: Sequence[SubjectRecord], horizon: float):
        subjects = tuple(subjects)
        self._set_columns(
            tuple(s.id for s in subjects),
            [s.covariates for s in subjects],
            [s.arm for s in subjects],
            [s.observed_time for s in subjects],
            [s.event for s in subjects],
            horizon,
        )

    @classmethod
    def from_columns(cls, ids, covariates, arms, times, events, horizon: float) -> "Cohort":
        """Cohort from per-subject columns: ids, an n x d covariate matrix,
        0/1 arms, nonnegative finite times and 0/1 event flags.  The arrays
        are copied.  A ``range`` of ids is unique by construction, so only
        other ids are scanned for duplicates, and bool events need no scan.
        Any malformed column, ids that are not a sequence of hashable values
        included, raises ConfigError, a ValueError."""
        cohort = cls.__new__(cls)
        cohort._set_columns(ids, covariates, arms, times, events, horizon)
        return cohort

    @classmethod
    def _from_checked_columns(cls, build_ids, covariates, arms, times, events, horizon) -> "Cohort":
        """Cohort from columns its caller built and checked as ``from_columns``
        does: a C-ordered float n x d covariate matrix, int8 arms, float
        times and bool events, all of length n, which are kept, not copied,
        and ``build_ids()``, which returns the tuple of n unique ids on the
        first use of ``ids``.  Only the horizon is checked here."""
        require_positive("horizon", horizon)
        cohort = cls.__new__(cls)
        cohort.__dict__["_build_ids"] = build_ids
        cohort._store(covariates, arms, times, events, horizon)
        return cohort

    def _set_columns(self, ids, covariates, arms, times, events, horizon) -> None:
        if isinstance(ids, range):
            # unique by construction; the tuple is built on first use
            self.__dict__["_id_range"] = ids
            self.__dict__["_build_ids"] = partial(tuple, ids)
        else:
            try:
                ids = tuple(ids)
                unique = len(set(ids)) == len(ids)
            except TypeError as exc:
                raise ConfigError(f"ids must be a sequence of hashable values: {exc}") from None
            if not unique:
                raise ConfigError("subject ids must be unique")
            self.__dict__["ids"] = ids
        n = len(ids)
        if n == 0:
            raise ConfigError("cohort must contain at least one subject")
        require_positive("horizon", horizon)
        arms = _array("arms", arms)
        bad = (arms != 0) & (arms != 1)
        if bad.any():
            raise ConfigError(f"arm must be 0 or 1, got {arms[bad].tolist()[0]!r}")
        times = _array("times", times, float)
        bad = ~(np.isfinite(times) & (times >= 0.0))
        if bad.any():
            raise ConfigError(
                f"observed_time must be finite and nonnegative, got {times[bad][0].item()!r}"
            )
        events = _array("events", events)
        if events.dtype != bool:
            bad = (events != 0) & (events != 1)
            if bad.any():
                raise ConfigError(f"event must be 0 or 1, got {events[bad].tolist()[0]!r}")
        if not isinstance(covariates, np.ndarray):
            # as objects, rows of unequal lengths make a 1-D array, not numpy's error
            covariates = _array("covariates", covariates, object)
        if covariates.ndim != 2:
            raise ConfigError("all subjects must share one covariate dimension")
        covariates = _array("covariates", covariates, float)
        if not np.isfinite(covariates).all():
            raise ConfigError("covariates must be finite")
        columns = (arms.astype(np.int8), times, events.astype(bool, copy=False))
        if covariates.shape[0] != n or any(c.shape != (n,) for c in columns):
            raise ConfigError("every column needs one entry per subject")
        self._store(covariates, *columns, horizon)

    def _store(self, covariates, arms, times, events, horizon) -> None:
        columns = {"covariate_matrix": covariates, "arms": arms, "times": times, "events": events}
        for name, column in columns.items():
            object.__setattr__(self, name, _read_only(column))
        object.__setattr__(self, "horizon", horizon)

    @cached_property
    def ids(self) -> tuple[SubjectId, ...]:
        """The subject ids in subject order."""
        return self._build_ids()

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        # the ids are left unbuilt: a cohort may hold millions
        return f"Cohort(n={len(self)}, d={self.covariate_matrix.shape[1]}, horizon={self.horizon!r})"

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


def _array(name: str, values, dtype=None) -> np.ndarray:
    """A C-ordered copy of ``values`` as an array; ConfigError naming the
    column when numpy cannot convert it."""
    try:
        return np.array(values, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} cannot be read as an array: {exc}") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def risk_set_sums(rank: np.ndarray, m: int, weights=None) -> np.ndarray:
    """For each axis index k in 0..m, the sum of weights (without weights, the
    count) over the subjects whose time has axis index ``rank`` >= k, i.e.
    whose observed time is at least the k-th distinct time; entry m is 0."""
    return np.cumsum(np.bincount(rank, weights, minlength=m + 1)[::-1])[::-1]


def build_event_grid(cohort: Cohort) -> np.ndarray:
    """The distinct event times in (0, horizon], ascending: the cohort's
    ``event_steps`` read on its ``time_axis``."""
    return cohort.time_axis[0][cohort.event_steps[0]]
