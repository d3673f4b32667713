import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemlogrank import Cohort, SubjectRecord
from cemlogrank.survival import build_event_grid, risk_set_sums


def make_subject(id, time, event, arm=0, x=(0.5,)):
    return SubjectRecord(id=id, covariates=tuple(x), arm=arm, observed_time=time, event=event)


def event_pairs(cohort, k):
    """The (id, arm) pairs of the events at the k-th event-grid time, in
    subject order."""
    members = np.flatnonzero(cohort.event_steps[1] == k).tolist()
    return [(cohort.ids[i], int(cohort.arms[i])) for i in members]


def at_risk_count(subjects, t, horizon=10.0):
    """Subjects at risk at t, as every risk-set sum on the cohort's time axis
    counts them."""
    axis, rank = Cohort(subjects=tuple(subjects), horizon=horizon).time_axis
    return int(risk_set_sums(rank, len(axis))[np.searchsorted(axis, t)])


def event_count(subjects, t, horizon=10.0):
    """Events on the cohort's event grid at or before t."""
    cohort = Cohort(subjects=tuple(subjects), horizon=horizon)
    grid, step = cohort.event_steps
    times = cohort.time_axis[0][grid]
    return int(np.count_nonzero(times[step[step >= 0]] <= t))


class TestAtRisk:
    def test_at_own_time_still_at_risk(self):
        assert at_risk_count([make_subject("a", 3.0, True)], 3.0) == 1

    def test_just_after_own_time_not_at_risk(self):
        assert at_risk_count([make_subject("a", 3.0, True)], 3.0001) == 0

    def test_everyone_at_risk_at_zero(self):
        assert at_risk_count([make_subject("a", 0.0, False), make_subject("b", 7.5, True)], 0.0) == 2


class TestCounting:
    def test_counts_at_own_event_time(self):
        assert event_count([make_subject("a", 3.0, True)], 3.0) == 1

    def test_censored_subject_never_counts(self):
        assert event_count([make_subject("a", 3.0, False)], 10.0) == 0

    def test_before_event(self):
        assert event_count([make_subject("a", 3.0, True)], 2.9) == 0


class TestRecordValidation:
    def test_bad_arm(self):
        with pytest.raises(ValueError):
            make_subject("a", 1.0, True, arm=2)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            make_subject("a", -1.0, True)

    def test_nonfinite_time(self):
        with pytest.raises(ValueError):
            make_subject("a", math.inf, True)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Cohort(subjects=(make_subject("a", 1.0, True), make_subject("a", 2.0, False)), horizon=5.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            Cohort(subjects=(make_subject("a", 1.0, True),), horizon=0.0)


class TestEventValidation:
    """An event flag is 0 or 1 (bools included), as an arm is; anything else
    is rejected with the wording of the CSV reader's row check."""

    @pytest.mark.parametrize("event", ["no", 2, math.nan, 0.5, None])
    def test_record_rejects_a_bad_event(self, event):
        with pytest.raises(ValueError, match=rf"^event must be 0 or 1, got {re.escape(repr(event))}$"):
            make_subject("a", 1.0, event)

    @pytest.mark.parametrize("event", [True, False, 1, 0, 1.0, np.bool_(True), np.int8(0)])
    def test_record_accepts_zero_and_one(self, event):
        assert make_subject("a", 1.0, event).event == event

    @pytest.mark.parametrize(
        "events, bad",
        [([2, math.nan, 0.5], 2.0), ([1, 0, 3], 3), ([True, None, False], None), (["1", "0", "1"], "1")],
    )
    def test_columns_reject_a_bad_event(self, events, bad):
        with pytest.raises(ValueError, match=rf"^event must be 0 or 1, got {re.escape(repr(bad))}$"):
            Cohort.from_columns(range(3), [[0.0]] * 3, [0, 1, 1], [1.0, 2.0, 3.0], events, 5.0)

    @pytest.mark.parametrize(
        "events",
        [[1, 0, 1], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int8), np.array([True, False, True])],
    )
    def test_columns_take_zero_and_one_as_bools(self, events):
        cohort = Cohort.from_columns(range(3), [[0.0]] * 3, [0, 1, 1], [1.0, 2.0, 3.0], events, 5.0)
        assert cohort.events.dtype == bool
        assert cohort.events.tolist() == [True, False, True]


class TestEventGrid:
    def test_ties_grouped_and_censoring_excluded(self):
        cohort = Cohort(
            subjects=(
                make_subject("a", 2.0, True, arm=1),
                make_subject("b", 5.0, True, arm=0),
                make_subject("c", 2.0, True, arm=0),
                make_subject("d", 7.0, False, arm=1),
            ),
            horizon=10.0,
        )
        assert build_event_grid(cohort).tolist() == [2.0, 5.0]
        assert len(event_pairs(cohort, 0)) == 2
        assert set(event_pairs(cohort, 0)) == {("a", 1), ("c", 0)}
        assert event_pairs(cohort, 1) == [("b", 0)]

    def test_all_censored_gives_empty_grid(self):
        cohort = Cohort(
            subjects=(make_subject("a", 2.0, False), make_subject("b", 3.0, False)),
            horizon=10.0,
        )
        assert len(build_event_grid(cohort)) == 0

    def test_event_exactly_at_horizon_included(self):
        cohort = Cohort(subjects=(make_subject("a", 10.0, True),), horizon=10.0)
        assert build_event_grid(cohort).tolist() == [10.0]

    def test_event_after_horizon_excluded(self):
        cohort = Cohort(
            subjects=(make_subject("a", 10.5, True), make_subject("b", 1.0, True)),
            horizon=10.0,
        )
        assert build_event_grid(cohort).tolist() == [1.0]


subject_strategy = st.builds(
    make_subject,
    id=st.integers(0, 10**6),
    time=st.floats(0.0, 12.0, allow_nan=False),
    event=st.booleans(),
    arm=st.sampled_from([0, 1]),
)


@settings(max_examples=100, deadline=None)
@given(
    subject=subject_strategy,
    t1=st.floats(0.0, 15.0, allow_nan=False),
    t2=st.floats(0.0, 15.0, allow_nan=False),
)
def test_counting_nondecreasing_and_at_risk_nonincreasing(subject, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert event_count([subject], lo) <= event_count([subject], hi)
    assert at_risk_count([subject], lo) >= at_risk_count([subject], hi)


@settings(max_examples=100, deadline=None)
@given(subject=subject_strategy, t=st.floats(0.0, 15.0, allow_nan=False))
def test_event_implies_at_risk_up_to_event(subject, t):
    if event_count([subject], t) == 1:
        assert at_risk_count([subject], subject.observed_time) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(subject_strategy, min_size=1, max_size=12, unique_by=lambda s: s.id),
    st.randoms(),
)
def test_event_grid_invariant_under_permutation(subjects, rnd):
    horizon = 10.0
    cohort1 = Cohort(subjects=tuple(subjects), horizon=horizon)
    shuffled = list(subjects)
    rnd.shuffle(shuffled)
    cohort2 = Cohort(subjects=tuple(shuffled), horizon=horizon)
    times = build_event_grid(cohort1).tolist()
    assert times == build_event_grid(cohort2).tolist()
    for k in range(len(times)):
        assert sorted(event_pairs(cohort1, k), key=repr) == sorted(event_pairs(cohort2, k), key=repr)


@settings(max_examples=60, deadline=None)
@given(st.lists(subject_strategy, min_size=1, max_size=12, unique_by=lambda s: s.id))
def test_event_grid_matches_direct_enumeration(subjects):
    horizon = 10.0
    cohort = Cohort(subjects=tuple(subjects), horizon=horizon)
    times = build_event_grid(cohort).tolist()
    expected = sorted({s.observed_time for s in subjects if s.event and 0 < s.observed_time <= horizon})
    assert times == expected
    for k, t in enumerate(times):
        assert len(event_pairs(cohort, k)) == sum(1 for s in subjects if s.event and s.observed_time == t)


@st.composite
def risk_set_inputs(draw):
    """Observed times drawn from a few distinct values (so ties are common),
    one to three stacked weight rows, and query times that include values
    below the smallest and above the largest observed time."""
    values = draw(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=5))
    n = draw(st.integers(0, 30))
    t = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype=float)
    rows = draw(st.integers(1, 3))
    weights = draw(st.lists(st.floats(0.0, 4.0, allow_nan=False), min_size=rows * n, max_size=rows * n))
    extra = draw(st.lists(st.sampled_from(values) | st.floats(0.0, 10.0, allow_nan=False), max_size=8))
    queries = np.array([-1.0, 11.0, *values, *extra])
    return t, np.array(weights, dtype=float).reshape(rows, n), queries


@settings(max_examples=200, deadline=None)
@example(inputs=(np.array([]), np.zeros((2, 0)), np.array([-1.0, 0.0, 11.0])))
@given(inputs=risk_set_inputs())
def test_risk_set_sums_match_direct_enumeration(inputs):
    t, weights, queries = inputs
    axis, rank = np.unique(t, return_inverse=True)
    k = np.searchsorted(axis, queries)
    expected = [[math.fsum(w for ti, w in zip(t, row) if ti >= s) for s in queries] for row in weights]
    for row, row_expected in zip(weights, expected):
        assert np.allclose(risk_set_sums(rank, len(axis), row)[k], row_expected, rtol=0.0, atol=1e-12)
    counts = [sum(1 for ti in t if ti >= s) for s in queries]
    assert risk_set_sums(rank, len(axis))[k].tolist() == counts
