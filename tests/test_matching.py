import dataclasses
import math

import numpy as np
import pytest

from cemlogrank import (
    Cohort,
    MatchReason,
    Scenario,
    cem_weight,
    generate,
    grid_scheme,
    match,
    omega_n_holds,
    pooled_at_risk,
)
from cemlogrank.oracle import stratum_by_comparison

from cohorts import Row, cohort_of


def subj(id, x, arm, time, event=True):
    xs = (x,) if isinstance(x, float) else tuple(x)
    return Row(id=id, covariates=xs, arm=arm, observed_time=time, event=event)


def matched_ids(mc, arm):
    """Ids of the matched subjects of one arm."""
    picked = np.flatnonzero((mc.cell >= 0) & (mc.cohort.arms == arm))
    return {mc.cohort.ids[i] for i in picked.tolist()}


def stratum(scheme, x):
    """Cell that ``match`` gives a point x, held equal to the oracle's, or None
    outside the covered region; a treated and a control subject both sit at
    x, so the point's cell always has a cross-arm partner."""
    cohort = Cohort.from_columns(["t", "c"], [x, x], [1, 0], [1.0, 1.0], [True, True], 10.0)
    mc = match(cohort, scheme)
    assert mc.stratum_of == stratum_by_comparison(mc)
    cell = mc.stratum_of["t"]
    return None if cell is MatchReason.OUTSIDE_REGION else cell


class TestGridScheme:
    def test_simulation_scale_partition(self):
        bins = int(math.floor(5000**0.3))
        assert bins == 12
        scheme = grid_scheme([-5.0, -5.0, -5.0], [5.0, 5.0, 5.0], bins, binary_dims=2)
        assert scheme.continuous_dims == 3
        assert scheme.binary_dims == 2
        assert all(scheme.bins(j) == 12 for j in range(3))
        assert scheme.continuous_edges[0][0] == -5.0
        assert scheme.continuous_edges[0][-1] == 5.0

    def test_single_cell(self):
        scheme = grid_scheme([0.0], [1.0], 1)
        assert scheme.continuous_edges == ((0.0, 1.0),)

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            grid_scheme([0.0], [1.0], 0)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            grid_scheme([1.0], [0.0], 2)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308), (0.0, math.nan)])
    def test_unbounded_box_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite span"):
            grid_scheme([lo], [hi], 2)

    def test_roundtrip_dict(self):
        scheme = grid_scheme([-5.0, 0.0], [5.0, 4.0], 3, binary_dims=1)
        from cemlogrank.matching import CoarseningScheme

        again = CoarseningScheme.from_dict(scheme.to_dict())
        assert again == scheme
        via_box = CoarseningScheme.from_dict(
            {"box_lo": [-5.0, 0.0], "box_hi": [5.0, 4.0], "bins_per_dim": 3, "binary_dims": 1}
        )
        assert via_box == scheme


class TestAssignStratum:
    def test_boundary_lands_in_lower_cell(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        assert stratum(scheme, (0.5,)) == (0,)

    def test_just_above_boundary(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        assert stratum(scheme, (0.51,)) == (1,)

    def test_lower_edge_is_outside(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        assert stratum(scheme, (0.0,)) is None
        big = grid_scheme([-5.0, -5.0, -5.0], [5.0, 5.0, 5.0], 12, binary_dims=2)
        assert stratum(big, (-5.0, 0.0, 0.0, 1.0, 0.0)) is None

    def test_above_upper_edge_is_outside(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        assert stratum(scheme, (1.0000001,)) is None
        assert stratum(scheme, (1.0,)) == (1,)

    def test_binary_values(self):
        scheme = grid_scheme([0.0], [1.0], 2, binary_dims=1)
        assert stratum(scheme, (0.5, 1.0)) == (0, 1)
        assert stratum(scheme, (0.5, 0.0)) == (0, 0)
        assert stratum(scheme, (0.5, 0.5)) is None

    def test_nan_is_outside(self):
        # a NaN covariate never reaches the cell rule: the cohort refuses it
        with pytest.raises(ValueError, match="finite"):
            stratum(grid_scheme([0.0], [1.0], 2), (math.nan,))

    def test_dimension_mismatch(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        with pytest.raises(ValueError):
            stratum(scheme, (0.5, 0.5))


ONE_CELL = grid_scheme([0.0], [1.0], 1)
TWO_CELLS = grid_scheme([0.0], [1.0], 2)


class TestMatch:
    def test_cross_arm_pair_matches(self):
        cohort = cohort_of((subj("t", 0.3, 1, 2.0), subj("c", 0.4, 0, 3.0)), horizon=10.0)
        mc = match(cohort, TWO_CELLS)
        assert matched_ids(mc, 1) == {"t"} and matched_ids(mc, 0) == {"c"}
        assert mc.n1 == 1 and mc.unmatched_count == 0

    def test_different_cells_do_not_match(self):
        cohort = cohort_of((subj("t", 0.3, 1, 2.0), subj("c", 0.7, 0, 3.0)), horizon=10.0)
        mc = match(cohort, TWO_CELLS)
        assert mc.n1 == 0 and mc.n0 == 0
        assert mc.stratum_of["t"] is MatchReason.NO_CROSS_ARM_PARTNER
        assert mc.stratum_of["c"] is MatchReason.NO_CROSS_ARM_PARTNER

    def test_counts_by_direct_enumeration(self):
        # 2 treated + 3 controls share a cell, 1 treated alone in another
        cohort = cohort_of(
            (
                subj("t1", 0.1, 1, 1.0),
                subj("t2", 0.2, 1, 2.0),
                subj("c1", 0.3, 0, 3.0),
                subj("c2", 0.4, 0, 4.0),
                subj("c3", 0.45, 0, 5.0),
                subj("t3", 0.9, 1, 6.0),
            ),
            horizon=10.0,
        )
        mc = match(cohort, TWO_CELLS)
        assert matched_ids(mc, 1) == {"t1", "t2"} and len(matched_ids(mc, 0)) == 3
        assert mc.stratum_of["t3"] is MatchReason.NO_CROSS_ARM_PARTNER

    def test_outside_region_reason(self):
        cohort = cohort_of((subj("t", -0.5, 1, 2.0), subj("c", 0.4, 0, 3.0)), horizon=10.0)
        mc = match(cohort, TWO_CELLS)
        assert mc.stratum_of["t"] is MatchReason.OUTSIDE_REGION

    def test_empty_matched_treated_is_legal(self):
        cohort = cohort_of((subj("c1", 0.4, 0, 3.0), subj("c2", 0.6, 0, 1.0)), horizon=10.0)
        mc = match(cohort, ONE_CELL)
        assert mc.n1 == 0 and mc.n0 == 0
        assert omega_n_holds(mc)

    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.default_rng(5)
        subjects = [
            subj(i, float(rng.uniform(0.01, 1.0)), int(rng.integers(2)), float(rng.uniform(0, 10)))
            for i in range(20)
        ]
        mc1 = match(cohort_of(subjects, horizon=10.0), TWO_CELLS)
        mc2 = match(mc1.cohort, TWO_CELLS)
        assert mc1.stratum_of == mc2.stratum_of
        assert all(matched_ids(mc1, arm) == matched_ids(mc2, arm) for arm in (0, 1))
        perm = list(subjects)
        rng.shuffle(perm)
        mc3 = match(cohort_of(perm, horizon=10.0), TWO_CELLS)
        assert mc3.stratum_of == mc1.stratum_of
        assert all(matched_ids(mc3, arm) == matched_ids(mc1, arm) for arm in (0, 1))

    def test_cells_beyond_int64_keep_lexicographic_order(self):
        # 300**8 cells: a plain mixed-radix cell code would overflow int64
        rng = np.random.default_rng(8)
        d = 8
        scheme = grid_scheme([0.0] * d, [1.0] * d, 300, binary_dims=1)
        prototypes = [tuple(rng.choice([0.001, 0.5, 0.999], size=d).tolist()) for _ in range(6)]
        subjects = [
            subj(i, prototypes[int(rng.integers(6))] + (float(rng.integers(2)),), int(rng.integers(2)), 1.0)
            for i in range(80)
        ]
        mc = match(cohort_of(subjects, horizon=10.0), scheme)
        expected = stratum_by_comparison(mc)
        matched = sorted({key for key in expected.values() if isinstance(key, tuple)})
        assert len(matched) >= 3
        assert list(mc.cell_keys) == matched
        assert mc.stratum_of == expected
        for s in subjects:
            key = expected[s.id]
            assert mc.cell[mc.cohort.index_of[s.id]] == (matched.index(key) if key in matched else -1)

    def test_result_is_frozen(self):
        cohort = cohort_of((subj("t", 0.3, 1, 2.0), subj("c", 0.4, 0, 3.0)), horizon=10.0)
        mc = match(cohort, TWO_CELLS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mc.n1 = 2
        with pytest.raises(ValueError):
            mc.cell[0] = 1


class TestCemWeight:
    def test_treated_weight_is_one_at_every_time(self):
        cohort = cohort_of((subj("t", 0.3, 1, 2.0), subj("c", 0.4, 0, 3.0)), horizon=10.0)
        mc = match(cohort, ONE_CELL)
        for t in (0.0, 1.0, 2.0, 2.5, 9.0):
            assert cem_weight(mc, "t", t) == 1.0

    def test_unmatched_weight_is_zero(self):
        cohort = cohort_of(
            (subj("t", 0.3, 1, 2.0), subj("c", 0.7, 0, 3.0)),
            horizon=10.0,
        )
        mc = match(cohort, TWO_CELLS)
        assert cem_weight(mc, "t", 1.0) == 0.0
        assert cem_weight(mc, "c", 1.0) == 0.0

    def test_control_weight_is_cell_ratio(self):
        # one treated, two controls at risk -> each control carries 1/2
        cohort = cohort_of(
            (subj("t", 0.3, 1, 5.0), subj("c1", 0.4, 0, 5.0), subj("c2", 0.5, 0, 5.0)),
            horizon=10.0,
        )
        mc = match(cohort, ONE_CELL)
        assert cem_weight(mc, "c1", 1.0) == pytest.approx(0.5, abs=0)

    def test_exhausted_controls_give_zero_by_total_reciprocal(self):
        cohort = cohort_of(
            (subj("t", 0.3, 1, 9.0), subj("c1", 0.4, 0, 1.0), subj("c2", 0.5, 0, 2.0)),
            horizon=10.0,
        )
        mc = match(cohort, ONE_CELL)
        assert cem_weight(mc, "c1", 5.0) == 0.0

    def test_unknown_id_raises(self):
        cohort = cohort_of((subj("t", 0.3, 1, 2.0), subj("c", 0.4, 0, 3.0)), horizon=10.0)
        mc = match(cohort, ONE_CELL)
        with pytest.raises(ValueError):
            cem_weight(mc, "nope", 1.0)

    def test_denominator_over_all_controls_equals_matched_restriction(self):
        # for matched controls, cellmates are all matched, so the sum over the
        # full control group equals the matched-restricted sum the code uses
        rng = np.random.default_rng(11)
        subjects = [
            subj(i, float(rng.uniform(0.01, 1.0)), int(rng.integers(2)), float(rng.uniform(0, 10)))
            for i in range(24)
        ]
        cohort = cohort_of(subjects, horizon=10.0)
        mc = match(cohort, TWO_CELLS)
        def cell_of(o):
            return (int(o.covariates[0] > 0.5),)

        for s in subjects:
            if s.id not in matched_ids(mc, 0):
                continue
            cell = mc.stratum_of[s.id]
            assert cell == cell_of(s)
            for t in (0.0, 2.5, 5.0, 9.5):
                num = sum(1 for o in subjects if o.arm == 1 and o.observed_time >= t and cell_of(o) == cell)
                den = sum(1 for o in subjects if o.arm == 0 and o.observed_time >= t and cell_of(o) == cell)
                full = (num / den) if den else 0.0
                assert cem_weight(mc, s.id, t) == pytest.approx(full, abs=1e-12)


class TestAtRiskCounts:
    def test_counts_by_direct_enumeration_and_broadcast(self):
        cohort = generate(Scenario(n=400, seed=6))
        mc = match(cohort, grid_scheme([-5.0] * 3, [5.0] * 3, 2, binary_dims=2))
        cells = np.arange(mc.n_cells)[:, None]
        t = np.array([0.0, 0.5, 1.0, 2.5, 1e9])[None, :]
        r1, r0 = mc.at_risk_counts(cells, t)
        assert r1.shape == r0.shape == (mc.n_cells, 5)
        for c in range(mc.n_cells):
            for j, s in enumerate(t[0].tolist()):
                at_risk = (mc.cell == c) & (cohort.times >= s)
                assert r1[c, j] == np.count_nonzero(at_risk & (cohort.arms == 1))
                assert r0[c, j] == np.count_nonzero(at_risk & (cohort.arms == 0))
                assert mc.at_risk_counts(c, s) == (r1[c, j], r0[c, j])

    def test_subject_ranks_give_the_counts_at_their_times(self):
        cohort = generate(Scenario(n=400, seed=6))
        mc = match(cohort, grid_scheme([-5.0] * 3, [5.0] * 3, 2, binary_dims=2))
        subjects = np.flatnonzero(mc.cell >= 0)[::-1]
        by_rank = mc._at_risk(mc.cell[subjects], cohort.time_axis[1][subjects])
        by_time = mc.at_risk_counts(mc.cell[subjects], cohort.times[subjects])
        for a, b in zip(by_rank, by_time):
            assert a.tolist() == b.tolist()


class TestPooledAtRisk:
    def test_everyone_counts_at_time_zero(self):
        cohort = cohort_of(
            (
                subj("t1", 0.1, 1, 1.0),
                subj("t2", 0.2, 1, 2.0),
                subj("c1", 0.3, 0, 3.0),
                subj("c2", 0.4, 0, 4.0),
                subj("c3", 0.45, 0, 5.0),
            ),
            horizon=10.0,
        )
        mc = match(cohort, ONE_CELL)
        assert pooled_at_risk(mc, 1, 0.0) == mc.n1
        assert pooled_at_risk(mc, 0, 0.0) == pytest.approx(mc.n1, abs=1e-12)

    def test_no_matches_gives_zero(self):
        cohort = cohort_of((subj("t", 0.3, 1, 2.0), subj("c", 0.7, 0, 3.0)), horizon=10.0)
        mc = match(cohort, TWO_CELLS)
        assert pooled_at_risk(mc, 1, 0.0) == 0.0
        assert pooled_at_risk(mc, 0, 0.0) == 0.0

    def test_balanced_cell_control_total_equals_treated_count(self):
        k = 3
        subjects = [subj(f"t{i}", 0.4, 1, 5.0) for i in range(k)]
        subjects += [subj(f"c{i}", 0.6, 0, 5.0) for i in range(k)]
        mc = match(cohort_of(subjects, horizon=10.0), ONE_CELL)
        assert pooled_at_risk(mc, 0, 2.0) == pytest.approx(k, abs=1e-12)


class TestOmega:
    def test_holds_when_every_cell_keeps_a_control_at_horizon(self):
        cohort = cohort_of(
            (subj("t", 0.3, 1, 2.0), subj("c", 0.4, 0, 10.0, event=False)),
            horizon=10.0,
        )
        assert omega_n_holds(match(cohort, ONE_CELL))

    def test_fails_when_controls_leave_before_horizon(self):
        cohort = cohort_of(
            (subj("t", 0.3, 1, 2.0), subj("c", 0.4, 0, 9.0, event=False)),
            horizon=10.0,
        )
        assert not omega_n_holds(match(cohort, ONE_CELL))

    def test_vacuous_when_no_matched_treated(self):
        cohort = cohort_of((subj("c1", 0.4, 0, 1.0), subj("c2", 0.5, 0, 2.0)), horizon=10.0)
        assert omega_n_holds(match(cohort, ONE_CELL))


def random_covered_cohort(rng, force_coverage):
    """Small random cohort on (0, 1] with one or two cells; optionally force a
    surviving control at the horizon in every occupied cell."""
    horizon = 5.0
    scheme = TWO_CELLS if rng.random() < 0.5 else ONE_CELL
    subjects = []
    next_id = 0
    for cell in range(scheme.bins(0)):
        x = (cell + 0.5) / scheme.bins(0)
        n_t = int(rng.integers(0, 4))
        n_c = int(rng.integers(0, 5))
        for _ in range(n_t):
            subjects.append(subj(next_id, x, 1, float(rng.uniform(0.1, 1.4)) * horizon, bool(rng.random() < 0.7)))
            next_id += 1
        for _ in range(n_c):
            subjects.append(subj(next_id, x, 0, float(rng.uniform(0.1, 1.4)) * horizon, bool(rng.random() < 0.7)))
            next_id += 1
        if force_coverage and n_t > 0 and n_c > 0:
            subjects.append(subj(next_id, x, 0, horizon + float(rng.uniform(0.0, 1.0)), False))
            next_id += 1
    if not subjects:
        subjects.append(subj(0, 0.25, 0, 1.0, False))
    return match(cohort_of(subjects, horizon=horizon), scheme)


def test_coverage_event_implies_pooled_equality_and_monotone_decline():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        mc = random_covered_cohort(rng, force_coverage=True)
        if not omega_n_holds(mc) or mc.n1 == 0:
            continue
        checked += 1
        times = [0.0] + mc.cohort.time_axis[0][mc.cohort.event_steps[0]].tolist()
        prev = {1: math.inf, 0: math.inf}
        for t in times:
            y1 = pooled_at_risk(mc, 1, t)
            y0 = pooled_at_risk(mc, 0, t)
            assert abs(y1 - y0) <= 1e-12
            assert y1 <= prev[1] + 1e-12 and y0 <= prev[0] + 1e-12
            prev = {1: y1, 0: y0}


def test_weights_depend_only_on_cell_risk_counts():
    # permuting subjects leaves every weight unchanged
    rng = np.random.default_rng(77)
    subjects = [
        subj(i, float(rng.uniform(0.01, 1.0)), int(rng.integers(2)), float(rng.uniform(0, 10)))
        for i in range(16)
    ]
    mc1 = match(cohort_of(subjects, horizon=10.0), TWO_CELLS)
    perm = list(subjects)
    rng.shuffle(perm)
    mc2 = match(cohort_of(perm, horizon=10.0), TWO_CELLS)
    for s in subjects:
        for t in (0.0, 1.0, 3.7, 8.2):
            assert cem_weight(mc1, s.id, t) == cem_weight(mc2, s.id, t)
