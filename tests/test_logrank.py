import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemlogrank import (
    ConfigError,
    Scenario,
    WeightFunction,
    cem_weight,
    fit_logistic,
    generate,
    grid_scheme,
    iptw_logrank,
    iptw_weights,
    kernel,
    match,
    pooled_at_risk,
    run_test,
    statistic_path,
    variance_estimate,
)
from cemlogrank import logrank
from cemlogrank.oracle import (
    pooled_by_enumeration,
    statistic_by_enumeration,
    stratum_by_comparison,
    weights_by_enumeration,
)
from cemlogrank.util import norm_sf

from cohorts import Row, cohort_of

ONE_CELL = grid_scheme([0.0], [1.0], 1)


def subj(id, arm, time, event=True, x=0.5):
    return Row(id=id, covariates=(x,), arm=arm, observed_time=time, event=event)


def single_cell(subjects, horizon=10.0):
    return match(cohort_of(subjects, horizon=horizon), ONE_CELL)


def random_instance(rng, n_low=4, n_high=14, horizon=10.0, two_cells=False):
    scheme = grid_scheme([0.0], [1.0], 2) if two_cells else ONE_CELL
    n = int(rng.integers(n_low, n_high + 1))
    subjects = []
    for i in range(n):
        x = float(rng.uniform(0.01, 1.0)) if two_cells else 0.5
        subjects.append(
            subj(i, int(rng.integers(2)), float(rng.uniform(0.05, 1.3)) * horizon, bool(rng.random() < 0.7), x=x)
        )
    return match(cohort_of(subjects, horizon=horizon), scheme)


class TestWeightFunction:
    def test_constant_default(self):
        wf = WeightFunction.constant()
        assert wf.value_at(0.0) == 1.0 and wf.value_at(123.0) == 1.0

    def test_left_continuous_steps(self):
        wf = WeightFunction(breakpoints=(2.0, 5.0), values=(1.0, 3.0, 7.0))
        assert wf.value_at(1.9) == 1.0
        assert wf.value_at(2.0) == 1.0  # value of the interval ending at 2
        assert wf.value_at(2.0001) == 3.0
        assert wf.value_at(5.0) == 3.0
        assert wf.value_at(6.0) == 7.0

    def test_array_of_times_matches_scalar_calls(self):
        wf = WeightFunction(breakpoints=(2.0, 5.0), values=(1.0, 3.0, 7.0))
        ts = [0.0, 1.9, 2.0, 2.0001, 5.0, 6.0]
        assert wf.value_at(np.array(ts)).tolist() == [wf.value_at(t) for t in ts]

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightFunction(breakpoints=(1.0,), values=(1.0,))
        with pytest.raises(ValueError):
            WeightFunction(breakpoints=(2.0, 2.0), values=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            WeightFunction(breakpoints=(), values=(math.inf,))


class TestKernel:
    def test_four_matched_pairs_all_at_risk(self):
        subjects = [subj(f"t{i}", 1, 9.0) for i in range(4)] + [subj(f"c{i}", 0, 9.0) for i in range(4)]
        mc = single_cell(subjects)
        assert kernel(mc, None, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_zero_when_treated_risk_set_empty(self):
        subjects = [subj("t", 1, 1.0), subj("c", 0, 9.0)]
        mc = single_cell(subjects)
        assert kernel(mc, None, 5.0) == 0.0

    def test_reduced_form_on_coverage_event(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            mc = random_instance(rng, two_cells=True, horizon=5.0)
            from cemlogrank import omega_n_holds

            if mc.n1 == 0 or not omega_n_holds(mc):
                continue
            checked += 1
            y1_0 = pooled_at_risk(mc, 1, 0.0)
            for s in (0.0, 1.0, 2.5, 4.0, 5.0):
                reduced = (2.0 ** -0.5) * y1_0 ** -0.5 * pooled_at_risk(mc, 1, s)
                assert kernel(mc, None, s) == pytest.approx(reduced, abs=1e-12)


class TestStatisticPath:
    def test_no_events_gives_empty_path(self):
        mc = single_cell([subj("t", 1, 3.0, event=False), subj("c", 0, 4.0, event=False)])
        assert statistic_path(mc) == []
        assert run_test(mc).statistic == 0.0

    def test_single_pair_treated_event(self):
        # one treated failing with one control at risk: sqrt(2)/2 * (1 - 0)
        mc = single_cell([subj("t", 1, 3.0), subj("c", 0, 5.0, event=False)])
        path = statistic_path(mc)
        assert len(path) == 1
        assert path[0][0] == 3.0
        assert path[0][1] == pytest.approx(2.0 ** -0.5, abs=1e-15)
        assert statistic_by_enumeration(mc) == pytest.approx(2.0 ** -0.5, abs=1e-15)

    def test_mirrored_instance_negates_exactly(self):
        plus = single_cell(
            [subj("a", 1, 1.0), subj("b", 1, 2.0), subj("c", 0, 1.0, event=False), subj("d", 0, 2.0, event=False)]
        )
        minus = single_cell(
            [subj("a", 0, 1.0), subj("b", 0, 2.0), subj("c", 1, 1.0, event=False), subj("d", 1, 2.0, event=False)]
        )
        w_plus = statistic_path(plus)[-1][1]
        w_minus = statistic_path(minus)[-1][1]
        assert w_plus == pytest.approx(1.0, abs=1e-15)
        assert w_minus == pytest.approx(-1.0, abs=1e-15)
        assert statistic_by_enumeration(plus) == pytest.approx(1.0, abs=1e-15)
        assert statistic_by_enumeration(minus) == pytest.approx(-1.0, abs=1e-15)

    def test_unmatched_event_times_appear_with_zero_increment(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        cohort = cohort_of(
            (subj("t", 1, 3.0, x=0.25), subj("c", 0, 5.0, event=False, x=0.3), subj("lone", 1, 1.0, x=0.8)),
            horizon=10.0,
        )
        mc = match(cohort, scheme)
        path = statistic_path(mc)
        assert [t for t, _ in path] == [1.0, 3.0]
        assert path[0][1] == 0.0

    def test_agrees_with_naive_enumeration(self):
        rng = np.random.default_rng(314)
        for _ in range(120):
            mc = random_instance(rng, two_cells=bool(rng.random() < 0.5))
            path = statistic_path(mc)
            final = path[-1][1] if path else 0.0
            assert final == pytest.approx(statistic_by_enumeration(mc), abs=1e-12)

    def test_agrees_with_naive_under_step_weight(self):
        rng = np.random.default_rng(2718)
        wf = WeightFunction(breakpoints=(3.0, 7.0), values=(1.0, 0.25, 2.0))
        for _ in range(60):
            mc = random_instance(rng, two_cells=True)
            path = statistic_path(mc, wf)
            final = path[-1][1] if path else 0.0
            assert final == pytest.approx(statistic_by_enumeration(mc, wf), abs=1e-12)

    @pytest.mark.parametrize("method", ["cem", "iptw"])
    def test_path_times_are_the_event_grid_at_scale(self, method):
        cohort = generate(Scenario(n=5000, assignment_model="model2", seed=7))
        if method == "cem":
            path = statistic_path(match(cohort, grid_scheme([-5.0] * 3, [5.0] * 3, 12, binary_dims=2)))
        else:
            weights = iptw_weights(fit_logistic(cohort, (0, 1)), cohort)
            path = iptw_logrank(cohort, weights, include_path=True).path
        assert [t for t, _ in path] == cohort.time_axis[0][cohort.event_steps[0]].tolist()

    def test_path_is_cumulative(self):
        rng = np.random.default_rng(1)
        mc = random_instance(rng, n_low=10, n_high=14)
        path = statistic_path(mc)
        assert [t for t, _ in path] == mc.cohort.time_axis[0][mc.cohort.event_steps[0]].tolist()


class TestVarianceEstimate:
    def test_unit_weight_counts_treated_events(self):
        subjects = [subj("t1", 1, 1.0), subj("t2", 1, 2.0), subj("t3", 1, 3.0, event=False)]
        subjects += [subj("c1", 0, 4.0), subj("c2", 0, 5.0, event=False)]
        mc = single_cell(subjects)
        # 2 treated events, n1 = 3
        assert variance_estimate(mc) == pytest.approx(2.0 / 6.0, abs=1e-15)

    def test_no_treated_events_gives_zero(self):
        mc = single_cell([subj("t", 1, 3.0, event=False), subj("c", 0, 1.0)])
        assert variance_estimate(mc) == 0.0

    def test_constant_weight_scales_quadratically(self):
        subjects = [subj("t1", 1, 1.0), subj("t2", 1, 2.0), subj("c", 0, 5.0)]
        mc = single_cell(subjects)
        c = 3.5
        base = variance_estimate(mc)
        assert variance_estimate(mc, WeightFunction.constant(c)) == pytest.approx(c * c * base, rel=1e-14)

    def test_ignores_control_arm_data(self):
        treated = [subj("t1", 1, 1.0), subj("t2", 1, 4.0)]
        mc_a = single_cell(treated + [subj("c1", 0, 2.0), subj("c2", 0, 9.0, event=False)])
        mc_b = single_cell(treated + [subj("c1", 0, 7.0, event=False), subj("c2", 0, 0.5)])
        assert variance_estimate(mc_a) == variance_estimate(mc_b)

    def test_events_after_horizon_excluded(self):
        mc = single_cell([subj("t1", 1, 1.0), subj("t2", 1, 11.0), subj("c", 0, 5.0)], horizon=10.0)
        assert variance_estimate(mc) == pytest.approx(1.0 / 4.0, abs=1e-15)


class TestRunTest:
    def test_zero_statistic_gives_unit_two_sided_p(self):
        # symmetric ties: both arms fail together, increments vanish
        mc = single_cell([subj("t", 1, 2.0), subj("c", 0, 2.0)])
        res = run_test(mc)
        assert res.statistic == 0.0
        assert res.variance_estimate > 0.0
        assert res.standardized == 0.0
        assert res.p_two_sided == 1.0
        assert not res.reject

    def test_p_values_match_normal_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mc = random_instance(rng)
            res = run_test(mc)
            assert res.p_upper == pytest.approx(norm_sf(res.standardized), abs=1e-15)
            assert res.p_lower == pytest.approx(1.0 - norm_sf(res.standardized), abs=1e-12)
            assert res.p_two_sided == pytest.approx(min(1.0, 2 * min(res.p_lower, res.p_upper)), abs=1e-15)
        # anchor half a normal tail: the survival function at 1.96
        assert norm_sf(1.96) == pytest.approx(0.025, abs=1e-4)
        from scipy.stats import norm

        assert norm_sf(1.96) == pytest.approx(norm.sf(1.96), abs=1e-6)

    def test_degenerate_variance_flagged(self):
        mc = single_cell([subj("t", 1, 3.0, event=False), subj("c", 0, 1.0)])
        res = run_test(mc)
        assert res.variance_estimate == 0.0
        assert res.degenerate_variance
        assert res.standardized == 0.0

    def test_direction_rejections(self):
        mc = single_cell([subj("t", 1, 3.0), subj("c", 0, 5.0, event=False)])
        up = run_test(mc, alpha=0.2, direction="upper")
        lo = run_test(mc, alpha=0.2, direction="lower")
        assert up.standardized > 0
        assert up.reject == (up.p_upper <= 0.2)
        assert lo.reject == (lo.p_lower <= 0.2)

    def test_invalid_alpha_and_direction(self):
        mc = single_cell([subj("t", 1, 3.0), subj("c", 0, 5.0)])
        with pytest.raises(ValueError):
            run_test(mc, alpha=0.0)
        with pytest.raises(ValueError):
            run_test(mc, direction="sideways")

    def test_decision_inputs_are_checked_before_the_work(self, monkeypatch):
        mc = single_cell([subj("t", 1, 3.0), subj("c", 0, 5.0)])

        def no_path(*args):
            raise AssertionError("the statistic path was built")

        monkeypatch.setattr(logrank, "_matched_path", no_path)
        for kwargs in ({"alpha": 2.0}, {"direction": "sideways"}):
            with pytest.raises(ConfigError):
                run_test(mc, **kwargs)

    def test_counts_and_flags_attached(self):
        scheme = grid_scheme([0.0], [1.0], 2)
        cohort = cohort_of(
            (subj("t", 1, 3.0, x=0.25), subj("c", 0, 12.0, event=False, x=0.3), subj("lone", 1, 1.0, x=0.8)),
            horizon=10.0,
        )
        res = run_test(match(cohort, scheme))
        assert (res.n1, res.n0, res.unmatched_count) == (1, 1, 1)
        assert res.omega_n is True
        assert res.method == "cem"

    def test_path_included_on_request(self):
        mc = single_cell([subj("t", 1, 3.0), subj("c", 0, 5.0, event=False)])
        assert run_test(mc).path is None
        res = run_test(mc, include_path=True)
        assert res.path == tuple(statistic_path(mc))


    def test_fields_are_python_scalars(self):
        # samples.csv writes repr(statistic); a NumPy scalar would print as np.float64(...)
        cohort = generate(Scenario(n=300, assignment_model="model1", seed=2))
        mc = match(cohort, grid_scheme([-5.0] * 3, [5.0] * 3, 4, binary_dims=2))
        weights = iptw_weights(fit_logistic(cohort, (0, 1)), cohort)
        for res in (run_test(mc, include_path=True), iptw_logrank(cohort, weights, include_path=True)):
            for name in ("statistic", "variance_estimate", "standardized", "p_lower", "p_upper", "p_two_sided"):
                assert type(getattr(res, name)) is float
            for name in ("reject", "degenerate_variance"):
                assert type(getattr(res, name)) is bool
            for name in ("n1", "n0", "unmatched_count"):
                assert type(getattr(res, name)) is int
            assert res.omega_n is None or type(res.omega_n) is bool
            assert all(type(t) is float and type(v) is float for t, v in res.path)


TIE_POOL = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


@st.composite
def multi_cell_instances(draw):
    """Three or more matched cells with times tied across arms, cells whose
    controls all exit before the horizon, an unmatched cell and out-of-region
    subjects with events, and a step weight function."""
    horizon = 5.0
    any_time = st.one_of(st.sampled_from(TIE_POOL), st.floats(0.05, 7.0))
    early_time = st.one_of(st.sampled_from(TIE_POOL[:4]), st.floats(0.05, horizon - 0.01))
    bins = draw(st.integers(4, 6))
    rows = []
    for cell in range(bins):
        x = (cell + 0.5) / bins
        unmatched = cell == bins - 1
        n_t = draw(st.integers(1, 3))
        n_c = 0 if unmatched else draw(st.integers(1, 3))
        control_time = early_time if draw(st.booleans()) else any_time
        rows += [(x, 1, draw(any_time), draw(st.booleans())) for _ in range(n_t)]
        rows += [(x, 0, draw(control_time), draw(st.booleans())) for _ in range(n_c)]
    for _ in range(draw(st.integers(1, 2))):
        rows.append((draw(st.sampled_from([0.0, 1.5])), draw(st.sampled_from([0, 1])), draw(any_time), True))
    subjects = tuple(
        Row(id=i, covariates=(x,), arm=arm, observed_time=t, event=ev)
        for i, (x, arm, t, ev) in enumerate(rows)
    )
    breakpoints = sorted(set(draw(st.lists(st.sampled_from(TIE_POOL), max_size=3))))
    values = draw(st.lists(st.floats(-2.0, 3.0), min_size=len(breakpoints) + 1, max_size=len(breakpoints) + 1))
    mc = match(cohort_of(subjects, horizon=horizon), grid_scheme([0.0], [1.0], bins))
    return mc, WeightFunction(tuple(breakpoints), tuple(values))


@settings(max_examples=150, deadline=None)
@given(instance=multi_cell_instances())
def test_multi_cell_agreement_with_oracle(instance):
    mc, wf = instance
    assert mc.n_cells >= 3
    assert mc.stratum_of == stratum_by_comparison(mc)
    grid = mc.cohort.time_axis[0][mc.cohort.event_steps[0]].tolist()
    path = statistic_path(mc, wf)
    assert [t for t, _ in path] == grid
    final = path[-1][1] if path else 0.0
    assert final == pytest.approx(statistic_by_enumeration(mc, wf), abs=1e-12)
    for t in (0.0, *grid, mc.cohort.horizon, 7.5):
        for arm in (1, 0):
            assert pooled_at_risk(mc, arm, t) == pytest.approx(pooled_by_enumeration(mc, arm, t), abs=1e-12)
        for sid, weight in zip(mc.cohort.ids, weights_by_enumeration(mc, t).tolist()):
            assert cem_weight(mc, sid, t) == pytest.approx(weight, abs=1e-12)


class TestScaleEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(0.01, 50.0, allow_nan=False), seed=st.integers(0, 10**6))
    def test_constant_rescaling(self, c, seed):
        rng = np.random.default_rng(seed)
        mc = random_instance(rng, two_cells=True)
        base = run_test(mc)
        scaled = run_test(mc, WeightFunction.constant(c))
        assert scaled.statistic == pytest.approx(c * base.statistic, rel=1e-12, abs=1e-12)
        assert scaled.variance_estimate == pytest.approx(c * c * base.variance_estimate, rel=1e-12, abs=1e-12)
        assert scaled.standardized == pytest.approx(base.standardized, rel=1e-12, abs=1e-12)

    def test_step_function_rescaling(self):
        rng = np.random.default_rng(31337)
        wf = WeightFunction(breakpoints=(2.0, 6.0), values=(0.5, 2.0, 1.5))
        for _ in range(30):
            mc = random_instance(rng, two_cells=True)
            c = float(rng.uniform(0.1, 10.0))
            base = run_test(mc, wf)
            scaled = run_test(mc, WeightFunction(wf.breakpoints, tuple(c * v for v in wf.values)))
            assert scaled.standardized == pytest.approx(base.standardized, rel=1e-12, abs=1e-12)


messy_time = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0]),
    st.floats(0.0, 12.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from([0, 1]), messy_time, st.booleans(), st.floats(-1.0, 2.0, allow_nan=False)),
        min_size=1,
        max_size=12,
    )
)
def test_total_on_arbitrary_inputs(rows):
    """No division failures, NaNs, or infinities on messy cohorts."""
    subjects = tuple(
        Row(id=i, covariates=(x,), arm=arm, observed_time=t, event=ev)
        for i, (arm, t, ev, x) in enumerate(rows)
    )
    mc = match(cohort_of(subjects, horizon=2.5), grid_scheme([0.0], [1.0], 2))
    res = run_test(mc)
    for value in (res.statistic, res.variance_estimate, res.standardized):
        assert math.isfinite(value)
    for p in (res.p_lower, res.p_upper, res.p_two_sided):
        assert 0.0 <= p <= 1.0
    for t in (0.0, 0.5, 1.0, 2.5):
        assert math.isfinite(kernel(mc, None, t))
        assert math.isfinite(pooled_at_risk(mc, 0, t))
        for s in subjects:
            assert math.isfinite(cem_weight(mc, s.id, t))
