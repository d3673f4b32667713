import math

import numpy as np
import pytest

from cemlogrank import (
    Cohort,
    HazardModel,
    Scenario,
    SubjectRecord,
    WeightFunction,
    generate,
    grid_scheme,
    match,
    statistic_path,
)
from cemlogrank.oracle import (
    classical_logrank,
    compensator,
    martingale_residual_mean,
    nelson_aalen_difference,
    statistic_by_enumeration,
    statistic_decomposition,
    stratum_by_comparison,
    weights_by_enumeration,
)
from cemlogrank.survival import build_event_grid


def subj(id, arm, time, event=True, x=(0.0,)):
    return SubjectRecord(id=id, covariates=tuple(x), arm=arm, observed_time=time, event=event)


class TestClassicalLogrank:
    def test_hand_enumerated_fixture(self):
        # treated: events at 1 and 3, censored at 5; control: events at 2 and
        # 6, censored at 4.  Risk-set walk gives numerator 0.6, variance 0.74.
        cohort = Cohort(
            subjects=(
                subj("a", 1, 1.0), subj("b", 1, 3.0), subj("c", 1, 5.0, event=False),
                subj("d", 0, 2.0), subj("e", 0, 4.0, event=False), subj("f", 0, 6.0),
            ),
            horizon=10.0,
        )
        res = classical_logrank(cohort)
        assert res.numerator == pytest.approx(0.6, abs=1e-15)
        assert res.variance == pytest.approx(0.74, abs=1e-15)
        assert res.standardized == pytest.approx(0.6 / math.sqrt(0.74), abs=1e-15)

    def test_duplicated_arms_give_zero_numerator(self):
        rng = np.random.default_rng(6)
        base = [(float(rng.uniform(0.5, 9.0)), bool(rng.random() < 0.7)) for _ in range(8)]
        subjects = [subj(f"t{i}", 1, t, e) for i, (t, e) in enumerate(base)]
        subjects += [subj(f"c{i}", 0, t, e) for i, (t, e) in enumerate(base)]
        res = classical_logrank(Cohort(subjects=tuple(subjects), horizon=10.0))
        assert res.numerator == pytest.approx(0.0, abs=1e-15)

    def test_sign_follows_event_bearing_arm(self):
        subjects = [subj(f"t{i}", 1, 1.0 + i, True) for i in range(4)]
        subjects += [subj(f"c{i}", 0, 20.0 + i, False) for i in range(4)]
        res = classical_logrank(Cohort(subjects=tuple(subjects), horizon=30.0))
        assert res.numerator > 0

    def test_needs_both_arms(self):
        with pytest.raises(ValueError):
            classical_logrank(Cohort(subjects=(subj("a", 1, 1.0),), horizon=5.0))


def one(subject: SubjectRecord) -> Cohort:
    return Cohort(subjects=(subject,), horizon=100.0)


class TestCompensator:
    HZ = HazardModel(log_baseline=-2.0, arm_effect=0.0, covariate_effect=0.25)

    def test_zero_at_origin(self):
        assert compensator(one(subj("a", 0, 3.0)), self.HZ, 0.0).tolist() == [0.0]

    def test_flat_after_exit(self):
        cohort = one(subj("a", 0, 3.0))
        at_exit = compensator(cohort, self.HZ, 3.0)[0]
        assert compensator(cohort, self.HZ, 9.0)[0] == at_exit
        assert compensator(cohort, self.HZ, 2.0)[0] < at_exit

    def test_unit_mass_at_inverse_rate(self):
        cohort = one(subj("a", 0, math.exp(2.0), x=(0.0, 0.0, 0.0, 0.0, 0.0)))
        assert compensator(cohort, self.HZ, 10.0 * math.exp(2.0))[0] == pytest.approx(1.0, rel=1e-14)

    def test_infinite_rate_accrues_nothing_over_an_empty_interval(self):
        # a covariate term beyond the float range gives an infinite rate
        hazard = HazardModel(covariate_effect=1e308)
        cohort = Cohort(subjects=(subj("a", 0, 0.0, x=(1.0,)), subj("b", 0, 2.0, x=(1.0,))), horizon=5.0)
        assert compensator(cohort, hazard, 5.0).tolist() == [0.0, math.inf]
        assert compensator(cohort, hazard, 0.0).tolist() == [0.0, 0.0]
        assert compensator(cohort, hazard, 1.0).tolist() == [0.0, math.inf]

    def test_path_nondecreasing(self):
        cohort = Cohort(
            subjects=(subj("a", 0, 4.0), subj("b", 1, 1.0), subj("c", 1, 5.0), subj("d", 0, 7.0)), horizon=10.0
        )
        path = np.array([compensator(cohort, self.HZ, t) for t in build_event_grid(cohort).tolist()])
        assert path.shape == (4, 4)
        assert (np.diff(path, axis=0) >= 0.0).all()
        assert (np.diff(path[:, 0]) > 0.0).any()

    @pytest.mark.parametrize("log_baseline", [-2.0, -math.inf])
    def test_columns_are_time_at_risk_times_rate(self, log_baseline):
        scenario = Scenario(n=400, seed=11, baseline_log_hazard=log_baseline)
        cohort, hazard = generate(scenario), scenario.hazard_model()
        rate = hazard.rate(cohort.covariate_matrix, cohort.arms)
        for t in (0.0, 0.5, 3.0, cohort.horizon, 2.0 * cohort.horizon):
            values = compensator(cohort, hazard, t)
            assert values.shape == (len(cohort),)
            assert np.array_equal(values, np.minimum(t, cohort.times) * rate)


class TestMartingaleResiduals:
    def test_mean_within_three_stderr(self):
        sc = Scenario(n=1000, assignment_model="model1", hypothesis="null", seed=17)
        out = martingale_residual_mean(sc, replications=100)
        assert out.draws == 100_000
        assert abs(out.mean) <= 3.0 * out.stderr

    def test_variance_matches_compensator_mean(self):
        # second moment of the residual estimates the expected compensator
        sc = Scenario(n=1000, assignment_model="model1", hypothesis="null", seed=23)
        out = martingale_residual_mean(sc, replications=100)
        spread = 3.0 * out.compensator_mean / math.sqrt(out.draws) * 3.0
        assert abs(out.residual_second_moment - out.compensator_mean) <= max(spread, 0.01)

    def test_zero_hazard_degenerates(self):
        sc = Scenario(n=100, hypothesis="null", seed=2, baseline_log_hazard=-math.inf)
        out = martingale_residual_mean(sc, replications=100)
        assert out.mean == 0.0 and out.stderr == 0.0

    def test_infinite_rates_give_defined_residuals(self):
        # subjects with an infinite rate are drawn at time 0, those with a
        # zero rate are censored: no hazard accrues to either, and every
        # residual is its event indicator
        sc = Scenario(n=10, seed=1, covariate_log_hazard=1e308)
        out = martingale_residual_mean(sc, replications=100)
        assert out.compensator_mean == 0.0
        assert 0.0 < out.mean == out.residual_second_moment < 1.0
        assert math.isfinite(out.stderr)

    def test_requires_enough_replications(self):
        with pytest.raises(ValueError):
            martingale_residual_mean(Scenario(n=10, seed=1), replications=10)


class TestNelsonAalenDifference:
    def test_single_arm_events(self):
        cohort = Cohort(
            subjects=(subj("t", 1, 2.0), subj("c", 0, 9.0, event=False)), horizon=10.0
        )
        assert nelson_aalen_difference(cohort) == pytest.approx(1.0, abs=1e-15)

    def test_matches_matched_bracket_in_single_cell(self):
        """With one stratum and both arms held at risk, the stratum-weighted
        per-arm increments collapse to the plain two-sample hazard increments."""
        from cemlogrank import cem_weight, pooled_at_risk
        from cemlogrank.util import pinv

        rng = np.random.default_rng(404)
        scheme = grid_scheme([0.0], [1.0], 1)
        for _ in range(100):
            n = int(rng.integers(6, 13))
            subjects = [
                subj(i, int(rng.integers(2)), float(rng.uniform(0.2, 8.0)), bool(rng.random() < 0.7), x=(0.5,))
                for i in range(n)
            ]
            # one guard per arm keeps both risk sets alive through the horizon
            subjects.append(subj("keep1", 1, 11.0, False, x=(0.5,)))
            subjects.append(subj("keep0", 0, 11.0, False, x=(0.5,)))
            cohort = Cohort(subjects=tuple(subjects), horizon=10.0)
            mc = match(cohort, scheme)
            step = cohort.event_steps[1]
            bracket = 0.0
            for k, t in enumerate(build_event_grid(cohort).tolist()):
                events = [(cohort.ids[i], cohort.arms[i]) for i in np.flatnonzero(step == k).tolist()]
                dn1 = sum(cem_weight(mc, sid, t) for sid, arm in events if arm == 1)
                dn0 = sum(cem_weight(mc, sid, t) for sid, arm in events if arm == 0)
                bracket += pinv(pooled_at_risk(mc, 1, t)) * dn1 - pinv(pooled_at_risk(mc, 0, t)) * dn0
            assert bracket == pytest.approx(nelson_aalen_difference(cohort), abs=1e-12)


class TestDecomposition:
    def test_parts_reassemble_statistic_with_known_hazard(self):
        scheme = grid_scheme([-5.0] * 3, [5.0] * 3, 6, binary_dims=2)
        for seed in (1, 2, 3):
            sc = Scenario(n=400, assignment_model="model1", hypothesis="null", seed=seed)
            cohort = generate(sc)
            mc = match(cohort, scheme)
            decomp = statistic_decomposition(mc, sc.hazard_model())
            path = statistic_path(mc)
            stat = path[-1][1] if path else 0.0
            assert decomp.total == pytest.approx(stat, abs=1e-10)

    def test_under_alternative_hazard(self):
        scheme = grid_scheme([-5.0] * 3, [5.0] * 3, 5, binary_dims=2)
        sc = Scenario(n=300, assignment_model="model2", hypothesis="alternative", seed=9)
        cohort = generate(sc)
        mc = match(cohort, scheme)
        decomp = statistic_decomposition(mc, sc.hazard_model())
        path = statistic_path(mc)
        assert decomp.total == pytest.approx(path[-1][1], abs=1e-10)

    def test_with_step_weight_function(self):
        scheme = grid_scheme([-5.0] * 3, [5.0] * 3, 5, binary_dims=2)
        wf = WeightFunction(breakpoints=(4.0,), values=(1.0, 0.5))
        sc = Scenario(n=300, assignment_model="model1", hypothesis="null", seed=31)
        cohort = generate(sc)
        mc = match(cohort, scheme)
        decomp = statistic_decomposition(mc, sc.hazard_model(), wf)
        path = statistic_path(mc, wf)
        assert decomp.total == pytest.approx(path[-1][1], abs=1e-10)


def test_enumeration_oracle_matches_fast_path_on_simulated_data():
    scheme = grid_scheme([-5.0] * 3, [5.0] * 3, 4, binary_dims=2)
    sc = Scenario(n=150, assignment_model="model1", hypothesis="null", seed=55)
    cohort = generate(sc)
    mc = match(cohort, scheme)
    assert mc.stratum_of == stratum_by_comparison(mc)
    path = statistic_path(mc)
    stat = path[-1][1] if path else 0.0
    assert stat == pytest.approx(statistic_by_enumeration(mc), abs=1e-12)


class TestMatchedFixture:
    """Eight subjects in two cells of x in (0, 1] split at 0.5; weight 1 for
    a treated subject and r1 / r0 for a control, r1 and r0 counting the
    treated and the controls of its cell at risk.

      cell A (x = 0.25): treated a1 (event 2), a2 (event 4); control a3 (event 3)
      cell B (x = 0.75): treated b1 (event 3), b2 (censored 7);
                         controls b3 (event 1), b4 (event 5), b5 (censored 6)

    At t = 0, A gives Y1 2 and Y0 1 * 2/1 and B gives Y1 2 and Y0 3 * 2/3, so
    Y1(0) = Y0(0) = 4 and the front factor is f = sqrt(8 / 16) = sqrt(1/2).
    Each event time adds K * (dN1 / Y1 - dN0 / Y0), K = f Y1 Y0 / (Y1 + Y0),
    dN0 the weight at t of the control with the event:

      t  A: r1 r0  B: r1 r0  Y1  Y0  K      dN1  dN0  term
      1      2  1      2  3   4   4  2f     0    2/3  2f (0 - 1/6)      = -f/3
      2      2  1      2  2   4   4  2f     1    0    2f (1/4)          =  f/2
      3      1  1      2  2   3   3  3f/2   1    1    3f/2 (1/3 - 1/3)  =  0
      4      1  0      1  2   2   1  2f/3   1    0    2f/3 (1/2)        =  f/3
      5      0  0      1  2   1   1  f/2    0    1/2  f/2 (0 - 1/2)     = -f/4

    t = 3 is a tied event time, and at t = 4 cell A has run out of controls:
    a3's weight there is pinv(0) * 1 = 0.  The statistic is f/4 = sqrt(1/2)/4.
    """

    ids = ("a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5")

    def matched(self):
        cohort = Cohort.from_columns(
            self.ids,
            [[0.25]] * 3 + [[0.75]] * 5,
            [1, 1, 0, 1, 1, 0, 0, 0],
            [2.0, 4.0, 3.0, 3.0, 7.0, 1.0, 5.0, 6.0],
            [True, True, True, True, False, True, True, False],
            10.0,
        )
        return match(cohort, grid_scheme([0.0], [1.0], 2))

    def test_statistic_by_hand(self):
        mc = self.matched()
        expected = math.sqrt(0.5) / 4
        assert statistic_by_enumeration(mc) == pytest.approx(expected, abs=1e-15)
        assert statistic_path(mc)[-1][1] == pytest.approx(expected, abs=1e-15)

    def test_weights_by_hand(self):
        mc = self.matched()
        assert weights_by_enumeration(mc, 1.0).tolist() == pytest.approx([1, 1, 2, 1, 1, 2 / 3, 2 / 3, 2 / 3])
        assert weights_by_enumeration(mc, 4.0).tolist() == [1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.5]
