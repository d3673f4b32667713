import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from cemlogrank import (
    Cohort,
    ConfigError,
    IptwWeights,
    RankDeficiencyError,
    SeparationError,
    WeightFunction,
    Scenario,
    fit_logistic,
    generate,
    grid_scheme,
    iptw_logrank,
    iptw_weights,
    match,
    run_test,
)
from cemlogrank import iptw
from cemlogrank.iptw import predict_propensity
from cemlogrank.cli import main
from cemlogrank.dataio import write_cohort_csv
from cemlogrank.oracle import classical_logrank

from cohorts import Row, cohort_of


def subj(id, arm, time, event=True, x=(0.0, 0.0)):
    return Row(id=id, covariates=tuple(x), arm=arm, observed_time=time, event=event)


def bernoulli_cohort(rng, n, alpha, d=2):
    """Arms drawn from a known logistic model on the first two covariates."""
    xs = rng.standard_normal((n, d))
    eta = alpha[0] + xs[:, 0] * alpha[1] + xs[:, 1] * alpha[2]
    z = (rng.random(n) < expit(eta)).astype(int)
    subjects = tuple(
        subj(i, int(z[i]), float(rng.uniform(0.5, 9.0)), bool(rng.random() < 0.5), x=tuple(xs[i]))
        for i in range(n)
    )
    return cohort_of(subjects, horizon=10.0)


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        subjects = [subj(i, 1 if i < 30 else 0, 1.0, x=(0.0,)) for i in range(100)]
        model = fit_logistic(cohort_of(subjects, horizon=10.0), feature_selector=())
        assert model.coefficients[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-10)

    def test_recovers_known_coefficients_within_three_se(self):
        rng = np.random.default_rng(12345)
        truth = (-1.0, 0.8, -0.5)
        cohort = bernoulli_cohort(rng, 100_000, truth)
        model = fit_logistic(cohort, feature_selector=(0, 1))
        # observed-information standard errors at the fit
        xs = cohort.covariate_matrix
        X = np.column_stack([np.ones(len(xs)), xs[:, 0], xs[:, 1]])
        p = predict_propensity(model, cohort)
        cov = np.linalg.inv(X.T @ (X * (p * (1 - p))[:, None]))
        se = np.sqrt(np.diag(cov))
        for est, tru, s in zip(model.coefficients, truth, se):
            assert abs(est - tru) <= 3.0 * s

    def test_single_arm_raises_separation(self):
        subjects = [subj(i, 1, 1.0, x=(0.0,)) for i in range(10)]
        with pytest.raises(SeparationError):
            fit_logistic(cohort_of(subjects, horizon=10.0), feature_selector=())

    def test_separated_covariate_raises(self):
        # covariate perfectly predicts the arm
        subjects = [subj(i, 1 if i < 10 else 0, 1.0, x=(1.0 if i < 10 else -1.0,)) for i in range(20)]
        with pytest.raises(SeparationError):
            fit_logistic(cohort_of(subjects, horizon=10.0), feature_selector=(0,))

    @pytest.mark.parametrize("scale", [1e-100, 1e-5, 1e50, 1e100])
    def test_separated_covariate_raises_in_any_units(self, scale):
        # a score or a step that is small only because of the units is not
        # convergence: the Newton decrement does not move with them
        subjects = [
            subj(i, 1 if i < 10 else 0, 1.0, x=(scale if i < 10 else -scale,)) for i in range(20)
        ]
        with pytest.raises(SeparationError):
            fit_logistic(cohort_of(subjects, horizon=10.0), feature_selector=(0,))

    def test_score_small_at_solution(self):
        rng = np.random.default_rng(99)
        for trial in range(5):
            cohort = bernoulli_cohort(rng, 500, (-0.5, 0.3, 0.9))
            model = fit_logistic(cohort, feature_selector=(0, 1))
            xs = cohort.covariate_matrix
            X = np.column_stack([np.ones(len(xs)), xs[:, 0], xs[:, 1]])
            z = cohort.arms.astype(float)
            score = X.T @ (z - predict_propensity(model, cohort))
            assert np.max(np.abs(score)) <= 1e-8

    def test_iteration_budget_exhausted_raises_separation(self, monkeypatch):
        cohort = bernoulli_cohort(np.random.default_rng(7), 500, (-0.5, 0.3, 0.9))
        monkeypatch.setattr(iptw, "MAX_ITER", 1)
        with pytest.raises(SeparationError, match="did not converge in 1 Newton iterations"):
            fit_logistic(cohort, feature_selector=(0, 1))

    def test_feature_index_out_of_range(self):
        cohort = cohort_of((subj(0, 1, 1.0), subj(1, 0, 2.0)), horizon=10.0)
        with pytest.raises(ValueError):
            fit_logistic(cohort, feature_selector=(5,))


def iptw_statistic(cohort):
    return iptw_logrank(cohort, iptw_weights(fit_logistic(cohort), cohort)).standardized


@pytest.fixture(scope="module")
def cohort_5k():
    cohort = generate(Scenario(n=5000, seed=1))
    return cohort, iptw_statistic(cohort)


def rescaled(cohort, *factors):
    """The cohort with covariate j multiplied by ``factors[j]``."""
    xs = cohort.covariate_matrix.copy()
    xs[:, : len(factors)] *= factors
    return Cohort.from_columns(cohort.ids, xs, cohort.arms, cohort.times, cohort.events, cohort.horizon)


@pytest.mark.parametrize("k", [-300, -150, -100, -50, -25, -5, 25, 100, 150, 300])
def test_covariate_units_do_not_change_the_iptw_statistic(cohort_5k, k):
    # separation is a property of the data: rescaling x1 by 10^k rescales its
    # coefficient by 10^-k and leaves the fitted propensities as they were
    cohort, expected = cohort_5k
    assert iptw_statistic(rescaled(cohort, 10.0**k)) == pytest.approx(expected, rel=1e-12)


def test_covariates_in_widely_different_units_at_once(cohort_5k):
    # a score test would stall on the large column and a step test on the
    # small one; the decrement in the standardized basis sees neither
    cohort, expected = cohort_5k
    assert iptw_statistic(rescaled(cohort, 1e-5, 1e5)) == pytest.approx(expected, rel=1e-12)


def test_covariate_offset_is_not_separation(cohort_5k):
    # the centred fit does not see where a covariate's origin lies; x1 + 1e4
    # keeps x1's deviations to about 1e-12
    cohort, expected = cohort_5k
    xs = cohort.covariate_matrix.copy()
    xs[:, 0] += 1e4
    shifted = Cohort.from_columns(cohort.ids, xs, cohort.arms, cohort.times, cohort.events, cohort.horizon)
    assert iptw_statistic(shifted) == pytest.approx(expected, rel=1e-12)


def test_underflowing_hessian_entry_is_not_separation(cohort_5k):
    # sum(x1**2) underflows to 0 at 1e-175; the standardized column does not
    cohort, expected = cohort_5k
    scaled = rescaled(cohort, 1e-175)
    assert np.sum(scaled.covariate_matrix[:, 0] ** 2) == 0.0
    assert iptw_statistic(scaled) == pytest.approx(expected, rel=1e-12)


def test_constant_feature_is_rank_deficiency(tmp_path, capsys):
    subjects = [subj(i, i % 2, 1.0 + i, x=(0.5, float(i))) for i in range(20)]
    cohort = cohort_of(subjects, horizon=30.0)
    with pytest.raises(RankDeficiencyError, match="feature column x1 is constant"):
        fit_logistic(cohort, feature_selector=(1, 0))
    data = tmp_path / "constant.csv"
    write_cohort_csv(cohort, data)
    capsys.readouterr()
    assert main(["test", str(data), "--method", "iptw"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:") and "x1 is constant" in err[0]


class TestIptwWeights:
    def _model_with_probs(self, cohort, intercept):
        # intercept-only model so every fitted propensity is expit(intercept)
        from cemlogrank.iptw import LogisticModel

        return LogisticModel(
            feature_selector=(),
            coefficients=(intercept,),
            iterations=1,
            log_likelihood=0.0,
        )

    def test_quarter_propensity(self):
        cohort = cohort_of((subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        model = self._model_with_probs(cohort, math.log(0.25 / 0.75))
        t, c = iptw_weights(model, cohort).values
        assert t == pytest.approx(4.0, rel=1e-12)
        assert c == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_half_propensity_symmetric(self):
        cohort = cohort_of((subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        model = self._model_with_probs(cohort, 0.0)
        t, c = iptw_weights(model, cohort).values
        assert t == pytest.approx(2.0) and c == pytest.approx(2.0)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(3)
        cohort = bernoulli_cohort(rng, 400, (-1.5, 1.0, 0.5))
        model = fit_logistic(cohort, feature_selector=(0, 1))
        values = iptw_weights(model, cohort).values
        assert min(values) >= 1.0

    @pytest.mark.parametrize(
        "values",
        [[None, 1.0], [math.inf, 1.0], [math.nan, 1.0], [-1.0, 1.0], [10**400, 1.0], ["x", 1.0],
         [[1.0], [1.0, 2.0]], {}, [1.0], 2.0],
        ids=["none", "inf", "nan", "negative", "huge-int", "text", "ragged", "object", "short", "scalar"],
    )
    def test_bad_values_are_rejected(self, values):
        # a None or an inf weight was stored, and the test then read nan as
        # a statistic that never rejects
        with pytest.raises(ConfigError, match="^weights"):
            IptwWeights(ids=("t", "c"), values=values)

    @pytest.mark.parametrize("ids", [5, None, 2.5])
    def test_ids_must_be_a_sequence(self, ids):
        with pytest.raises(ConfigError, match=f"^weight ids must be a sequence, got {type(ids).__name__}$"):
            IptwWeights(ids=ids, values=[1.0])

    def test_zero_weight_is_accepted(self):
        cohort = cohort_of((subj("t", 1, 1.0), subj("c", 0, 2.0), subj("u", 0, 3.0)), horizon=10.0)
        res = iptw_logrank(cohort, IptwWeights(ids=cohort.ids, values=[1.0, 0.0, 1.0]))
        assert math.isfinite(res.standardized)

    def test_horvitz_thompson_identity(self):
        rng = np.random.default_rng(2025)
        cohort = bernoulli_cohort(rng, 100_000, (-1.2, 0.6, -0.4))
        model = fit_logistic(cohort, feature_selector=(0, 1))
        p = predict_propensity(model, cohort)
        z = cohort.arms.astype(float)
        ht = float(np.sum(z / p))
        assert abs(ht - len(cohort)) <= 0.05 * len(cohort)


def unit_weights(cohort):
    return IptwWeights(ids=cohort.ids, values=(1.0,) * len(cohort))


class TestIptwLogrank:
    def test_unit_weights_reduce_to_classical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(6, 13))
            subjects = tuple(
                subj(i, int(i < n // 2) if i < n - 1 else 1 - int((n - 1) < n // 2),
                     float(rng.uniform(0.5, 9.0)), bool(rng.random() < 0.7))
                for i in range(n)
            )
            # ensure both arms present
            arms = {s.arm for s in subjects}
            if arms != {0, 1}:
                continue
            cohort = cohort_of(subjects, horizon=10.0)
            res = iptw_logrank(cohort, unit_weights(cohort))
            ref = classical_logrank(cohort)
            assert res.standardized == pytest.approx(ref.standardized, abs=1e-12)
            n1 = sum(1 for s in subjects if s.arm == 1)
            n0 = len(subjects) - n1
            front = math.sqrt(len(subjects) / (n1 * n0))
            assert res.statistic == pytest.approx(front * ref.numerator, abs=1e-12)

    def test_six_subject_fixture(self):
        subjects = (
            subj("a", 1, 1.0), subj("b", 1, 3.0), subj("c", 1, 5.0, event=False),
            subj("d", 0, 2.0), subj("e", 0, 4.0, event=False), subj("f", 0, 6.0),
        )
        cohort = cohort_of(subjects, horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        # hand enumeration: numerator 0.6, variance 0.74
        front = math.sqrt(6.0 / 9.0)
        assert res.statistic == pytest.approx(front * 0.6, abs=1e-12)
        assert res.variance_estimate == pytest.approx(front * front * 0.74, abs=1e-12)
        assert res.standardized == pytest.approx(0.6 / math.sqrt(0.74), abs=1e-12)

    def test_no_events(self):
        cohort = cohort_of((subj("t", 1, 1.0, event=False), subj("c", 0, 2.0, event=False)), horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        assert res.statistic == 0.0 and res.variance_estimate == 0.0
        assert res.degenerate_variance

    def test_last_survivor_term_dropped(self):
        # single subject at risk at the final event: variance term vanishes
        cohort = cohort_of((subj("t", 1, 5.0), subj("c", 0, 1.0)), horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        assert math.isfinite(res.variance_estimate) and math.isfinite(res.standardized)
        # only the first event (2 at risk) contributes to the variance
        front_sq = 2.0 / 1.0
        expected_var = front_sq * (0.5 * 0.5 * 1.0 + 0.5 * 0.5 * 1.0) * (1.0 / (2.0 * 1.0)) * 1.0
        assert res.variance_estimate == pytest.approx(expected_var, abs=1e-12)

    def test_missing_weights_rejected(self):
        cohort = cohort_of((subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        with pytest.raises(ValueError):
            iptw_logrank(cohort, IptwWeights(ids=("t",), values=(1.0,)))

    def test_decision_inputs_are_checked_before_the_weights(self):
        # weights that would fail their own check are not looked at
        cohort = cohort_of((subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        for kwargs in ({"alpha": 2.0}, {"direction": "sideways"}):
            with pytest.raises(ConfigError):
                iptw_logrank(cohort, IptwWeights(ids=("t",), values=(1.0,)), **kwargs)

    def test_metadata(self):
        cohort = cohort_of((subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        assert res.method == "iptw"
        assert res.omega_n is None
        assert (res.n1, res.n0, res.unmatched_count) == (1, 1, 0)

    def test_weight_function_scale_invariance(self):
        rng = np.random.default_rng(11)
        cohort = bernoulli_cohort(rng, 60, (-0.5, 0.4, -0.3))
        model = fit_logistic(cohort, feature_selector=(0, 1))
        w = iptw_weights(model, cohort)
        base = iptw_logrank(cohort, w, WeightFunction.constant(1.0))
        scaled = iptw_logrank(cohort, w, WeightFunction.constant(2.5))
        assert scaled.statistic == pytest.approx(2.5 * base.statistic, rel=1e-12)
        assert scaled.variance_estimate == pytest.approx(2.5**2 * base.variance_estimate, rel=1e-12)
        assert scaled.standardized == pytest.approx(base.standardized, rel=1e-12)


@st.composite
def tied_cohorts(draw):
    """Integer times from 0 to 4 (so most subjects share their time with
    others, some sit at time 0 or exactly at the horizon 3 and some beyond
    it), both arms present."""
    n = draw(st.integers(4, 40))
    arms = [1, 0] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2, max_size=n - 2))
    times = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    subjects = tuple(subj(i, arms[i], float(times[i]), events[i]) for i in range(n))
    return cohort_of(subjects, horizon=3.0)


@settings(max_examples=200, deadline=None)
@given(cohort=tied_cohorts())
def test_unit_weights_reduce_to_classical_on_tied_times(cohort):
    res = iptw_logrank(cohort, unit_weights(cohort))
    ref = classical_logrank(cohort)
    n1 = cohort.arm_count(1)
    front_sq = len(cohort) / (n1 * (len(cohort) - n1))
    assert res.statistic == pytest.approx(math.sqrt(front_sq) * ref.numerator, abs=1e-12)
    assert res.variance_estimate == pytest.approx(front_sq * ref.variance, abs=1e-12)
    assert res.standardized == pytest.approx(ref.standardized, abs=1e-12)


def test_iptw_reuses_the_time_order_of_the_matched_test(monkeypatch):
    cohort = generate(Scenario(n=2000, seed=3, hypothesis="alternative"))
    run_test(match(cohort, grid_scheme([-5.0] * 3, [5.0] * 3, 9, 2)))
    weights = iptw_weights(fit_logistic(cohort), cohort)
    fresh = generate(Scenario(n=2000, seed=3, hypothesis="alternative"))
    expected = iptw_logrank(fresh, iptw_weights(fit_logistic(fresh), fresh), include_path=True)

    def no_sorting(*args, **kwargs):
        raise AssertionError("observed times sorted a second time")

    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, no_sorting)
    assert iptw_logrank(cohort, weights, include_path=True) == expected
