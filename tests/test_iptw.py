import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from cemlogrank import (
    Cohort,
    IptwWeights,
    SeparationError,
    SubjectRecord,
    WeightFunction,
    Scenario,
    fit_logistic,
    generate,
    grid_scheme,
    iptw_logrank,
    iptw_weights,
    match,
    predict_propensity,
    run_test,
)
from cemlogrank.oracle import classical_logrank


def subj(id, arm, time, event=True, x=(0.0, 0.0)):
    return SubjectRecord(id=id, covariates=tuple(x), arm=arm, observed_time=time, event=event)


def bernoulli_cohort(rng, n, alpha, d=2):
    """Arms drawn from a known logistic model on the first two covariates."""
    xs = rng.standard_normal((n, d))
    eta = alpha[0] + xs[:, 0] * alpha[1] + xs[:, 1] * alpha[2]
    z = (rng.random(n) < expit(eta)).astype(int)
    subjects = tuple(
        subj(i, int(z[i]), float(rng.uniform(0.5, 9.0)), bool(rng.random() < 0.5), x=tuple(xs[i]))
        for i in range(n)
    )
    return Cohort(subjects=subjects, horizon=10.0)


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        subjects = [subj(i, 1 if i < 30 else 0, 1.0, x=(0.0,)) for i in range(100)]
        model = fit_logistic(Cohort(subjects=tuple(subjects), horizon=10.0), feature_selector=())
        assert model.converged
        assert model.coefficients[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-10)

    def test_recovers_known_coefficients_within_three_se(self):
        rng = np.random.default_rng(12345)
        truth = (-1.0, 0.8, -0.5)
        cohort = bernoulli_cohort(rng, 100_000, truth)
        model = fit_logistic(cohort, feature_selector=(0, 1))
        assert model.converged
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
            fit_logistic(Cohort(subjects=tuple(subjects), horizon=10.0), feature_selector=())

    def test_separated_covariate_raises(self):
        # covariate perfectly predicts the arm
        subjects = [subj(i, 1 if i < 10 else 0, 1.0, x=(1.0 if i < 10 else -1.0,)) for i in range(20)]
        with pytest.raises(SeparationError):
            fit_logistic(Cohort(subjects=tuple(subjects), horizon=10.0), feature_selector=(0,))

    def test_score_small_at_solution(self):
        rng = np.random.default_rng(99)
        for trial in range(5):
            cohort = bernoulli_cohort(rng, 500, (-0.5, 0.3, 0.9))
            model = fit_logistic(cohort, feature_selector=(0, 1))
            assert model.converged
            xs = cohort.covariate_matrix
            X = np.column_stack([np.ones(len(xs)), xs[:, 0], xs[:, 1]])
            z = np.array([s.arm for s in cohort.subjects], dtype=float)
            score = X.T @ (z - predict_propensity(model, cohort))
            assert np.max(np.abs(score)) <= 1e-8

    def test_feature_index_out_of_range(self):
        cohort = Cohort(subjects=(subj(0, 1, 1.0), subj(1, 0, 2.0)), horizon=10.0)
        with pytest.raises(ValueError):
            fit_logistic(cohort, feature_selector=(5,))


class TestIptwWeights:
    def _model_with_probs(self, cohort, intercept):
        # intercept-only model so every fitted propensity is expit(intercept)
        from cemlogrank.iptw import LogisticModel

        return LogisticModel(
            feature_selector=(),
            coefficients=(intercept,),
            converged=True,
            iterations=1,
            log_likelihood=0.0,
        )

    def test_quarter_propensity(self):
        cohort = Cohort(subjects=(subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        model = self._model_with_probs(cohort, math.log(0.25 / 0.75))
        w = iptw_weights(model, cohort).by_id()
        assert w["t"] == pytest.approx(4.0, rel=1e-12)
        assert w["c"] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_half_propensity_symmetric(self):
        cohort = Cohort(subjects=(subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        model = self._model_with_probs(cohort, 0.0)
        w = iptw_weights(model, cohort).by_id()
        assert w["t"] == pytest.approx(2.0) and w["c"] == pytest.approx(2.0)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(3)
        cohort = bernoulli_cohort(rng, 400, (-1.5, 1.0, 0.5))
        model = fit_logistic(cohort, feature_selector=(0, 1))
        values = iptw_weights(model, cohort).values
        assert min(values) >= 1.0

    def test_unconverged_model_rejected(self):
        from cemlogrank.iptw import LogisticModel

        cohort = Cohort(subjects=(subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        model = LogisticModel((), (0.0,), converged=False, iterations=100, log_likelihood=0.0)
        with pytest.raises(ValueError):
            iptw_weights(model, cohort)

    def test_horvitz_thompson_identity(self):
        rng = np.random.default_rng(2025)
        cohort = bernoulli_cohort(rng, 100_000, (-1.2, 0.6, -0.4))
        model = fit_logistic(cohort, feature_selector=(0, 1))
        p = predict_propensity(model, cohort)
        z = np.array([s.arm for s in cohort.subjects], dtype=float)
        ht = float(np.sum(z / p))
        assert abs(ht - len(cohort.subjects)) <= 0.05 * len(cohort.subjects)


def unit_weights(cohort):
    return IptwWeights(ids=tuple(s.id for s in cohort.subjects), values=tuple(1.0 for _ in cohort.subjects))


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
            cohort = Cohort(subjects=subjects, horizon=10.0)
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
        cohort = Cohort(subjects=subjects, horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        # hand enumeration: numerator 0.6, variance 0.74
        front = math.sqrt(6.0 / 9.0)
        assert res.statistic == pytest.approx(front * 0.6, abs=1e-12)
        assert res.variance_estimate == pytest.approx(front * front * 0.74, abs=1e-12)
        assert res.standardized == pytest.approx(0.6 / math.sqrt(0.74), abs=1e-12)

    def test_no_events(self):
        cohort = Cohort(subjects=(subj("t", 1, 1.0, event=False), subj("c", 0, 2.0, event=False)), horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        assert res.statistic == 0.0 and res.variance_estimate == 0.0
        assert res.degenerate_variance

    def test_last_survivor_term_dropped(self):
        # single subject at risk at the final event: variance term vanishes
        cohort = Cohort(subjects=(subj("t", 1, 5.0), subj("c", 0, 1.0)), horizon=10.0)
        res = iptw_logrank(cohort, unit_weights(cohort))
        assert math.isfinite(res.variance_estimate) and math.isfinite(res.standardized)
        # only the first event (2 at risk) contributes to the variance
        front_sq = 2.0 / 1.0
        expected_var = front_sq * (0.5 * 0.5 * 1.0 + 0.5 * 0.5 * 1.0) * (1.0 / (2.0 * 1.0)) * 1.0
        assert res.variance_estimate == pytest.approx(expected_var, abs=1e-12)

    def test_missing_weights_rejected(self):
        cohort = Cohort(subjects=(subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
        with pytest.raises(ValueError):
            iptw_logrank(cohort, IptwWeights(ids=("t",), values=(1.0,)))

    def test_metadata(self):
        cohort = Cohort(subjects=(subj("t", 1, 1.0), subj("c", 0, 2.0)), horizon=10.0)
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
    return Cohort(subjects=subjects, horizon=3.0)


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
