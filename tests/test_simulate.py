import math

import numpy as np
import pytest
from scipy.special import expit

from cemlogrank import Cohort, ConfigError, HazardModel, Scenario, fit_logistic, generate
from cemlogrank.simulate import assignment_probability, draw_covariates, draw_survival, replicate_rng


class TestCovariates:
    def test_moments_at_scale(self):
        rng = replicate_rng(1, 0)
        xs = draw_covariates(rng, 1_000_000)
        for j in range(3):
            assert abs(float(xs[:, j].mean())) <= 0.01
            assert abs(float(xs[:, j].std() - 1.0)) <= 0.01
        for j in (3, 4):
            col = xs[:, j]
            assert set(np.unique(col)) <= {0.0, 1.0}
            assert abs(float(col.mean()) - 0.5) <= 0.01

    def test_columns_independent_within_rows(self):
        rng = replicate_rng(2, 0)
        xs = draw_covariates(rng, 200_000)
        corr = np.corrcoef(xs, rowvar=False)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off)) < 0.01

    def test_deterministic_given_stream(self):
        a = draw_covariates(replicate_rng(42, 3), 1000)
        b = draw_covariates(replicate_rng(42, 3), 1000)
        assert np.array_equal(a, b)


class TestAssignment:
    def test_probability_at_origin(self):
        xs = np.zeros((1, 5))
        p1 = assignment_probability(xs, "model1")[0]
        p2 = assignment_probability(xs, "model2")[0]
        assert p1 == pytest.approx(float(expit(-3.4)), rel=1e-12)
        assert p2 == pytest.approx(float(expit(-3.7)), rel=1e-12)

    def test_interaction_terms_only_in_model2(self):
        xs = np.array([[2.0, 1.0, -1.0, 0.0, 0.0]])
        # interactions cancel: x1*x2 + x1*x3 = 2 - 2 = 0
        base2 = assignment_probability(xs, "model2")[0]
        assert base2 == pytest.approx(float(expit(-3.7 - 0.2 * 2.0)), rel=1e-12)
        xs2 = np.array([[2.0, 1.0, 1.0, 0.0, 0.0]])
        lifted = assignment_probability(xs2, "model2")[0]
        assert lifted == pytest.approx(float(expit(-3.7 - 0.2 * 4.0 + 0.5 * 4.0)), rel=1e-12)

    def test_mean_treated_counts_near_expected(self):
        # expected counts at n=5000 are about 141.8 (no interactions) and
        # 139.4 (with interactions)
        for model, expected in (("model1", 141.8), ("model2", 139.4)):
            totals = []
            for r in range(60):
                sc = Scenario(n=5000, assignment_model=model, hypothesis="null", seed=9)
                totals.append(generate(sc, replicate=r).arm_count(1))
            assert abs(float(np.mean(totals)) - expected) <= 5.0


class TestHazardModel:
    def test_null_removes_arm_effect_exactly(self):
        sc = Scenario(n=10, hypothesis="null", seed=0)
        hz = sc.hazard_model()
        x = (0.3, -1.2, 0.7, 1.0, 0.0)
        assert 4.0 * hz.rate(x, 1) == 4.0 * hz.rate(x, 0)

    def test_alternative_density_ratio_is_constant(self):
        sc = Scenario(n=10, hypothesis="alternative", seed=0)
        hz = sc.hazard_model()
        for x in ((0.0,) * 5, (1.0, -2.0, 0.5, 1.0, 1.0)):
            ratio = hz.rate(x, 1) / hz.rate(x, 0)
            assert ratio == pytest.approx(math.exp(-0.4), rel=1e-14)

    def test_zero_baseline_gives_infinite_times(self):
        hz = HazardModel(log_baseline=-math.inf)
        assert draw_survival(replicate_rng(0, 0), (0.0,) * 5, 0, hz) == math.inf

    def test_zero_baseline_wins_over_an_overflowing_covariate_term(self):
        # 1e308 * sum(x) overflows to +inf, and -inf + inf would be NaN; the
        # suite turns the RuntimeWarning of that NaN into an error as well
        hz = HazardModel(log_baseline=-math.inf, arm_effect=0.5, covariate_effect=1e308)
        xs = np.array([[1.0, 2.0, 0.5, 1.0, 1.0], [-3.0, 0.0, 0.0, 0.0, 0.0], [0.0] * 5])
        assert hz.rate(xs, 1).tolist() == [0.0, 0.0, 0.0]
        assert hz.rate(xs[0], 0) == 0.0 and np.ndim(hz.rate(xs[0], 0)) == 0
        assert draw_survival(replicate_rng(0, 0), xs, 1, hz).tolist() == [math.inf] * 3

    def test_zero_baseline_scenario_censors_everyone(self):
        scenario = Scenario(n=200, seed=5, baseline_log_hazard=-math.inf, covariate_log_hazard=1e308)
        cohort = generate(scenario)
        assert not cohort.events.any()
        assert np.isfinite(cohort.times).all()


class TestDrawSurvival:
    def test_median_matches_inverse_hazard(self):
        # at the origin under the null the time is exponential with rate e^-2
        hz = HazardModel(log_baseline=-2.0, arm_effect=0.0, covariate_effect=0.25)
        rng = replicate_rng(7, 0)
        xs = np.zeros((200_000, 5))
        draws = draw_survival(rng, xs, 0, hz)
        analytic = math.exp(2.0) * math.log(2.0)
        assert abs(float(np.median(draws)) - analytic) <= 0.08

    def test_probability_integral_transform(self):
        hz = HazardModel(log_baseline=-2.0, arm_effect=-0.4, covariate_effect=0.25)
        rng = replicate_rng(8, 0)
        xs = draw_covariates(rng, 1_000_000)
        rates = hz.rate(xs, 1)
        draws = rng.exponential(size=len(xs)) / rates
        transformed = draws * rates  # cumulative hazard at the drawn time
        assert abs(float(transformed.mean()) - 1.0) <= 0.01

    def test_treated_survival_dominates_under_alternative(self):
        hz = HazardModel(log_baseline=-2.0, arm_effect=-0.4, covariate_effect=0.25)
        rng = replicate_rng(9, 0)
        xs = np.zeros((100_000, 5))
        t1 = draw_survival(rng, xs, 1, hz)
        t0 = draw_survival(rng, xs, 0, hz)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(t1, q) > np.quantile(t0, q)


class TestGenerate:
    def test_deterministic_and_seed_sensitive(self):
        sc = Scenario(n=200, seed=5)
        a = generate(sc, replicate=0)
        b = generate(sc, replicate=0)
        assert a == b
        c = generate(Scenario(n=200, seed=6), replicate=0)
        assert a != c
        d = generate(sc, replicate=1)
        assert a != d

    def test_vanishing_censor_window_censors_everything(self):
        sc = Scenario(n=500, seed=3, censor_upper=1e-9)
        cohort = generate(sc)
        assert not cohort.events.any()

    def test_observed_time_is_minimum(self):
        sc = Scenario(n=2000, seed=4)
        cohort = generate(sc)
        assert (cohort.times <= sc.censor_upper).all()
        assert cohort.events.any()

    def test_event_flag_independent_of_arm_given_covariates(self):
        # under the null, arm carries no information about the event flag
        # once covariates are controlled: its coefficient in a joint logistic
        # fit is near zero
        sc = Scenario(n=200_000, assignment_model="model1", hypothesis="null", seed=12)
        cohort = generate(sc)
        n = len(cohort)
        # the arm becomes covariate 0, and the event flag the arm
        probe = Cohort.from_columns(
            cohort.ids,
            np.column_stack([cohort.arms.astype(float), cohort.covariate_matrix]),
            cohort.events.astype(int),
            np.ones(n),
            np.zeros(n, dtype=bool),
            10.0,
        )
        model = fit_logistic(probe, feature_selector=(0, 1, 2, 3, 4, 5))
        assert abs(model.coefficients[1]) < 0.02  # the arm column

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(n=1)
        with pytest.raises(ValueError):
            Scenario(n=10, assignment_model="model3")
        with pytest.raises(ValueError):
            Scenario(n=10, hypothesis="sometimes")
        with pytest.raises(ValueError):
            Scenario(n=10, censor_upper=0.0)

    @pytest.mark.parametrize("replicate", [-1, True, 1.0])
    def test_replicate_must_be_a_nonnegative_integer(self, replicate):
        with pytest.raises(ConfigError, match="replicate"):
            generate(Scenario(n=10, seed=1), replicate=replicate)

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_stream_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy would refuse -1 naming no argument, and take True as seed 1
        with pytest.raises(ConfigError, match="seed"):
            replicate_rng(seed)


class TestStratumKaplanMeier:
    def test_control_survival_matches_model_within_band(self):
        """Product-limit curve of controls in a thin covariate stratum tracks
        the average model survival of that stratum inside 99% bands."""
        sc = Scenario(n=100_000, assignment_model="model1", hypothesis="null", seed=21)
        cohort = generate(sc)
        hz = sc.hazard_model()
        x = cohort.covariate_matrix
        stratum = (cohort.arms == 0) & (np.abs(x.sum(axis=1) - 1.0) < 0.25)
        assert np.count_nonzero(stratum) > 3000

        times = cohort.times[stratum]
        events = cohort.events[stratum]
        rates = hz.rate(x[stratum], 0).tolist()
        order = np.argsort(times)
        times, events = times[order], events[order]

        def km_with_se(at):
            surv, var_acc = 1.0, 0.0
            n_risk = len(times)
            i = 0
            while i < len(times) and times[i] <= at:
                t = times[i]
                j = i
                d = 0
                while j < len(times) and times[j] == t:
                    d += int(events[j])
                    j += 1
                removed = j - i
                if d > 0:
                    surv *= 1.0 - d / n_risk
                    var_acc += d / (n_risk * (n_risk - d))
                n_risk -= removed
                i = j
            return surv, surv * math.sqrt(var_acc)

        for probe in (2.0, 5.0, 8.0):
            km, se = km_with_se(probe)
            model_surv = float(np.mean([math.exp(-probe * r) for r in rates]))
            assert abs(km - model_surv) <= 2.576 * se
