"""End-to-end statistical acceptance gates.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` or read the
captured output) and asserts its stated tolerance.  The replicated runs share
module-scoped fixtures; every run pins its own seed and draws replicate r from
the stream keyed by (seed, r), so the gates are exactly reproducible.
"""

import math
import time

import numpy as np
import pytest

from cemlogrank import (
    Cohort,
    ExperimentConfig,
    Scenario,
    SubjectRecord,
    WeightFunction,
    cem_weight,
    generate,
    grid_scheme,
    kernel,
    match,
    omega_n_holds,
    pooled_at_risk,
    run_experiment,
    run_test,
    statistic_path,
)
from cemlogrank.dataio import experiment_report, samples_csv_text
from cemlogrank.oracle import (
    martingale_residual_mean,
    nelson_aalen_difference,
    statistic_decomposition,
)
from cemlogrank.survival import build_event_grid
from cemlogrank.util import pinv

SEED = 80808
Z_975 = 1.959963984540054


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def null_run_model1():
    cfg = ExperimentConfig(
        scenario=Scenario(n=5000, assignment_model="model1", hypothesis="null", seed=SEED),
        replications=300,
        method="both",
        threads=4,
    )
    t0 = time.monotonic()
    result = run_experiment(cfg)
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def null_run_model2():
    cfg = ExperimentConfig(
        scenario=Scenario(n=5000, assignment_model="model2", hypothesis="null", seed=SEED),
        replications=300,
        method="both",
        threads=4,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def alternative_runs():
    runs = {}
    for n in (2500, 5000, 7500):
        cfg = ExperimentConfig(
            scenario=Scenario(n=n, assignment_model="model2", hypothesis="alternative", seed=SEED),
            replications=300,
            method="cem",
            threads=4,
        )
        runs[n] = run_experiment(cfg)
    return runs


def in_calibration_bands(summary):
    return (
        abs(summary.mean) <= 0.15
        and 0.85 <= summary.sd <= 1.15
        and 0.02 <= summary.rejection_rate_two_sided <= 0.09
    )


class TestCriterion1NullCalibration:
    def test_matched_statistic_is_calibrated(self, null_run_model1):
        result, elapsed = null_run_model1
        s = result.summaries["cem"]
        detail = (
            f"mean={s.mean:+.4f}, sd={s.sd:.4f}, "
            f"two-sided rejection at 0.05={s.rejection_rate_two_sided:.4f}, runtime={elapsed:.0f}s"
        )
        report("1 (null calibration, matched test)", in_calibration_bands(s) and elapsed < 300.0, detail)


class TestCriterion2MisspecificationRobustness:
    def test_matched_test_survives_misspecified_assignment(self, null_run_model2):
        s = null_run_model2.summaries["cem"]
        report(
            "2a (matched calibration under interaction assignment)",
            in_calibration_bands(s),
            f"mean={s.mean:+.4f}, sd={s.sd:.4f}, rejection={s.rejection_rate_two_sided:.4f}",
        )

    def test_inverse_weighting_is_more_biased_on_same_replicates(self, null_run_model2):
        cem = null_run_model2.summaries["cem"]
        iptw = null_run_model2.summaries["iptw"]
        report(
            "2b (inverse weighting breaks under interaction assignment)",
            abs(iptw.mean) > abs(cem.mean),
            f"|mean| inverse-weighted={abs(iptw.mean):.4f} vs matched={abs(cem.mean):.4f}",
        )


class TestCriterion3TreatedCounts:
    def test_mean_treated_count_without_interactions(self, null_run_model1):
        result, _ = null_run_model1
        mean_treated = result.summaries["cem"].mean_treated_total
        report(
            "3a (treated count, no-interaction assignment)",
            abs(mean_treated - 143.0) <= 5.0,
            f"mean treated={mean_treated:.1f}, target 143±5",
        )

    def test_mean_treated_count_with_interactions(self, null_run_model2):
        mean_treated = null_run_model2.summaries["cem"].mean_treated_total
        report(
            "3b (treated count, interaction assignment)",
            abs(mean_treated - 139.0) <= 5.0,
            f"mean treated={mean_treated:.1f}, target 139±5",
        )


class TestCriterion4Consistency:
    def test_statistic_drifts_down_and_power_rises_with_n(self, alternative_runs):
        medians = {}
        tails = {}
        for n, result in alternative_runs.items():
            stats = np.array([r.statistic for r in result.records])
            medians[n] = float(np.median(stats))
            tails[n] = float(np.mean(stats < -1.645))
        ok = (
            medians[2500] > medians[5000] > medians[7500]
            and tails[2500] < tails[5000] < tails[7500]
            and tails[7500] >= tails[2500] + 0.10
        )
        report(
            "4 (consistency under the alternative)",
            ok,
            f"medians={medians[2500]:+.3f}/{medians[5000]:+.3f}/{medians[7500]:+.3f}, "
            f"lower-tail rates={tails[2500]:.3f}/{tails[5000]:.3f}/{tails[7500]:.3f}",
        )


class TestCriterion5VarianceConsistency:
    def test_mean_variance_estimate_tracks_statistic_variance(self, null_run_model1):
        result, _ = null_run_model1
        s = result.summaries["cem"]
        rel = abs(s.mean_v_tau - s.var_w_tau) / s.var_w_tau
        report(
            "5 (variance-estimator consistency)",
            rel <= 0.15,
            f"mean estimate={s.mean_v_tau:.4f}, empirical variance={s.var_w_tau:.4f}, gap={rel:.1%}",
        )


class TestCriterion6OracleEquivalences:
    def test_single_cell_bracket_vs_two_sample_enumeration(self):
        rng = np.random.default_rng(1001)
        scheme = grid_scheme([0.0], [1.0], 1)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(6, 13))
            subjects = [
                SubjectRecord(
                    id=i,
                    covariates=(0.5,),
                    arm=int(rng.integers(2)),
                    observed_time=float(rng.uniform(0.2, 8.0)),
                    event=bool(rng.random() < 0.7),
                )
                for i in range(n)
            ]
            subjects.append(SubjectRecord(id="keep1", covariates=(0.5,), arm=1, observed_time=11.0, event=False))
            subjects.append(SubjectRecord(id="keep0", covariates=(0.5,), arm=0, observed_time=11.0, event=False))
            cohort = Cohort(subjects=tuple(subjects), horizon=10.0)
            mc = match(cohort, scheme)
            step = cohort.event_steps[1]
            bracket = 0.0
            for k, t in enumerate(build_event_grid(cohort).tolist()):
                events = [(cohort.ids[i], cohort.arms[i]) for i in np.flatnonzero(step == k).tolist()]
                dn1 = sum(cem_weight(mc, sid, t) for sid, arm in events if arm == 1)
                dn0 = sum(cem_weight(mc, sid, t) for sid, arm in events if arm == 0)
                bracket += pinv(pooled_at_risk(mc, 1, t)) * dn1 - pinv(pooled_at_risk(mc, 0, t)) * dn0
            worst = max(worst, abs(bracket - nelson_aalen_difference(cohort)))
        report("6a (single-cell bracket vs two-sample enumeration)", worst <= 1e-12, f"max gap={worst:.2e}")

    def test_decomposition_with_known_hazard(self):
        scheme = grid_scheme([-5.0] * 3, [5.0] * 3, 6, binary_dims=2)
        worst = 0.0
        for seed, hypothesis in ((11, "null"), (12, "null"), (13, "alternative")):
            sc = Scenario(n=400, assignment_model="model1", hypothesis=hypothesis, seed=seed)
            mc = match(generate(sc), scheme)
            decomp = statistic_decomposition(mc, sc.hazard_model())
            path = statistic_path(mc)
            stat = path[-1][1] if path else 0.0
            worst = max(worst, abs(decomp.total - stat))
        report("6b (event/compensator decomposition)", worst <= 1e-10, f"max gap={worst:.2e}")

    def test_martingale_residual_mean(self):
        sc = Scenario(n=1000, assignment_model="model1", hypothesis="null", seed=SEED)
        out = martingale_residual_mean(sc, replications=100)
        ok = out.draws == 100_000 and abs(out.mean) <= 3.0 * out.stderr
        report(
            "6c (martingale residual mean over 1e5 draws)",
            ok,
            f"mean={out.mean:+.2e}, 3*stderr={3 * out.stderr:.2e}",
        )


class TestCriterion7CoverageIdentities:
    def test_pooled_equality_and_kernel_reduction(self):
        rng = np.random.default_rng(2002)
        horizon = 5.0
        checked = 0
        worst_pool = 0.0
        worst_kernel = 0.0
        while checked < 1000:
            bins = int(rng.integers(1, 4))
            scheme = grid_scheme([0.0], [1.0], bins)
            subjects = []
            nid = 0
            for cell in range(bins):
                x = (cell + 0.5) / bins
                n_t = int(rng.integers(0, 4))
                n_c = int(rng.integers(1, 5))
                for _ in range(n_t):
                    subjects.append(SubjectRecord(nid, (x,), 1, float(rng.uniform(0.2, 7.0)), bool(rng.random() < 0.7)))
                    nid += 1
                for _ in range(n_c - 1):
                    subjects.append(SubjectRecord(nid, (x,), 0, float(rng.uniform(0.2, 7.0)), bool(rng.random() < 0.7)))
                    nid += 1
                # one control per occupied cell survives past the horizon
                subjects.append(SubjectRecord(nid, (x,), 0, horizon + float(rng.uniform(0.1, 2.0)), False))
                nid += 1
            mc = match(Cohort(subjects=tuple(subjects), horizon=horizon), scheme)
            if mc.n1 == 0 or not omega_n_holds(mc):
                continue
            checked += 1
            y1_0 = pooled_at_risk(mc, 1, 0.0)
            for t in [0.0] + build_event_grid(mc.cohort).tolist():
                y1 = pooled_at_risk(mc, 1, t)
                y0 = pooled_at_risk(mc, 0, t)
                worst_pool = max(worst_pool, abs(y1 - y0))
                reduced = 2.0 ** -0.5 * y1_0 ** -0.5 * y1
                worst_kernel = max(worst_kernel, abs(kernel(mc, None, t) - reduced))
        ok = worst_pool <= 1e-12 and worst_kernel <= 1e-12
        report(
            "7 (coverage-event identities on 1000 cohorts)",
            ok,
            f"max pooled gap={worst_pool:.2e}, max kernel gap={worst_kernel:.2e}",
        )


class TestCriterion8Properties:
    def test_totality_under_fuzzing(self):
        rng = np.random.default_rng(3003)
        scheme = grid_scheme([0.0], [1.0], 2)
        bad = 0
        for _ in range(500):
            n = int(rng.integers(1, 13))
            pool = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0]
            subjects = tuple(
                SubjectRecord(
                    id=i,
                    covariates=(float(rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])),),
                    arm=int(rng.integers(2)),
                    observed_time=float(rng.choice(pool)) if rng.random() < 0.5 else float(rng.uniform(0, 12)),
                    event=bool(rng.integers(2)),
                )
                for i in range(n)
            )
            mc = match(Cohort(subjects=subjects, horizon=2.5), scheme)
            res = run_test(mc)
            values = [res.statistic, res.variance_estimate, res.standardized]
            values += [kernel(mc, None, t) for t in (0.0, 1.0, 2.5)]
            values += [cem_weight(mc, s.id, 1.0) for s in subjects]
            if not all(math.isfinite(v) for v in values):
                bad += 1
            if not all(0.0 <= p <= 1.0 for p in (res.p_lower, res.p_upper, res.p_two_sided)):
                bad += 1
        report("8a (total on fuzzed inputs)", bad == 0, f"{bad} failures over 500 fuzzed cohorts")

    def test_weight_scale_leaves_standardized_statistic_alone(self):
        rng = np.random.default_rng(4004)
        scheme = grid_scheme([0.0], [1.0], 2)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(4, 15))
            subjects = tuple(
                SubjectRecord(
                    id=i,
                    covariates=(float(rng.uniform(0.01, 1.0)),),
                    arm=int(rng.integers(2)),
                    observed_time=float(rng.uniform(0.1, 12.0)),
                    event=bool(rng.random() < 0.7),
                )
                for i in range(n)
            )
            mc = match(Cohort(subjects=subjects, horizon=10.0), scheme)
            c = float(rng.uniform(0.05, 20.0))
            base = run_test(mc)
            scaled = run_test(mc, WeightFunction.constant(c))
            worst = max(worst, abs(scaled.standardized - base.standardized))
            # scale-aware comparison: a statistic cancelled to ~1e-16 would
            # make a bare relative gap meaningless
            worst = max(
                worst, abs(scaled.statistic - c * base.statistic) / (c * (abs(base.statistic) + 1.0))
            )
        report("8b (weight-scale invariance of the standardized statistic)", worst <= 1e-12, f"max gap={worst:.2e}")

    def test_thread_count_cannot_change_outputs(self):
        cfg1 = ExperimentConfig(
            scenario=Scenario(n=1500, assignment_model="model1", hypothesis="null", seed=SEED),
            replications=24,
            method="both",
            threads=1,
        )
        cfg3 = ExperimentConfig(
            scenario=cfg1.scenario, replications=24, method="both", threads=3
        )
        res1 = run_experiment(cfg1)
        res3 = run_experiment(cfg3)
        same_csv = samples_csv_text(res1) == samples_csv_text(res3)
        same_summary = experiment_report(res1) == experiment_report(res3)
        report(
            "8c (worker count cannot change outputs)",
            same_csv and same_summary,
            f"samples identical={same_csv}, summary identical={same_summary}",
        )
