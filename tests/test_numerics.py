"""The package's own special functions and summary statistics against scipy,
used here as an independent reference; the package itself does not import it.
"""

import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special, stats

from cemlogrank.experiment import _ks_distance, _skew
from cemlogrank.util import expit


class TestExpit:
    @pytest.mark.parametrize("lo, hi", [(-800.0, 800.0), (-40.0, 40.0), (-1.0, 1.0), (-745.5, -700.0)])
    def test_close_to_scipy_over_wide_ranges(self, lo, hi):
        # numpy's exp is within 1 ulp of libm's.  Rounding 1 + e^-x (a tie
        # near x = -36.8) can double that gap, and the reciprocal can land in
        # a binade whose ulp is half the denominator's: 4 ulp of the result.
        x = np.random.default_rng(7).uniform(lo, hi, 200_000)
        ours, ref = expit(x), special.expit(x)
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))

    @pytest.mark.parametrize(
        "x, expected",
        [(-745.0, 0.0), (-1000.0, 0.0), (-np.inf, 0.0), (0.0, 0.5), (745.0, 1.0), (1000.0, 1.0), (np.inf, 1.0)],
    )
    def test_exact_at_the_ends(self, x, expected):
        # warnings are errors in this suite, so an overflow warning fails here
        assert expit(np.float64(x)) == expected == special.expit(x)
        assert expit(np.array([x]))[0] == expected


@pytest.mark.parametrize("m", [2, 24, 300])
def test_normal_quantiles_match_scipy_at_the_qq_points(m):
    p = [(i - 0.5) / m for i in range(1, m + 1)]
    ours = np.array([NormalDist().inv_cdf(q) for q in p])
    ref = stats.norm.ppf(p)
    assert np.all(np.abs(ours - ref) <= 1e-15 * np.abs(ref))


@pytest.mark.parametrize("m", [2, 3, 24, 300])
def test_skew_and_ks_distance_match_scipy(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        normal = rng.uniform(0.1, 5.0) * rng.standard_normal(m) + rng.uniform(-3.0, 3.0)
        for vals in (normal, np.exp(normal)):
            assert _skew(vals) == pytest.approx(float(stats.skew(vals)), abs=1e-12)
            assert _ks_distance(np.sort(vals)) == pytest.approx(
                stats.kstest(vals, "norm").statistic, abs=1e-12
            )


@pytest.mark.parametrize("value", [0.0, 1.3, -0.25])
@pytest.mark.parametrize("m", [2, 300])
def test_zero_spread_skew_is_none_where_scipy_gives_nan(value, m):
    vals = np.full(m, value)
    with warnings.catch_warnings():
        # scipy warns of catastrophic cancellation on equal nonzero values
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.isnan(stats.skew(vals))
    assert _skew(vals) is None
    assert _ks_distance(vals) == pytest.approx(stats.kstest(vals, "norm").statistic, abs=1e-12)
