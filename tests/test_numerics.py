"""The package's own special functions and summary statistics against scipy,
and its fingerprint against hashlib, used here as independent references; the
package itself imports neither where the interpreter has its own sha256.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special, stats

from cemlogrank.experiment import _ks_distance, _skew
from cemlogrank.util import expit, fingerprint


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


# Each object with the canonical JSON that its fingerprint hashes.
CANONICAL = [
    ({"id": "Zoë", "site": "東京", "n": 2}, '{"id":"Zo\\u00eb","n":2,"site":"\\u6771\\u4eac"}'),
    ({"baseline_log_hazard": -math.inf, "seed": 1}, '{"baseline_log_hazard":-Infinity,"seed":1}'),
    ({"edges": [[-5.0, 0.5], [[], [1, {}]]], "a": {"b": {}}}, '{"a":{"b":{}},"edges":[[-5.0,0.5],[[],[1,{}]]]}'),
    ({}, "{}"),
]


@pytest.mark.parametrize("obj, canonical", CANONICAL, ids=["non_ascii", "minus_infinity", "nested", "empty"])
def test_fingerprint_is_the_sha256_of_the_canonical_json(obj, canonical):
    assert fingerprint(obj) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_fingerprint_falls_back_to_hashlib_without_the_builtin_sha256():
    # None in sys.modules makes an import of that name fail, as it does on an
    # interpreter built without the module
    code = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from cemlogrank import util\n"
        "assert util.sha256 is hashlib.sha256\n"
        "print(json.dumps([util.fingerprint(json.loads(text)) for text in json.load(sys.stdin)]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    texts = json.dumps([canonical for _, canonical in CANONICAL])
    out = subprocess.run([sys.executable, "-c", code], input=texts, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [fingerprint(obj) for obj, _ in CANONICAL]
