"""Small numeric and hashing helpers shared across the package."""

import hashlib
import json
import math
import numbers

import numpy as np


def pinv(x: float) -> float:
    """Total reciprocal: 1/x for nonzero x, 0.0 for x == 0.

    Every ratio in the test statistics is routed through this, so empty risk
    sets produce zero contributions instead of division errors.
    """
    return 0.0 if x == 0.0 else 1.0 / x


def pinv_array(x: np.ndarray) -> np.ndarray:
    """Elementwise total reciprocal, as ``pinv``."""
    return np.divide(1.0, x, out=np.zeros_like(x, dtype=float), where=x != 0.0)


def require_int(name: str, value, minimum: int) -> None:
    """ValueError unless ``value`` is an integer (a bool is not) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def canonical_json(obj) -> str:
    """Stable serialization used for fingerprints: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint(obj) -> str:
    """sha256 hex digest of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def norm_cdf(x: float) -> float:
    """Standard normal CDF, exact to double precision via erfc."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_sf(x: float) -> float:
    """Standard normal survival function P(Z >= x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
