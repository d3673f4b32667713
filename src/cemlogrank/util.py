"""Small numeric and hashing helpers shared across the package."""

import inspect
import json
import math
import numbers

import numpy as np

from .errors import ConfigError

# The interpreter's own sha256 gives the same digests as hashlib's, while
# hashlib loads OpenSSL: 3.6 MB resident that `match` and `test` would carry
# only to fingerprint their config.  The module is _sha2 from Python 3.12 and
# _sha256 before it; hashlib serves an interpreter built without either.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def pinv(x: float) -> float:
    """Total reciprocal: 1/x for nonzero x, 0.0 for x == 0.

    Every ratio in the test statistics is routed through this, so empty risk
    sets produce zero contributions instead of division errors.
    """
    return 0.0 if x == 0.0 else 1.0 / x


def pinv_array(x: np.ndarray) -> np.ndarray:
    """Elementwise total reciprocal, as ``pinv``."""
    return np.divide(1.0, x, out=np.zeros_like(x, dtype=float), where=x != 0.0)


def is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_real(
    name: str, value, rule: str = "be finite", lower: float = -math.inf, upper: float = math.inf
) -> None:
    """ConfigError "``name`` must ``rule``, got ``value!r``" unless ``value``
    is a real number (a bool is not) within the float range and strictly
    between ``lower`` and ``upper``, so finite by default.  Only a float
    copy is compared: ``value`` stays as given, so an echoed config and its
    fingerprint do too."""
    try:
        if is_real(value) and lower < float(value) < upper:
            return
    except OverflowError:
        pass
    raise ConfigError(f"{name} must {rule}, got {value!r}")


def require_positive(name: str, value) -> None:
    """ConfigError unless ``value`` is a real number (a bool is not), finite
    and positive."""
    require_real(name, value, "be finite and positive", lower=0.0)


def require_int(name: str, value, minimum: float = -math.inf, maximum: float = math.inf) -> None:
    """ConfigError unless ``value`` is an integer (a bool is not) in
    [``minimum``, ``maximum``]."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and minimum <= value <= maximum):
        if maximum < math.inf:
            bounds = f" in [{minimum}, {maximum}]"
        else:
            bounds = f" >= {minimum}" if minimum > -math.inf else ""
        raise ConfigError(f"{name} must be an integer{bounds}, got {value!r}")


def require_reals(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats; ConfigError naming ``name`` unless
    each is a real number (a bool is not) within the float range."""
    try:
        if all(map(is_real, values := tuple(values))):
            return tuple(map(float, values))
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a list of real numbers within the float range")


def require_arguments(cls, data, what: str) -> None:
    """ConfigError unless ``data`` is a dict of keyword arguments that the
    constructor of ``cls`` takes, naming the first missing or unknown key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be an object, got {type(data).__name__}")
    try:
        inspect.signature(cls).bind(**data)
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def fingerprint(obj) -> str:
    """sha256 hex digest of ``obj`` serialized as JSON with sorted keys and no
    whitespace.  Non-finite floats are written as the reports write them
    (``-Infinity``), since a config may hold one: a baseline log-hazard of
    -inf."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def expit(x):
    """Logistic sigmoid 1 / (1 + e^-x), elementwise.  Where e^-x overflows
    (x below about -709.78) the value is 0.0, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def norm_cdf(x: float) -> float:
    """Standard normal CDF, exact to double precision via erfc."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_sf(x: float) -> float:
    """Standard normal survival function P(Z >= x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
