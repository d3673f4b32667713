"""Exception types; the CLI maps them onto exit codes."""


class CemLogrankError(Exception):
    """Base class for all package-specific errors."""


class DatasetFormatError(CemLogrankError):
    """Malformed dataset file (bad header, unparseable row, invalid value)."""


class ConfigError(CemLogrankError, ValueError):
    """Invalid configuration: bad schema, out-of-range value, dimension mismatch.

    Raised by the type that owns each input check; a ValueError too, so code
    that catches ValueError still sees it."""


class SeparationError(CemLogrankError):
    """Logistic MLE diverges: complete or quasi-complete separation."""


class RankDeficiencyError(CemLogrankError):
    """The logistic fit has no unique solution in floats: a constant feature
    or collinear features (a singular Hessian), or covariates whose centring
    or mapped-back coefficients leave the float range (rescale them)."""


class WeightOverflowError(CemLogrankError):
    """A fitted propensity reached 0 or 1, so an inverse weight overflows."""
