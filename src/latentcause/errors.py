"""Exception taxonomy for estimation failures.

Every error raised by the library derives from :class:`LatentCauseError`, so
callers (including the CLI, which maps them to exit code 2) can catch one
type. Each subclass names a specific failure mode of the spectral or
regression stages. ``_integer`` is the one check of integer arguments,
``_floats`` the one reader of numeric ones and ``_positive`` of positive scales.
"""

import numbers

import numpy as np


class LatentCauseError(Exception):
    """Base class for all estimation errors raised by this package."""


class DegenerateSpectrum(LatentCauseError):
    """The k-th eigenvalue fell below the floor: K is too large for the data."""


class EmptyInput(LatentCauseError):
    """An operation received zero samples."""


class DimensionMismatch(LatentCauseError):
    """Array shapes are inconsistent with each other or with the model."""


class NonConvergence(LatentCauseError):
    """An iterative solver (the tensor eigenvector polish, the Lanczos SVD) did not converge."""


class RankDeficiency(LatentCauseError):
    """A cross-moment matrix has numerical rank below the requested K."""


class UnfittedModel(LatentCauseError):
    """A prediction was requested from a model that has not been fitted."""


class SingularSystem(LatentCauseError):
    """Normal equations remained singular at the maximum ridge level."""


class DegenerateCluster(LatentCauseError):
    """A component's total posterior weight is numerically zero."""


class InvalidConfig(LatentCauseError):
    """A configuration value is missing, malformed, or out of range."""


def _integer(value, message: str, lo=None, hi=None) -> int:
    """``value`` as an int when it is an integer in lo..hi (a bool is not one).

    Anything else raises InvalidConfig with ``message``, then the value.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or lo is not None and value < lo or hi is not None and value > hi):
        raise InvalidConfig(f"{message}, got {value!r}")
    return int(value)


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array when every entry is a finite number.

    Anything else raises InvalidConfig: "{what} must be numbers" for a string
    entry (numeric ones too, as ``_integer`` refuses "3") or one numpy cannot
    read as a float, "{what} must be finite" for NaN or infinity.
    """
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in "SU" or raw.dtype.kind == "O" and any(
                isinstance(x, (str, bytes)) for x in raw.flat):
            raise TypeError
        values = raw.astype(float, copy=False)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{what} must be numbers") from None
    if not np.all(np.isfinite(values)):
        raise InvalidConfig(f"{what} must be finite")
    return values


def _positive(value, what: str) -> float:
    """``value`` as a float when it is one finite number above 0 (a bool is not one).

    ``_floats`` reads it first, so a string or NaN is refused as there; anything
    else raises InvalidConfig: "{what} must be finite and positive", then the value.
    """
    scale = _floats(value, what)
    if isinstance(value, (bool, np.bool_)) or scale.ndim != 0 or not scale > 0:
        raise InvalidConfig(f"{what} must be finite and positive, got {value!r}")
    return float(scale)
