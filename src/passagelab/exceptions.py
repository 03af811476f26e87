"""Exception and warning types shared across the package."""

__all__ = [
    "PassageLabError",
    "ConfigError",
    "GridError",
    "GridTooNarrowError",
    "ZeroNormError",
    "ZeroOverlapError",
    "NoDetectionError",
    "InstabilityError",
    "ConvergenceError",
    "RegimeWarning",
]


class PassageLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PassageLabError):
    """Invalid configuration: bad value, unknown key, or unparsable file."""


class GridError(PassageLabError):
    """Grid construction or grid/state compatibility failure."""


class GridTooNarrowError(GridError):
    """The requested state does not fit on the grid within tail tolerance."""


class ZeroNormError(PassageLabError):
    """Moments or normalization requested for a state with (near-)zero norm."""


class ZeroOverlapError(PassageLabError):
    """Reset requested for a state with no support inside the detector."""


class NoDetectionError(PassageLabError):
    """An arrival stage produced no detection probability to sample from."""


class InstabilityError(PassageLabError):
    """A propagation step produced non-finite amplitudes."""


class ConvergenceError(PassageLabError):
    """A self-convergence check exceeded its tolerance."""


class RegimeWarning(UserWarning):
    """Parameters leave the regime where boundary effects are negligible."""
