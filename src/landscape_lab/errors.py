"""Exception types shared across the package.

Everything raised on purpose derives from LandscapeError, through one of
two bases, one per failure exit code of the command line: ConfigError, an
invalid configuration (exit 3), and NumericalFailure, a numerical failure
(exit 4). The CLI catches the two bases; a new error class picks its exit
code by the base it derives from.
"""


class LandscapeError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(LandscapeError):
    """An invalid configuration or input; the CLI exits 3."""


class NumericalFailure(LandscapeError):
    """A computation that cannot give a finite, valid result; the CLI exits 4."""


class InvalidConfig(ConfigError):
    """A configuration value is missing, malformed, or out of range."""


class DimensionMismatch(ConfigError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class InvalidRank(ConfigError):
    """A rank parameter violates its admissible range."""


class InvalidSampleCount(ConfigError):
    """A measurement or sample count is below one."""


class ZeroTruthSignal(ConfigError):
    """The ground-truth signal is identically zero."""


class GramNotSPD(NumericalFailure):
    """A Gram matrix required to be positive definite is numerically singular."""


class NotSkew(NumericalFailure):
    """A matrix required to be skew-symmetric is not, beyond tolerance."""


class NotHorizontal(NumericalFailure):
    """A tangent direction violates the horizontality condition."""


class NonFiniteEntry(NumericalFailure):
    """A NaN or Inf surfaced where finite values are required."""


class SamplerStarved(NumericalFailure):
    """A rejection sampler exhausted its attempt budget for a region."""
