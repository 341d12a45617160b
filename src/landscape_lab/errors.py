"""Exception types shared across the package.

Everything raised on purpose derives from LandscapeError so callers can
catch one base class at the CLI boundary and map it to an exit code.
"""


class LandscapeError(Exception):
    """Base class for all package-specific failures."""


class InvalidConfig(LandscapeError):
    """A configuration value is missing, malformed, or out of range."""


class DimensionMismatch(LandscapeError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class InvalidRank(LandscapeError):
    """A rank parameter violates its admissible range."""


class InvalidSampleCount(LandscapeError):
    """A measurement or sample count is below one."""


class ZeroTruthSignal(LandscapeError):
    """The ground-truth signal is identically zero."""


class RankDeficientFactor(LandscapeError):
    """A factor matrix expected to have full column rank does not."""


class GramNotSPD(LandscapeError):
    """A Gram matrix required to be positive definite is numerically singular."""


class NotSkew(LandscapeError):
    """A matrix required to be skew-symmetric is not, beyond tolerance."""


class NotHorizontal(LandscapeError):
    """A tangent direction violates the horizontality condition."""


class NonFiniteEntry(LandscapeError):
    """A NaN or Inf surfaced where finite values are required."""


class SamplerStarved(LandscapeError):
    """A rejection sampler exhausted its attempt budget for a region."""
