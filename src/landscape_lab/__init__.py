"""Landscape analysis toolkit for low-rank matrix sensing and phase retrieval.

The package studies two nonconvex risk families, the population and empirical
risks of symmetric rank-r matrix sensing over N x k factor matrices and of
phase retrieval over R^N, and provides the quotient-manifold geometry,
spectral probes, region classification, critical-point search, and the
reproduction experiments built on top of them.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    GramNotSPD,
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    LandscapeError,
    NonFiniteEntry,
    NotHorizontal,
    NotSkew,
    NumericalFailure,
    SamplerStarved,
    ZeroTruthSignal,
)

__all__ = [
    "__version__",
    "LandscapeError",
    "ConfigError",
    "NumericalFailure",
    "InvalidConfig",
    "DimensionMismatch",
    "InvalidRank",
    "InvalidSampleCount",
    "ZeroTruthSignal",
    "GramNotSPD",
    "NotSkew",
    "NotHorizontal",
    "NonFiniteEntry",
    "SamplerStarved",
]
