"""Deterministic random streams.

Every stochastic object in the package is drawn from a stream addressed by
(master_seed, tag, index). Tags are strings describing the consumer
("sensing-ensemble", "regions-ms/R1", ...); they are hashed to a 64-bit word
so unrelated consumers cannot collide by accident. Gaussians go through the
inverse normal CDF (gaussian) instead of the Generator's rejection sampler,
which makes the draw a pure function of the uniform bit stream and
therefore stable across numpy versions and platforms. A consumer may draw a
block of uniforms at once and map its Gaussian columns through gaussian
itself: the values come out as from one call per draw.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from scipy.special import ndtri

from .errors import InvalidConfig

SEED_ENV_VAR = "LANDSCAPE_LAB_SEED"
DEFAULT_MASTER_SEED = 20250817


def _tag_word(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_master_seed(explicit: int | None = None) -> int:
    """Pick the master seed: explicit value, else env var, else default."""
    if explicit is not None:
        return int(explicit)
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_MASTER_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidConfig(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def stream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (master_seed, tag, index)."""
    seq = np.random.SeedSequence((int(master_seed), _tag_word(tag), int(index)))
    return np.random.Generator(np.random.PCG64(seq))


def subseed(master_seed: int, tag: str, index: int = 0) -> int:
    """Derived integer seed, for objects that record their own seed."""
    payload = f"{int(master_seed)}/{tag}/{int(index)}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def uniform(gen: np.random.Generator, shape=()) -> np.ndarray:
    """Uniforms on the open interval (0, 1), 53-bit resolution.

    Each value spends one 64-bit word of the stream and none is rejected,
    so a (rows, width) block holds, row by row, the values that rows
    successive calls of width values each would return.
    """
    bits = gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return (bits + 0.5) * (2.0 ** -53)


def gaussian(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms on (0, 1), by the inverse normal CDF."""
    return ndtri(u)


def normal(gen: np.random.Generator, shape=()) -> np.ndarray:
    """Standard normals via the inverse CDF of the uniform stream."""
    return gaussian(uniform(gen, shape))


def unit_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform point on the unit sphere in R^dim."""
    v = normal(gen, (dim,))
    return v / np.linalg.norm(v)
