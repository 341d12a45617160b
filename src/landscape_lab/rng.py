"""Deterministic random streams.

Every stochastic object in the package is drawn from a stream addressed by
(master_seed, tag, index). Tags are strings describing the consumer
("sensing-ensemble", "regions-ms/R1", ...); they are hashed to a 64-bit word
so unrelated consumers cannot collide by accident. Gaussians go through the
inverse normal CDF (gaussian) instead of the Generator's rejection sampler,
which makes the draw a pure function of the uniform bit stream and
therefore stable across numpy versions and platforms. A consumer may draw a
block of uniforms at once and map its Gaussian columns through gaussian
itself: the values come out as from one call per draw. gaussian leaves its
uniforms as they are; normal maps the uniforms it draws in place.
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
    """Pick the master seed: explicit value, else env var, else default. It
    must not be negative, as stream's SeedSequence requires."""
    if explicit is None:
        raw = os.environ.get(SEED_ENV_VAR, DEFAULT_MASTER_SEED)
        try:
            explicit = int(raw)
        except ValueError as exc:
            raise InvalidConfig(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    seed = int(explicit)
    if seed < 0:
        raise InvalidConfig(f"the master seed must not be negative, got {seed}")
    return seed


def stream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (master_seed, tag, index); a negative seed
    or index, which SeedSequence cannot take, raises InvalidConfig."""
    seed, index = int(master_seed), int(index)
    if seed < 0 or index < 0:
        raise InvalidConfig(
            f"stream seed and index must not be negative, got {seed} and {index}"
        )
    seq = np.random.SeedSequence((seed, _tag_word(tag), index))
    return np.random.Generator(np.random.PCG64(seq))


def subseed(master_seed: int, tag: str, index: int = 0) -> int:
    """Derived integer seed, for objects that record their own seed."""
    payload = f"{int(master_seed)}/{tag}/{int(index)}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def uniform(gen: np.random.Generator, shape=()) -> np.ndarray:
    """Uniforms on the open interval (0, 1), one per 64-bit word of the stream.

    random() reads b 2^-53 from the top 53 bits b of a word, and 2^-54 is
    added to it. Below 1/2 (b < 2^52) the sum is exactly (b + 1/2) 2^-53.
    Above, it is a tie that rounds to even, to b 2^-53 or (b + 1) 2^-53,
    and the top word b = 2^53 - 1 would round to 1, where gaussian is
    infinite: it is clamped to 1 - 2^-53. None is rejected, so a
    (rows, width) block holds, row by row, the values that rows successive
    calls of width values each would return.
    """
    u = gen.random(shape)
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def gaussian(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms on (0, 1), by the inverse normal CDF,
    in a new array: u is left as it is."""
    return ndtri(u)


def normal(gen: np.random.Generator, shape=()) -> np.ndarray:
    """Standard normals via the inverse CDF of the uniform stream, mapped in
    the memory the uniforms were drawn into; bit for bit
    gaussian(uniform(gen, shape)), and a float64 scalar for shape ()."""
    u = uniform(gen, shape)
    return ndtri(u, out=u)[()]


def unit_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform point on the unit sphere in R^dim."""
    v = normal(gen, (dim,))
    return v / np.linalg.norm(v)
