"""Stream discipline tests: determinism, independence, env fallback."""

from __future__ import annotations

import numpy as np
import pytest

from landscape_lab import rng
from landscape_lab.errors import InvalidConfig


def test_streams_are_deterministic():
    a = rng.normal(rng.stream(1, "tag", 0), (4, 3))
    b = rng.normal(rng.stream(1, "tag", 0), (4, 3))
    assert np.array_equal(a, b)


def test_streams_differ_across_tags_indices_and_masters():
    base = rng.normal(rng.stream(1, "tag", 0), (8,))
    for other in [
        rng.normal(rng.stream(1, "tag", 1), (8,)),
        rng.normal(rng.stream(1, "other", 0), (8,)),
        rng.normal(rng.stream(2, "tag", 0), (8,)),
    ]:
        assert not np.array_equal(base, other)


def test_normals_are_standard():
    draws = rng.normal(rng.stream(7, "moments", 0), (200_000,))
    assert abs(float(np.mean(draws))) < 0.01
    assert abs(float(np.var(draws)) - 1.0) < 0.02


def test_uniform_stays_inside_open_interval():
    u = rng.uniform(rng.stream(7, "unit", 0), (100_000,))
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_unit_vector_is_unit():
    v = rng.unit_vector(rng.stream(7, "sphere", 0), 6)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_subseed_is_stable_and_distinct():
    assert rng.subseed(5, "a", 0) == rng.subseed(5, "a", 0)
    assert rng.subseed(5, "a", 0) != rng.subseed(5, "a", 1)
    assert rng.subseed(5, "a", 0) != rng.subseed(5, "b", 0)


def test_master_seed_resolution(monkeypatch):
    assert rng.resolve_master_seed(42) == 42
    monkeypatch.setenv(rng.SEED_ENV_VAR, "777")
    assert rng.resolve_master_seed() == 777
    monkeypatch.setenv(rng.SEED_ENV_VAR, "not-a-number")
    with pytest.raises(InvalidConfig):
        rng.resolve_master_seed()
    monkeypatch.delenv(rng.SEED_ENV_VAR)
    assert rng.resolve_master_seed() == rng.DEFAULT_MASTER_SEED


def test_negative_master_seed_is_invalid(monkeypatch):
    with pytest.raises(InvalidConfig, match="must not be negative, got -1"):
        rng.resolve_master_seed(-1)
    monkeypatch.setenv(rng.SEED_ENV_VAR, "-3")
    with pytest.raises(InvalidConfig, match="must not be negative, got -3"):
        rng.resolve_master_seed()
    assert rng.resolve_master_seed(0) == 0


def test_uniform_is_the_integer_form_bit_for_bit():
    # the form uniform had before it read random(): the top 53 bits of a
    # word as an integer, plus one half, times 2^-53
    old, new = rng.stream(9, "uniform-oracle", 0), rng.stream(9, "uniform-oracle", 0)
    want = (old.integers(0, 1 << 53, size=10**6, dtype=np.int64) + 0.5) * 2.0**-53
    got = rng.uniform(new, (10**6,))
    assert got.tobytes() == want.tobytes()
    assert new.bit_generator.state == old.bit_generator.state
    one = (old.integers(0, 1 << 53, size=(), dtype=np.int64) + 0.5) * 2.0**-53
    assert rng.uniform(new) == one


@pytest.mark.parametrize("seed, index", [(-1, 0), (1, -1), (-5, -2)])
def test_negative_stream_seed_or_index_is_invalid(seed, index):
    with pytest.raises(InvalidConfig, match="must not be negative"):
        rng.stream(seed, "tag", index)
    rng.stream(0, "tag", 0)


def test_library_caller_gets_invalid_config_for_a_negative_seed():
    from landscape_lab.landscape import verify_region_bounds_pr

    with pytest.raises(InvalidConfig, match="must not be negative"):
        verify_region_bounds_pr(np.array([1.0, -1.0, 1.0]), 3, -1)


class _TopWord:
    """A generator stub whose every word is the top one, b = 2^53 - 1."""

    def random(self, shape=()):
        return np.full(shape, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=["scalar", "row", "block"])
def test_top_word_stays_below_one(shape):
    # (1 - 2^-53) + 2^-54 rounds, ties to even, to 1.0, where gaussian is +inf
    u = rng.uniform(_TopWord(), shape)
    assert u.shape == shape
    assert np.all(u == 1.0 - 2.0 ** -53)
    assert np.all(np.isfinite(rng.gaussian(u)))


def test_uniform_equals_the_unclamped_sum_bit_for_bit():
    # a million seeded draws hold no top word, so the clamp moves none
    got = rng.uniform(rng.stream(7, "unit", 1), (1_000_000,))
    old = rng.stream(7, "unit", 1).random((1_000_000,)) + 2.0 ** -54
    assert got.tobytes() == old.tobytes()


def test_uniform_values_lie_on_the_stated_grid():
    # (b + 1/2) 2^-53 below 1/2; above, the even one of b 2^-53 and (b + 1) 2^-53
    words = rng.stream(7, "unit", 2).random((100_000,))
    u = rng.uniform(rng.stream(7, "unit", 2), (100_000,))
    b = (words * 2.0 ** 53).astype(np.int64)
    low = b < 2 ** 52
    assert np.array_equal(u[low] * 2.0 ** 54, 2.0 * b[low] + 1.0)
    assert np.array_equal(u[~low] * 2.0 ** 53, b[~low] + (b[~low] & 1))


@pytest.mark.parametrize("shape", [(), (7,), (5, 3, 3)], ids=["scalar", "row", "block"])
def test_normal_is_gaussian_of_uniform_bit_for_bit(shape):
    got = rng.normal(rng.stream(7, "unit", 3), shape)
    expected = rng.gaussian(rng.uniform(rng.stream(7, "unit", 3), shape))
    # shape () gives a float64 scalar, as gaussian of a 0-d array does
    assert type(got) is (np.float64 if shape == () else np.ndarray)
    assert type(got) is type(expected)
    assert np.shape(got) == shape
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_normal_draws_into_new_memory_each_call():
    gen = rng.stream(7, "unit", 5)
    first, second = rng.normal(gen, (4, 3)), rng.normal(gen, (4, 3))
    assert not np.shares_memory(first, second)


def test_gaussian_leaves_its_uniforms_as_they_are():
    # a caller may map a whole block of rows and then read one of its
    # uniform columns again, as the phase-retrieval R3 proposer reads its
    # radius column after mapping every row
    u = rng.uniform(rng.stream(7, "unit", 6), (64, 4))
    before = u.copy()
    g = rng.gaussian(u)
    assert u.tobytes() == before.tobytes()
    assert not np.shares_memory(g, u)
