"""Quotient-geometry tests, checked against independent brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landscape_lab import rng
from landscape_lab.errors import (
    DimensionMismatch,
    GramNotSPD,
    NonFiniteEntry,
    NotHorizontal,
    NotSkew,
)
from landscape_lab.manifold import (
    HorizontalTangent,
    SkewFactor,
    horizontal_basis,
    horizontal_project,
    procrustes_align,
    procrustes_distance,
    solve_skew_sylvester,
)

MASTER = 424242


def random_factor(tag: str, index: int, n: int, k: int) -> np.ndarray:
    return rng.normal(rng.stream(MASTER, tag, index), (n, k))


def random_skew(tag: str, index: int, k: int) -> np.ndarray:
    a = rng.normal(rng.stream(MASTER, tag, index), (k, k))
    return a - a.T


# ---- oracles ----------------------------------------------------------


def sylvester_by_linear_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Omega G + G Omega = S by explicit linear algebra on the
    strict-lower parameterization of skew matrices. Independent of the
    eigen-basis route used by the package."""
    k = gram.shape[0]
    pairs = [(i, j) for i in range(k) for j in range(i)]
    m = len(pairs)
    system = np.zeros((m, m))
    target = np.zeros(m)
    for col, (a, b) in enumerate(pairs):
        basis_elt = np.zeros((k, k))
        basis_elt[a, b] = 1.0
        basis_elt[b, a] = -1.0
        image = basis_elt @ gram + gram @ basis_elt
        for row, (i, j) in enumerate(pairs):
            system[row, col] = image[i, j]
    for row, (i, j) in enumerate(pairs):
        target[row] = rhs[i, j]
    coeffs = np.linalg.solve(system, target)
    omega = np.zeros((k, k))
    for col, (a, b) in enumerate(pairs):
        omega[a, b] = coeffs[col]
        omega[b, a] = -coeffs[col]
    return omega


def procrustes_by_angle_grid(u: np.ndarray, v: np.ndarray, points: int = 100_000) -> float:
    """Brute-force min over O(2) by scanning rotations and reflections on a
    dense angle grid. Only valid for k = 2."""
    assert u.shape[1] == 2
    cross = v.T @ u
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    # trace(Q^T cross) for Q = [[c, -s], [s, c]] and the reflected branch
    trace_rot = c * (cross[0, 0] + cross[1, 1]) + s * (cross[1, 0] - cross[0, 1])
    trace_ref = c * (cross[0, 0] - cross[1, 1]) + s * (cross[0, 1] + cross[1, 0])
    best = max(trace_rot.max(), trace_ref.max())
    sq = np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2 - 2.0 * best
    return float(np.sqrt(max(sq, 0.0)))


# ---- SkewFactor -------------------------------------------------------


def test_skew_factor_mirror_is_exact():
    omega = random_skew("skew", 0, 4)
    mat = SkewFactor.from_matrix(omega).matrix()
    for i in range(4):
        assert mat[i, i] == 0.0
        for j in range(4):
            assert mat[i, j] == -mat[j, i]  # bitwise, not approximate
    assert np.allclose(mat, omega)


def test_skew_factor_rejects_symmetric_part():
    m = random_skew("skew", 1, 3) + 0.01 * np.eye(3)
    with pytest.raises(NotSkew):
        SkewFactor.from_matrix(m)


def test_skew_factor_ignores_upper_triangle_input():
    arr = np.arange(9.0).reshape(3, 3)
    sf = SkewFactor(arr)
    assert np.all(sf.strict_lower == np.tril(arr, k=-1))


# ---- skew Sylvester ---------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sylvester_matches_direct_linear_solve(k):
    for index in range(5):
        a = random_factor("syl-g", index * 10 + k, k + 3, k)
        gram = a.T @ a
        rhs = random_skew("syl-s", index * 10 + k, k)
        omega = solve_skew_sylvester(gram, rhs).matrix()
        oracle = sylvester_by_linear_solve(gram, rhs)
        assert np.linalg.norm(omega - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1.0)


def test_sylvester_residual_bound():
    a = random_factor("syl-res", 0, 8, 4)
    gram = a.T @ a
    rhs = random_skew("syl-res", 0, 4)
    omega = solve_skew_sylvester(gram, rhs).matrix()
    residual = np.linalg.norm(omega @ gram + gram @ omega - rhs)
    budget = 1e-10 * (np.linalg.norm(gram) * np.linalg.norm(omega) + np.linalg.norm(rhs))
    assert residual <= budget


def test_sylvester_rejects_singular_gram():
    gram = np.diag([1.0, 1e-14])
    rhs = random_skew("syl-bad", 0, 2)
    with pytest.raises(GramNotSPD):
        solve_skew_sylvester(gram, rhs)


def test_sylvester_rejects_non_skew_rhs():
    a = random_factor("syl-bad", 1, 4, 2)
    with pytest.raises(NotSkew):
        solve_skew_sylvester(a.T @ a, np.eye(2))


# ---- horizontal projection --------------------------------------------


@pytest.mark.parametrize("n,k", [(4, 2), (8, 3), (6, 1)])
def test_projection_idempotent(n, k):
    u = random_factor("proj-u", n * 10 + k, n, k)
    z = random_factor("proj-z", n * 10 + k, n, k)
    once = horizontal_project(u, z).entries
    twice = horizontal_project(u, once).entries
    assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(z)


def test_projection_kills_vertical_directions():
    u = random_factor("proj-vert", 0, 6, 3)
    omega = random_skew("proj-vert", 0, 3)
    vertical = u @ omega
    proj = horizontal_project(u, vertical).entries
    assert np.linalg.norm(proj) <= 1e-10 * np.linalg.norm(vertical)


def test_projection_is_linear():
    u = random_factor("proj-lin", 0, 5, 2)
    y = random_factor("proj-lin", 1, 5, 2)
    z = random_factor("proj-lin", 2, 5, 2)
    combo = horizontal_project(u, 0.7 * y - 1.3 * z).entries
    split = 0.7 * horizontal_project(u, y).entries - 1.3 * horizontal_project(u, z).entries
    scale = np.linalg.norm(y) + np.linalg.norm(z)
    assert np.linalg.norm(combo - split) <= 1e-10 * scale


def test_projection_orthogonal_to_vertical_space():
    u = random_factor("proj-orth", 0, 7, 3)
    z = random_factor("proj-orth", 1, 7, 3)
    proj = horizontal_project(u, z).entries
    omega = random_skew("proj-orth", 2, 3)
    vertical = u @ omega
    inner = abs(np.vdot(proj, vertical))
    assert inner <= 1e-10 * np.linalg.norm(z) * np.linalg.norm(vertical)


def test_horizontal_tangent_rejects_vertical_direction():
    u = random_factor("ht", 0, 5, 2)
    omega = random_skew("ht", 0, 2)
    with pytest.raises(NotHorizontal):
        HorizontalTangent(u @ omega, u)


# ---- Procrustes distance ----------------------------------------------


def test_procrustes_matches_angle_grid_oracle():
    for index in range(6):
        u = random_factor("proc-u", index, 5, 2)
        v = random_factor("proc-v", index, 5, 2)
        fast = procrustes_distance(u, v)
        slow = procrustes_by_angle_grid(u, v)
        assert abs(fast - slow) <= 1e-4


def test_procrustes_k1_sign_formula():
    u = random_factor("proc-k1", 0, 6, 1)
    v = random_factor("proc-k1", 1, 6, 1)
    expected = min(np.linalg.norm(u - v), np.linalg.norm(u + v))
    assert procrustes_distance(u, v) == pytest.approx(expected, abs=1e-12)


def test_procrustes_zero_on_same_orbit_including_reflections():
    u = random_factor("proc-orbit", 0, 5, 2)
    reflection = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert procrustes_distance(u, u @ reflection) <= 1e-10 * np.linalg.norm(u)


def test_procrustes_align_returns_orthogonal_optimum():
    u = random_factor("proc-align", 0, 6, 3)
    v = random_factor("proc-align", 1, 6, 3)
    dist, q = procrustes_align(u, v)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    assert np.linalg.norm(u - v @ q) == pytest.approx(dist, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(4, 2), (6, 3), (5, 1)]))
def test_procrustes_gauge_invariance(seed, dims):
    n, k = dims
    gen = rng.stream(MASTER, "proc-gauge", seed)
    u = rng.normal(gen, (n, k))
    v = rng.normal(gen, (n, k))
    q, _ = np.linalg.qr(rng.normal(gen, (k, k)))
    assert abs(procrustes_distance(u @ q, v) - procrustes_distance(u, v)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(4, 2), (6, 3)]))
def test_procrustes_triangle_inequality(seed, dims):
    n, k = dims
    gen = rng.stream(MASTER, "proc-tri", seed)
    u = rng.normal(gen, (n, k))
    v = rng.normal(gen, (n, k))
    w = rng.normal(gen, (n, k))
    lhs = procrustes_distance(u, w)
    rhs = procrustes_distance(u, v) + procrustes_distance(v, w)
    assert lhs <= rhs + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_procrustes_never_exceeds_ambient_distance(seed):
    gen = rng.stream(MASTER, "proc-amb", seed)
    u = rng.normal(gen, (5, 2))
    v = rng.normal(gen, (5, 2))
    assert procrustes_distance(u, v) <= np.linalg.norm(u - v) + 1e-12


# ---- horizontal basis --------------------------------------------------


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (5, 1), (8, 2)])
def test_horizontal_basis_size_and_orthonormality(n, k):
    u = random_factor("basis", n * 10 + k, n, k)
    basis = horizontal_basis(u)
    expected = n * k - k * (k - 1) // 2
    assert len(basis) == expected
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.linalg.norm(gram - np.eye(expected)) <= 1e-10


@pytest.mark.parametrize("n,k", [(6, 2), (5, 1), (6, 3)])
def test_horizontal_basis_spans_all_projections(n, k):
    u = random_factor("basis-span", 0, n, k)
    mats = horizontal_basis(u)
    for i in range(n):
        for j in range(k):
            e = np.zeros((n, k))
            e[i, j] = 1.0
            target = horizontal_project(u, e).entries
            coeffs = np.tensordot(mats, target, axes=([1, 2], [0, 1]))
            recon = np.tensordot(coeffs, mats, axes=(0, 0))
            assert np.linalg.norm(recon - target) <= 1e-8
