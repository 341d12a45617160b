"""Spectral probe tests: dense eigensolves against analytic spectra and the
finite-difference machinery's ability to catch wrong formulas."""

from __future__ import annotations

import numpy as np
import pytest

from landscape_lab import rng
from landscape_lab.errors import NonFiniteEntry
from landscape_lab.manifold import horizontal_basis
from landscape_lab.risk_models import (
    MsPopulationRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_sensing_ensemble,
    MsEmpiricalRisk,
)
from landscape_lab.spectral import (
    dense_euclidean_hessian,
    fd_grad_check,
    fd_hess_check,
    min_eig,
    restricted_hessian,
)

MASTER = 271828

XSTAR = np.array([1.2, -0.5, 0.3])


def separated_truth():
    return SensingGroundTruth(np.eye(8)[:, :3], np.array([1.0, 1.0, 1.0 / 12.0]), 2)


# ---- euclidean probe ---------------------------------------------------


def test_min_eig_matches_dense_oracle_at_random_points():
    model = PrPopulationRisk(XSTAR)
    gen = rng.stream(MASTER, "spec-pts", 0)
    for _ in range(5):
        x = rng.normal(gen, (3,))
        oracle = np.linalg.eigvalsh(model.hess_matrix(x))[0]
        assert min_eig(model, x) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_min_eig_analytic_values_at_phase_critical_points():
    norm2 = float(XSTAR @ XSTAR)
    model = PrPopulationRisk(XSTAR)
    assert min_eig(model, np.zeros(3)) == pytest.approx(-6.0 * norm2, rel=1e-12)
    assert min_eig(model, XSTAR) == pytest.approx(4.0 * norm2, rel=1e-12)
    # saddle direction: any unit w orthogonal to the signal
    w = np.array([0.5, 1.2, 0.0])
    w -= (w @ XSTAR) / norm2 * XSTAR
    w /= np.linalg.norm(w)
    saddle = np.sqrt(norm2 / 3.0) * w
    assert min_eig(model, saddle) == pytest.approx(-4.0 * norm2, rel=1e-10)


def test_min_eig_raises_on_non_finite_hessian():
    class Broken(PrPopulationRisk):
        def hess_vec(self, point, direction):
            out = super().hess_vec(point, direction)
            return out * np.nan

    with pytest.raises(NonFiniteEntry):
        min_eig(Broken(XSTAR), XSTAR)


# ---- horizontal probe ---------------------------------------------------


def test_horizontal_curvature_at_global_minimum():
    # exact value: the smallest horizontal eigenvalue at the top-k minimum
    # equals lambda_k - lambda_{k+1} = 11/12, carried by the tail direction
    # w_{k+1} q^T; verified against an independent basis assembly.
    truth = separated_truth()
    model = MsPopulationRisk(truth)
    lam = min_eig(model, truth.canonical_minimum())
    assert lam == pytest.approx(11.0 / 12.0, rel=1e-10)


def test_horizontal_curvature_at_swap_saddle():
    # swapping the boundary eigendirection into the factor flips the sign:
    # lambda_min = lambda_{k+1} - lambda_k = -11/12
    truth = separated_truth()
    model = MsPopulationRisk(truth)
    saddle = truth.canonical_point([0, 2])
    assert min_eig(model, saddle) == pytest.approx(-11.0 / 12.0, rel=1e-10)


def test_horizontal_equals_euclidean_for_rank_one_factors():
    # at k = 1 the horizontal basis is the identity, so reading width-one
    # factors in ambient coordinates gives the restricted form bit for bit
    truth = SensingGroundTruth(np.eye(4)[:, :1], np.array([2.0]), 1)
    model = MsPopulationRisk(truth)
    u = rng.normal(rng.stream(MASTER, "k1", 0), (4, 1))
    assert np.array_equal(
        restricted_hessian(model, u)[0], dense_euclidean_hessian(model, u)
    )


def test_restricted_hessian_spectrum_matches_closed_form():
    # criterion 2's instance: at the top-k minimum the whole horizontal
    # spectrum is {lambda_i + lambda_j : i <= j <= k} and
    # {lambda_j - lambda_m : j <= k < m <= N}, with lambda_m = 0 for m > r
    truth = SensingGroundTruth.from_random_basis(
        dim=8,
        eigvals=(1.0, 1.0, 1.0 / 12.0),
        target_rank=2,
        seed=rng.subseed(rng.DEFAULT_MASTER_SEED, "acceptance-c2", 0),
    )
    n, k = truth.dim, truth.target_rank
    lam = np.zeros(n)
    lam[: truth.rank] = truth.eigvals
    expected = sorted(
        [lam[i] + lam[j] for i in range(k) for j in range(i, k)]
        + [lam[j] - lam[m] for j in range(k) for m in range(k, n)]
    )
    form, mats = restricted_hessian(MsPopulationRisk(truth), truth.canonical_minimum())
    assert mats.shape == (len(expected), n, k)
    assert np.max(np.abs(np.linalg.eigvalsh(form) - expected)) <= 1e-12


def test_horizontal_minimum_dominates_ambient_minimum():
    truth = separated_truth()
    model = MsPopulationRisk(truth)
    gen = rng.stream(MASTER, "dom", 0)
    for index in range(4):
        u = rng.normal(gen, (8, 2))
        ambient = np.linalg.eigvalsh(dense_euclidean_hessian(model, u))[0]
        assert min_eig(model, u) >= ambient - 1e-9


def test_horizontal_minimum_is_a_rayleigh_lower_bound():
    truth = separated_truth()
    model = MsPopulationRisk(truth)
    gen = rng.stream(MASTER, "rayleigh", 0)
    u = rng.normal(gen, (8, 2))
    lam = min_eig(model, u)
    mats = horizontal_basis(u)
    scale = max(1.0, abs(lam))
    for _ in range(100):
        coeffs = rng.normal(gen, (len(mats),))
        direction = np.tensordot(coeffs, mats, axes=(0, 0))
        quad = model.hess_quadratic(u, direction)
        norm2 = float(np.vdot(direction, direction))
        assert quad >= lam * norm2 - 1e-9 * scale * norm2


def test_horizontal_minimum_is_gauge_invariant():
    truth = separated_truth()
    model = MsPopulationRisk(truth)
    gen = rng.stream(MASTER, "h-gauge", 0)
    u = rng.normal(gen, (8, 2))
    q, _ = np.linalg.qr(rng.normal(gen, (2, 2)))
    a = min_eig(model, u)
    b = min_eig(model, u @ q)
    assert b == pytest.approx(a, rel=1e-8, abs=1e-12)


def test_horizontal_probe_works_on_empirical_risk():
    truth = separated_truth()
    ensemble = generate_sensing_ensemble(truth, 200, 77)
    model = MsEmpiricalRisk(ensemble)
    assert np.isfinite(min_eig(model, truth.canonical_minimum()))


# ---- finite-difference machinery ----------------------------------------


def test_fd_checks_catch_wrong_formulas():
    class WrongGrad(PrPopulationRisk):
        def euclidean_grad(self, point):
            return 1.01 * super().euclidean_grad(point)

    class WrongHess(PrPopulationRisk):
        def hess_vec(self, point, direction):
            return 1.01 * super().hess_vec(point, direction)

    x = rng.normal(rng.stream(MASTER, "fd-meta", 0), (3,))
    assert not fd_grad_check(WrongGrad(XSTAR), x).passed
    assert not fd_hess_check(WrongHess(XSTAR), x, np.ones(3)).passed
    assert fd_grad_check(PrPopulationRisk(XSTAR), x).passed
    assert fd_hess_check(PrPopulationRisk(XSTAR), x, np.ones(3)).passed
