"""Spectral probe tests: dense eigensolves against analytic spectra and the
finite-difference machinery's ability to catch wrong formulas."""

from __future__ import annotations

import numpy as np
import pytest

from landscape_lab import rng
from landscape_lab.errors import DimensionMismatch, GramNotSPD, NonFiniteEntry
from landscape_lab.landscape import GRADIENT_FLOOR, _check_values
from landscape_lab.manifold import horizontal_basis, item_norms
from landscape_lab.risk_models import (
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_phase_problem,
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


def test_dense_hessian_matches_fresh_basis_across_shapes():
    # the cached canonical stack gives the bits of a freshly built one, for
    # two shapes called in alternation
    truth = separated_truth()
    models = [
        (PrPopulationRisk(XSTAR), XSTAR + 0.3),
        (MsPopulationRisk(truth), truth.canonical_minimum() + 0.05),
    ]
    for _ in range(2):
        for model, point in models:
            n = int(np.prod(model.shape))
            images = model.hess_vec(point, np.eye(n).reshape(n, *model.shape))
            rows = images.reshape(n, n)
            fresh = 0.5 * (rows + rows.T)
            assert np.array_equal(dense_euclidean_hessian(model, point), fresh)


def test_dense_hessian_basis_is_read_only():
    class Scribbler(PrPopulationRisk):
        def hess_vec(self, point, direction):
            direction[...] = 7.0
            return super().hess_vec(point, direction)

    point = XSTAR + 0.3
    clean = dense_euclidean_hessian(PrPopulationRisk(XSTAR), point)
    with pytest.raises(ValueError):
        dense_euclidean_hessian(Scribbler(XSTAR), point)
    assert np.array_equal(dense_euclidean_hessian(PrPopulationRisk(XSTAR), point), clean)


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


# ---- stacks of points -----------------------------------------------------
#
# The region checks evaluate min_eig and the gradient norm on stacks of
# samples. Every item must equal the single-point value bit for bit, so the
# comparisons below use ==, not a tolerance.

# label -> (model factory, point scale): MS at k = 1, 2, 3 and PR at n = 1, 3
STACK_CASES = {
    "ms-k1": (
        lambda: MsPopulationRisk(
            SensingGroundTruth.from_random_basis(8, (1.0,), 1, seed=5)
        ),
        1.0,
    ),
    "ms-k2": (lambda: MsPopulationRisk(separated_truth()), 1.0),
    "ms-k3": (
        lambda: MsPopulationRisk(
            SensingGroundTruth.from_random_basis(6, (1.5, 1.0, 0.7, 0.05), 3, seed=6)
        ),
        1.0,
    ),
    "pr-n1": (lambda: PrPopulationRisk(np.array([0.8])), 1.5),
    "pr-n3": (lambda: PrPopulationRisk(XSTAR), 1.5),
    "ms-empirical-k2": (
        lambda: MsEmpiricalRisk(generate_sensing_ensemble(separated_truth(), 50, 3)),
        1.0,
    ),
    "pr-empirical-n3": (
        lambda: PrEmpiricalRisk(generate_phase_problem(XSTAR, 50, 3)),
        1.5,
    ),
}


def stack_case(label, size=150):
    make, scale = STACK_CASES[label]
    model = make()
    gen = rng.stream(MASTER, f"stack-{label}", 0)
    return model, scale * rng.normal(gen, (size, *model.shape))


@pytest.mark.parametrize("label", list(STACK_CASES))
def test_min_eig_on_a_stack_is_per_point_bit_for_bit(label):
    model, points = stack_case(label)
    stacked = min_eig(model, points)
    assert stacked.shape == (len(points),)
    assert (stacked == np.array([min_eig(model, p) for p in points])).all()


@pytest.mark.parametrize("label", list(STACK_CASES))
def test_gradient_norms_on_a_stack_are_per_point_bit_for_bit(label):
    model, points = stack_case(label)
    per_point = np.array([float(np.linalg.norm(model.euclidean_grad(p))) for p in points])
    grads = model.euclidean_grad(points)
    assert (grads == np.array([model.euclidean_grad(p) for p in points])).all()
    assert (item_norms(grads, len(model.shape)) == per_point).all()
    assert (_check_values(model, GRADIENT_FLOOR, points) == per_point).all()


@pytest.mark.parametrize("label", ["ms-k1", "ms-k2", "ms-k3"])
def test_horizontal_basis_on_a_stack_is_per_point_bit_for_bit(label):
    model, points = stack_case(label, size=40)
    stacked = horizontal_basis(points)
    assert stacked.shape[:2] == (len(points), len(horizontal_basis(points[0])))
    assert (stacked == np.array([horizontal_basis(p) for p in points])).all()


def test_horizontal_basis_gates_each_point_of_a_stack():
    _, points = stack_case("ms-k2", size=5)
    points[3, :, 1] = 2.0 * points[3, :, 0]  # rank one: U^T U is singular
    with pytest.raises(GramNotSPD):
        horizontal_basis(points)
    points[3, 0, 0] = np.nan
    with pytest.raises(NonFiniteEntry):
        horizontal_basis(points)


def test_empirical_risks_take_a_stack_of_points():
    # each point's normal is a product of its own, so a stack gives the
    # single-point bits; value still takes one point
    gen = rng.stream(MASTER, "empirical-stack", 0)
    for label in ("ms-empirical-k2", "pr-empirical-n3"):
        model, points = stack_case(label, size=6)
        directions = rng.normal(gen, (6, 4, *model.shape))
        images = model.hess_vec(points, directions)
        for point, dirs, image in zip(points, directions, images):
            assert (image == model.hess_vec(point, dirs)).all()
        with pytest.raises(DimensionMismatch):
            model.value(points)
        with pytest.raises(DimensionMismatch):
            model.euclidean_grad(points.reshape(2, 3, *model.shape))


@pytest.mark.parametrize("label", ["ms-k2", "pr-n3"])
def test_population_risks_take_one_stack_axis_only(label):
    model, points = stack_case(label, size=6)
    with pytest.raises(DimensionMismatch):
        model.euclidean_grad(points.reshape(2, 3, *model.shape))
    with pytest.raises(DimensionMismatch):
        model.value(points)
