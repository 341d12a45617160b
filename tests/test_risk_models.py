"""Risk-model tests: analytic formulas against finite differences and
Monte-Carlo expectations, plus container validation and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from landscape_lab import rng
from landscape_lab.errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    NonFiniteEntry,
    ZeroTruthSignal,
)
from landscape_lab.manifold import horizontal_project, procrustes_distance
from landscape_lab.risk_models import (
    MsEmpiricalRisk,
    MsPopulationRisk,
    PhaseProblem,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingEnsemble,
    SensingGroundTruth,
    generate_phase_problem,
    generate_sensing_ensemble,
)
from landscape_lab.spectral import fd_grad_check, fd_hess_check

MASTER = 31415


def default_truth(n=6, r=3, k=2, eigvals=(1.3, 1.0, 0.08), seed=7):
    return SensingGroundTruth.from_random_basis(n, eigvals[:r], k, seed)


def all_models():
    truth = default_truth()
    ensemble = generate_sensing_ensemble(truth, 40, MASTER)
    xstar = np.array([1.2, -0.5, 0.3])
    problem = generate_phase_problem(xstar, 35, MASTER)
    return [
        MsPopulationRisk(truth),
        MsEmpiricalRisk(ensemble),
        PrPopulationRisk(xstar),
        PrEmpiricalRisk(problem),
    ]


def generic_point(model, index=0):
    gen = rng.stream(MASTER, "risk-point", index)
    return rng.normal(gen, model.shape)


# ---- ground truth validation ------------------------------------------


def test_truth_validates_rank_window():
    with pytest.raises(InvalidRank):
        default_truth(r=3, k=1, eigvals=(1.3, 1.0, 0.08))  # k < ceil(r/2)
    with pytest.raises(InvalidRank):
        default_truth(r=3, k=4, eigvals=(1.3, 1.0, 0.08))


def test_truth_validates_spectrum():
    with pytest.raises(ZeroTruthSignal):
        default_truth(eigvals=(1.0, 0.5, 0.0), r=3, k=2)
    with pytest.raises(InvalidConfig):
        SensingGroundTruth(np.eye(4)[:, :2], np.array([1.0, 2.0]), 1)  # increasing


def test_truth_rejects_non_orthonormal_basis():
    w = np.eye(5)[:, :2]
    w[0, 1] = 0.5
    with pytest.raises(InvalidConfig):
        SensingGroundTruth(w, np.array([2.0, 1.0]), 1)


def test_truth_separation_flag_and_kappa():
    truth = default_truth(eigvals=(1.3, 1.0, 0.08))
    assert truth.well_separated  # 0.08 <= 1.0 / 12
    assert truth.kappa == pytest.approx(np.sqrt(1.3))
    bad = default_truth(eigvals=(1.3, 1.0, 0.5))
    assert not bad.well_separated
    full = default_truth(r=3, k=3, eigvals=(1.3, 1.0, 0.5))
    assert full.well_separated  # vacuous at k = r


def test_truth_boundary_multiplicity_classes():
    assert default_truth(eigvals=(1.3, 1.0, 0.08)).boundary_multiplicity == "clean"
    flat = SensingGroundTruth(np.eye(8)[:, :3], np.ones(3), 2)
    assert flat.boundary_multiplicity == "uniform_top"
    mixed = SensingGroundTruth(np.eye(8)[:, :3], np.array([2.0, 1.0, 1.0]), 2)
    assert mixed.boundary_multiplicity == "mixed"


def test_minimum_set_distance_clean_case_is_procrustes():
    truth = default_truth()
    u = generic_point(MsPopulationRisk(truth))
    expected = procrustes_distance(u, truth.canonical_minimum())
    assert truth.minimum_set_distance(u) == pytest.approx(expected, abs=1e-12)


def test_minimum_set_distance_uniform_top():
    # lambda = (1,1,1) with k = 2: minimizers sweep sqrt(lam) E S Q^T over
    # Stiefel S, so every such point is at distance zero and the closed form
    # never exceeds the distance to the canonical representative.
    truth = SensingGroundTruth(np.eye(8)[:, :3], np.ones(3), 2)
    gen = rng.stream(MASTER, "set-dist", 0)
    for index in range(10):
        s, _ = np.linalg.qr(rng.normal(gen, (3, 2)))
        member = truth.eigvecs @ s
        # sqrt of a cancellation-level squared distance: 1e-7 is the floor
        assert truth.minimum_set_distance(member) <= 1e-7
    u = rng.normal(gen, (8, 2))
    closed = truth.minimum_set_distance(u)
    canonical = procrustes_distance(u, truth.canonical_minimum())
    assert closed <= canonical + 1e-12
    # sampled lower bound: no set member sampled at random gets closer
    best = min(
        np.linalg.norm(u - truth.eigvecs @ np.linalg.qr(rng.normal(gen, (3, 2)))[0])
        for _ in range(4000)
    )
    assert closed <= best + 1e-9


# ---- containers and generators ----------------------------------------


def test_ensemble_deterministic_and_seed_sensitive():
    truth = default_truth()
    a = generate_sensing_ensemble(truth, 25, 123)
    b = generate_sensing_ensemble(truth, 25, 123)
    c = generate_sensing_ensemble(truth, 25, 124)
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.measurements, b.measurements)
    assert not np.array_equal(a.raw, c.raw)


def test_ensemble_rejects_bad_measurement_count():
    with pytest.raises(InvalidSampleCount):
        generate_sensing_ensemble(default_truth(), 0, 1)


def test_ensemble_measurements_recomputable():
    # N = 6: M = 30 lies above N(N+1)/2 = 21, M = 12 below, where the Gram
    # matrix of the normal operator is singular
    for m in (30, 12):
        ensemble = generate_sensing_ensemble(default_truth(), m, 99)
        recomputed = ensemble.apply(ensemble.truth.matrix)
        scale = np.linalg.norm(ensemble.measurements)
        assert np.linalg.norm(recomputed - ensemble.measurements) <= 1e-12 * scale
        # energy and normal from the Gram matrix against the direct M-sums
        sym_stack = 0.5 * (ensemble.raw + np.transpose(ensemble.raw, (0, 2, 1)))
        gen = rng.stream(MASTER, "gram-operator", m)
        for _ in range(5):
            g = rng.normal(gen, (6, 6))
            z = g + g.T
            values = ensemble.apply(z)
            direct = float(values @ values)
            assert abs(ensemble.energy(z) - direct) <= 1e-12 * direct
            summed = np.einsum("m,mij->ij", values, sym_stack)
            assert np.linalg.norm(ensemble.normal(z) - summed) <= 1e-12 * np.linalg.norm(
                summed
            )
    # along every eigenvector of the singular Gram matrix at M = 12, null
    # directions included, the energy is a sum of squares and never negative
    flat = sym_stack.reshape(12, 36)
    _, eigvecs = np.linalg.eigh(flat.T @ flat)
    for v in eigvecs.T:
        z = v.reshape(6, 6)
        z = (z + z.T) / np.linalg.norm(z + z.T)
        assert ensemble.energy(z) >= 0.0


def test_ensemble_json_round_trip_is_exact():
    ensemble = generate_sensing_ensemble(default_truth(), 12, 5)
    back = SensingEnsemble.from_json_dict(ensemble.to_json_dict())
    assert np.array_equal(back.raw, ensemble.raw)
    assert np.array_equal(back.measurements, ensemble.measurements)
    assert back.seed == ensemble.seed
    corrupted = ensemble.to_json_dict()
    corrupted["measurements"][3] = float("nan")
    with pytest.raises(NonFiniteEntry):
        SensingEnsemble.from_json_dict(corrupted)
    with pytest.raises(NonFiniteEntry):
        SensingEnsemble(ensemble.truth, ensemble.raw, corrupted["measurements"], 5)
    bad_raw = np.array(ensemble.raw)
    bad_raw[0, 1, 2] = float("nan")
    with pytest.raises(NonFiniteEntry):
        SensingEnsemble(ensemble.truth, bad_raw, ensemble.measurements, 5)


def test_phase_problem_json_round_trip_and_validation():
    problem = generate_phase_problem(np.array([1.0, -1.0]), 10, 3)
    assert np.all(problem.measurements >= 0.0)
    back = PhaseProblem.from_json_dict(problem.to_json_dict())
    assert np.array_equal(back.vectors, problem.vectors)
    corrupted = problem.to_json_dict()
    corrupted["measurements"][3] = float("nan")
    with pytest.raises(NonFiniteEntry):
        PhaseProblem.from_json_dict(corrupted)
    with pytest.raises(NonFiniteEntry):
        PhaseProblem(problem.signal, problem.vectors, corrupted["measurements"], 3)
    # the empirical risk reads x*, not y, so construction rechecks y itself
    with pytest.raises(NonFiniteEntry):
        PhaseProblem(problem.signal, problem.vectors, 1.01 * problem.measurements, 3)
    with pytest.raises(ZeroTruthSignal):
        generate_phase_problem(np.zeros(3), 10, 3)
    with pytest.raises(InvalidSampleCount):
        generate_phase_problem(np.array([1.0]), 0, 3)


def test_phase_risk_is_non_negative_on_its_zero_set():
    # at M = 1 the empirical risk vanishes on the whole line <a, x> = <a, x*>
    problem = generate_phase_problem(np.array([1.0, -1.0]), 1, 2)
    model = PrEmpiricalRisk(problem)
    a = problem.vectors[0]
    foot = (a @ problem.signal) / (a @ a) * a
    a_perp = np.array([-a[1], a[0]])
    for t in np.linspace(-3.0, 3.0, 25):
        assert model.value(foot + t * a_perp) >= 0.0


@pytest.mark.parametrize("m", [1, 3, 35])
@pytest.mark.parametrize("xstar", [(1.0, -1.0), (1.2, -0.5, 0.3)])
def test_phase_gram_form_matches_the_sums_over_measurements(xstar, m):
    xstar = np.array(xstar)
    problem = generate_phase_problem(xstar, m, MASTER)
    model = PrEmpiricalRisk(problem)
    a, y = problem.vectors, problem.measurements
    gen = rng.stream(MASTER, "pr-gram-form", m)
    for spread in (1e-6, 1e-2, 1.0, 3.0):
        x = xstar + spread * rng.normal(gen, xstar.shape)
        d = rng.normal(gen, xstar.shape)
        z = a @ x
        s = float(np.mean(z ** 4 + y ** 2))
        value = 0.5 * float(np.mean((z ** 2 - y) ** 2))
        grad = (2.0 / m) * (a.T @ (z * (z ** 2 - y)))
        hvp = (2.0 / m) * (a.T @ ((3.0 * z ** 2 - y) * (a @ d)))
        assert abs(model.value(x) - value) <= 1e-12 * s
        assert np.linalg.norm(model.euclidean_grad(x) - grad) <= 1e-12 * s ** 0.75
        assert np.linalg.norm(model.hess_vec(x, d) - hvp) <= (
            1e-12 * s ** 0.5 * np.linalg.norm(d)
        )


def test_sensing_operator_is_isotropic_on_rank2_probes():
    # E ||A(Z)||^2 = ||Z||_F^2 for symmetric Z; at M = 10^4 each probe must
    # land within 10 percent.
    truth = default_truth(n=4, r=2, k=1, eigvals=(1.0, 0.4))
    ensemble = generate_sensing_ensemble(truth, 10_000, 2024)
    gen = rng.stream(MASTER, "isotropy", 0)
    for _ in range(50):
        g1 = rng.normal(gen, (4,))
        g2 = rng.normal(gen, (4,))
        probe = np.outer(g1, g1) - np.outer(g2, g2)
        probe /= np.linalg.norm(probe)
        energy = float(np.linalg.norm(ensemble.apply(probe)) ** 2)
        assert 0.9 <= energy <= 1.1


def test_empirical_sensing_risk_matches_population_in_expectation():
    truth = default_truth(n=4, r=2, k=1, eigvals=(1.0, 0.4))
    pop = MsPopulationRisk(truth)
    point = generic_point(pop, index=11)
    trials, m = 200, 50
    values = []
    for t in range(trials):
        seed = rng.subseed(MASTER, "ms-expect", t)
        ensemble = generate_sensing_ensemble(truth, m, seed)
        values.append(MsEmpiricalRisk(ensemble).value(point))
    rel_dev = abs(np.mean(values) - pop.value(point)) / pop.value(point)
    assert rel_dev <= 10.0 / np.sqrt(trials * m)


def test_empirical_phase_risk_matches_population_in_expectation():
    xstar = np.array([0.9, -0.7, 0.2, 0.5])
    pop = PrPopulationRisk(xstar)
    point = generic_point(pop, index=12)
    trials, m = 200, 50
    values = []
    for t in range(trials):
        seed = rng.subseed(MASTER, "pr-expect", t)
        problem = generate_phase_problem(xstar, m, seed)
        values.append(PrEmpiricalRisk(problem).value(point))
    rel_dev = abs(np.mean(values) - pop.value(point)) / pop.value(point)
    assert rel_dev <= 0.2


# ---- derivatives -------------------------------------------------------


@pytest.mark.parametrize("model_index", range(4))
def test_gradients_match_finite_differences(model_index):
    model = all_models()[model_index]
    for index in range(3):
        point = generic_point(model, index)
        check = fd_grad_check(model, point)
        assert check.passed, f"gradient mismatch {check.max_rel_error:.3e}"


@pytest.mark.parametrize("model_index", range(4))
def test_hessians_match_finite_differences(model_index):
    model = all_models()[model_index]
    gen = rng.stream(MASTER, "fd-dir", model_index)
    for index in range(3):
        point = generic_point(model, index)
        direction = rng.normal(gen, model.shape)
        check = fd_hess_check(model, point, direction)
        assert check.passed, f"hessian mismatch {check.max_rel_error:.3e}"


@pytest.mark.parametrize("model_index", range(4))
def test_hess_quadratic_is_the_form_of_hess_vec(model_index):
    model = all_models()[model_index]
    gen = rng.stream(MASTER, "quad-dir", model_index)
    point = generic_point(model, 5)
    dirs, images = [], []
    for _ in range(4):
        direction = rng.normal(gen, model.shape)
        form = model.hess_quadratic(point, direction)
        image = model.hess_vec(point, direction)
        pairing = float(np.vdot(image, direction))
        assert abs(form - pairing) <= 1e-12 * max(abs(form), 1.0)
        dirs.append(direction)
        images.append(image)
    # a stack of directions maps to the stack of their single images
    stacked = model.hess_vec(point, np.stack(dirs))
    assert stacked.shape == (4, *model.shape)
    for got, image in zip(stacked, images):
        assert np.linalg.norm(got - image) <= 1e-13 * np.linalg.norm(image)


@pytest.mark.parametrize("model_index", range(4))
def test_hess_vec_is_self_adjoint(model_index):
    model = all_models()[model_index]
    gen = rng.stream(MASTER, "adjoint-dir", model_index)
    point = generic_point(model, 6)
    for _ in range(4):
        d1 = rng.normal(gen, model.shape)
        d2 = rng.normal(gen, model.shape)
        lhs = float(np.vdot(model.hess_vec(point, d1), d2))
        rhs = float(np.vdot(d1, model.hess_vec(point, d2)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


# ---- symmetries ---------------------------------------------------------


@pytest.mark.parametrize("model_index", [0, 1])
def test_factor_models_are_gauge_invariant(model_index):
    model = all_models()[model_index]
    gen = rng.stream(MASTER, "gauge", model_index)
    u = generic_point(model, 7)
    q, _ = np.linalg.qr(rng.normal(gen, (u.shape[1], u.shape[1])))
    assert model.value(u @ q) == pytest.approx(model.value(u), rel=1e-12)
    rotated = model.euclidean_grad(u @ q)
    pushed = model.euclidean_grad(u) @ q
    assert np.linalg.norm(rotated - pushed) <= 1e-10 * max(np.linalg.norm(pushed), 1.0)


@pytest.mark.parametrize("model_index", [0, 1])
def test_factor_gradient_is_horizontal(model_index):
    model = all_models()[model_index]
    u = generic_point(model, 8)
    grad = model.euclidean_grad(u)
    projected = horizontal_project(u, grad).entries
    assert np.linalg.norm(projected - grad) <= 1e-9 * np.linalg.norm(grad)


@pytest.mark.parametrize("model_index", [2, 3])
def test_phase_models_have_sign_symmetry(model_index):
    model = all_models()[model_index]
    x = generic_point(model, 9)
    assert model.value(-x) == pytest.approx(model.value(x), rel=1e-12)
    assert np.allclose(model.euclidean_grad(-x), -model.euclidean_grad(x), atol=1e-12)


# ---- analytic identities ------------------------------------------------


def test_phase_population_critical_points_are_critical():
    xstar = np.array([1.2, -0.5, 0.3])
    model = PrPopulationRisk(xstar)
    norm = np.linalg.norm(xstar)
    # orthonormal completion gives the saddle directions
    basis = np.linalg.qr(
        np.column_stack([xstar / norm, np.eye(3)[:, :2] + 0.01])
    )[0]
    for point in [np.zeros(3), xstar, -xstar, (norm / np.sqrt(3.0)) * basis[:, 1]]:
        assert np.linalg.norm(model.euclidean_grad(point)) <= 1e-12 * norm ** 3
    assert model.value(xstar) == 0.0


def test_phase_population_1d_closed_form():
    model = PrPopulationRisk(np.array([1.0]))
    for x in np.linspace(-2.0, 2.0, 17):
        expected = 1.5 * (x * x - 1.0) ** 2
        assert model.value(np.array([x])) == pytest.approx(expected, abs=1e-12)


def test_sensing_population_scalar_gradient_reduction():
    # N = k = r = 1 with X = xstar^2 reduces to grad = x^3 - xstar^2 x
    truth = SensingGroundTruth(np.ones((1, 1)), np.array([2.25]), 1)
    model = MsPopulationRisk(truth)
    for x in [0.3, -1.1, 2.0]:
        grad = model.euclidean_grad(np.array([[x]]))[0, 0]
        assert grad == pytest.approx(x ** 3 - 2.25 * x, rel=1e-12)


def test_sensing_population_minimum_is_critical_with_zero_value_at_full_rank():
    truth = default_truth(r=3, k=3, eigvals=(1.3, 1.0, 0.08))
    model = MsPopulationRisk(truth)
    ustar = truth.canonical_minimum()
    assert model.value(ustar) <= 1e-24
    assert np.linalg.norm(model.euclidean_grad(ustar)) <= 1e-12


def test_sensing_population_underparameterized_minimum_value():
    # at k < r the best rank-k fit leaves the tail: g(U*) = sum tail^2 / 4
    truth = default_truth(eigvals=(1.3, 1.0, 0.08))
    model = MsPopulationRisk(truth)
    ustar = truth.canonical_minimum()
    assert np.linalg.norm(model.euclidean_grad(ustar)) <= 1e-12
    assert model.value(ustar) == pytest.approx(0.25 * 0.08 ** 2, rel=1e-10)


def test_model_coercion_rejects_bad_points():
    model = all_models()[0]
    with pytest.raises(DimensionMismatch):
        model.value(np.ones((3, 3)))
    bad = np.ones(model.shape)
    bad[0, 0] = np.inf
    with pytest.raises(NonFiniteEntry):
        model.value(bad)
