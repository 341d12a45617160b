"""Risk-model tests: analytic formulas against finite differences and
Monte-Carlo expectations, plus container validation and the streamed Gram."""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

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
from landscape_lab.landscape import classify_region_pr, saddle_sphere_distance
from landscape_lab.manifold import horizontal_project, procrustes_distance
from landscape_lab.risk_models import (
    CHUNK,
    MsEmpiricalRisk,
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    RiskModel,
    SensingGroundTruth,
    _gram_factors,
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


def assert_normal_is_root_product(container, gen, n):
    # one product against G = C^T C gives C^T (C vec Z) to 1e-13, on one
    # N x N matrix and on a stack
    root = container.gram_root
    for shape in ((n, n), (4, n, n)):
        z = rng.normal(gen, shape)
        z = z + np.swapaxes(z, -1, -2)
        flat = z.reshape(-1, n * n)
        expected = ((root.T @ (root @ flat.T)).T).reshape(shape)
        got = container.normal(z)
        assert got.shape == shape
        for g, e in zip(got.reshape(-1, n, n), expected.reshape(-1, n, n)):
            assert np.linalg.norm(g - e) <= 1e-13 * np.linalg.norm(e)


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
        assert_normal_is_root_product(ensemble, gen, 6)
    # along every eigenvector of the singular Gram matrix at M = 12, null
    # directions included, the energy is a sum of squares and never negative
    flat = sym_stack.reshape(12, 36)
    _, eigvecs = np.linalg.eigh(flat.T @ flat)
    for v in eigvecs.T:
        z = v.reshape(6, 6)
        z = (z + z.T) / np.linalg.norm(z + z.T)
        assert ensemble.energy(z) >= 0.0


ENSEMBLES = {
    "sensing": lambda m, seed: generate_sensing_ensemble(default_truth(), m, seed),
    "phase": lambda m, seed: generate_phase_problem(np.array([1.0, -1.0]), m, seed),
}


@pytest.mark.parametrize("make", ENSEMBLES.values(), ids=ENSEMBLES)
def test_ensemble_checks_count_and_coerces_ints(make):
    with pytest.raises(InvalidSampleCount):
        make(0, 3)
    ensemble = make(np.int64(10), np.int64(3))
    assert type(ensemble.n_measurements) is int and ensemble.n_measurements == 10
    assert type(ensemble.seed) is int and ensemble.seed == 3


PHASE_SIGNAL_HOLDERS = {
    "generate_phase_problem": lambda x: generate_phase_problem(x, 10, 3),
    "PrPopulationRisk": PrPopulationRisk,
}
# every public entry point that takes a signal, whether it keeps it or not
PHASE_SIGNAL_USERS = {
    **PHASE_SIGNAL_HOLDERS,
    "classify_region_pr": lambda x: classify_region_pr(x, np.ones(np.shape(x))),
    "saddle_sphere_distance": lambda x: saddle_sphere_distance(x, np.ones(np.shape(x))),
}


@pytest.mark.parametrize(
    "signal, error",
    [
        (np.zeros(3), ZeroTruthSignal),
        (np.array([np.nan, 1.0]), NonFiniteEntry),
        (np.ones((2, 2)), ZeroTruthSignal),
    ],
    ids=["zero", "nan", "2d"],
)
@pytest.mark.parametrize("make", PHASE_SIGNAL_USERS.values(), ids=PHASE_SIGNAL_USERS)
def test_phase_signal_rejections(make, signal, error):
    with pytest.raises(error):
        make(signal)


@pytest.mark.parametrize("make", PHASE_SIGNAL_HOLDERS.values(), ids=PHASE_SIGNAL_HOLDERS)
def test_phase_signal_is_a_frozen_float_vector(make):
    signal = make([1, -1]).signal
    assert signal.dtype == float and signal.shape == (2,)
    assert not signal.flags.writeable


def test_phase_measurements_are_nonnegative():
    problem = generate_phase_problem(np.array([1.0, -1.0]), 10, 3)
    assert np.all(problem.measurements >= 0.0)


# ---- streamed Gram accumulation ----------------------------------------


def array_field_bytes(container) -> int:
    return sum(
        getattr(container, f.name).nbytes
        for f in dataclasses.fields(container)
        if isinstance(getattr(container, f.name), np.ndarray)
    )


def test_ensembles_keep_no_array_that_grows_with_m():
    truth = default_truth()
    xstar = np.array([1.2, -0.5, 0.3])
    small, large = 10, 10 * CHUNK + 1
    assert array_field_bytes(generate_sensing_ensemble(truth, small, 8)) == (
        array_field_bytes(generate_sensing_ensemble(truth, large, 8))
    )
    assert array_field_bytes(generate_phase_problem(xstar, small, 8)) == (
        array_field_bytes(generate_phase_problem(xstar, large, 8))
    )


PEAK_RSS_SCRIPT = """
import resource, sys
import numpy as np
from landscape_lab.risk_models import generate_phase_problem
generate_phase_problem(np.array([1.0, -1.0]), int(sys.argv[1]), 7)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_kb(n_measurements: int) -> int:
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, str(n_measurements)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return int(done.stdout.split()[-1])


def test_phase_problem_peak_memory_is_flat_in_m():
    # a one-shot draw at M = 3e6 would hold 48 MB of vectors and a 96 MB
    # stack of their outer products
    small = peak_rss_kb(10_000)
    large = peak_rss_kb(3_000_000)
    assert large <= 1.1 * small, (small, large)


def test_sensing_gram_sum_holds_a_block_and_the_next_uniforms():
    # each block is scaled and symmetrized in the memory its uniforms were
    # drawn into, and let go once its product is summed: at most the last
    # block and the next one's uniforms are alive (a copy per step read 5.1)
    n = 8
    block = CHUNK * n * n * 8
    truth = SensingGroundTruth.from_random_basis(n, (1.3, 1.0, 0.08), 2, 7)
    m = 3 * CHUNK + 5
    generate_sensing_ensemble(truth, m, 24)
    tracemalloc.start()
    try:
        generate_sensing_ensemble(truth, m, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * block, peak / block


def test_every_block_of_the_draw_is_new_memory():
    # raw, measurements and apply keep or read every block, so no block may
    # be drawn into the memory of another
    truth = default_truth(n=3, r=2, k=1, eigvals=(1.0, 0.4))
    blocks = list(generate_sensing_ensemble(truth, 3 * CHUNK + 5, 26)._raw_blocks())
    problem = generate_phase_problem(np.array([1.2, -0.5, 0.3]), 3 * CHUNK + 5, 26)
    for stack in (blocks, list(problem._vector_blocks())):
        assert len(stack) == 4
        for i, first in enumerate(stack):
            for second in stack[i + 1 :]:
                assert not np.shares_memory(first, second)


def test_regenerated_draw_is_the_one_shot_draw():
    # 2.5 blocks: two full ones and a ragged last one
    m = 5 * CHUNK // 2
    truth = default_truth(n=3, r=2, k=1, eigvals=(1.0, 0.4))
    ensemble = generate_sensing_ensemble(truth, m, 21)
    one_shot = rng.normal(rng.stream(21, "sensing-ensemble", 0), (m, 3, 3)) / np.sqrt(m)
    assert np.array_equal(ensemble.raw, one_shot)
    problem = generate_phase_problem(np.array([1.2, -0.5, 0.3]), m, 21)
    one_shot = rng.normal(rng.stream(21, "phase-problem", 0), (m, 3))
    assert np.array_equal(problem.vectors, one_shot)


def one_shot_grams(m: int, seed: int):
    # the Gram matrices of both ensembles from the whole draw at once
    truth = default_truth(n=3, r=2, k=1, eigvals=(1.0, 0.4))
    raw = rng.normal(rng.stream(seed, "sensing-ensemble", 0), (m, 3, 3)) / np.sqrt(m)
    stack = (raw + np.transpose(raw, (0, 2, 1))).reshape(m, 9)
    a = rng.normal(rng.stream(seed, "phase-problem", 0), (m, 3))
    outer = (a[:, :, None] * a[:, None, :]).reshape(m, 9)
    return (
        (generate_sensing_ensemble(truth, m, seed), _gram_factors(0.25 * (stack.T @ stack))),
        (
            generate_phase_problem(np.array([1.2, -0.5, 0.3]), m, seed),
            _gram_factors((outer.T @ outer) / m),
        ),
    )


@pytest.mark.parametrize("m", [1, 45, CHUNK])
def test_gram_is_the_one_shot_gram_bit_for_bit_within_one_block(m):
    for container, (root, gram) in one_shot_grams(m, 22):
        assert np.array_equal(container.gram_root, root)
        assert np.array_equal(container.gram, gram)


@pytest.mark.parametrize("m", [CHUNK + 1, 5 * CHUNK // 2, 4 * CHUNK])
def test_gram_summed_over_blocks_is_the_one_shot_gram_to_rounding(m):
    for container, (_, gram) in one_shot_grams(m, 23):
        assert np.linalg.norm(container.gram - gram) <= 1e-13 * np.linalg.norm(gram)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_phase_risk_rejects_non_finite_signal(bad):
    with pytest.raises(NonFiniteEntry):
        PrPopulationRisk(np.array([bad, 1.0]))


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
    assert_normal_is_root_product(problem, gen, xstar.shape[0])


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


# ---- the shared quartic form against closed forms ------------------------


def ms_closed_form(model, u, d):
    """Value, gradient and Hessian action of 1/4 <R, N(R)> written out: N is
    the identity, or sum_m <A_m, .> A_m over the regenerated draw."""
    residual = u @ u.T - model.truth.matrix
    sym = u @ d.T + d @ u.T
    if isinstance(model, MsPopulationRisk):
        normal_r, normal_sym = residual, sym
        value = 0.25 * float(np.sum(residual * residual))
    else:
        raw = model.ensemble.raw
        a = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        along_r = np.einsum("mij,ij->m", a, residual)
        normal_r = np.einsum("m,mij->ij", along_r, a)
        normal_sym = np.einsum("m,mij->ij", np.einsum("mij,ij->m", a, sym), a)
        value = 0.25 * float(along_r @ along_r)
    return value, normal_r @ u, normal_sym @ u + normal_r @ d


def pr_closed_form(model, x, d):
    """The phase risks written out: the population risk's polynomial, or
    the sums over the regenerated measurements."""
    xs = model.signal
    if isinstance(model, PrPopulationRisk):
        nx2, ns2, cross = x @ x, xs @ xs, x @ xs
        value = nx2 ** 2 + ns2 ** 2 - 2.0 * cross ** 2 + 0.5 * (nx2 - ns2) ** 2
        grad = 6.0 * nx2 * x - 2.0 * ns2 * x - 4.0 * cross * xs
        hvp = 12.0 * (x @ d) * x - 4.0 * (xs @ d) * xs + (6.0 * nx2 - 2.0 * ns2) * d
        return value, grad, hvp
    a, y = model.problem.vectors, model.problem.measurements
    m = model.problem.n_measurements
    z = a @ x
    value = 0.5 * float(np.mean((z ** 2 - y) ** 2))
    grad = (2.0 / m) * (a.T @ (z * (z ** 2 - y)))
    hvp = (2.0 / m) * (a.T @ ((3.0 * z ** 2 - y) * (a @ d)))
    return value, grad, hvp


@pytest.mark.parametrize("model_index", range(4))
def test_the_form_matches_the_closed_forms(model_index):
    model = all_models()[model_index]
    closed_form = ms_closed_form if model.is_factor else pr_closed_form
    gen = rng.stream(MASTER, "closed-form", model_index)
    for index in range(6):
        point = 0.5 * index * rng.normal(gen, model.shape)
        direction = rng.normal(gen, model.shape)
        value, grad, hvp = closed_form(model, point, direction)
        quad = float(np.vdot(hvp, direction))
        got = (
            model.value(point),
            model.euclidean_grad(point),
            model.hess_vec(point, direction),
            model.hess_quadratic(point, direction),
        )
        for got_one, want in zip(got, (value, grad, hvp, quad)):
            scale = max(float(np.linalg.norm(want)), 1.0)
            assert np.linalg.norm(got_one - want) <= 1e-13 * scale


def test_each_risk_class_holds_the_shared_methods():
    # the benchmark's tracer wraps these in each class's own __dict__
    for cls in (MsPopulationRisk, MsEmpiricalRisk, PrPopulationRisk, PrEmpiricalRisk):
        for name in ("value", "euclidean_grad", "hess_vec"):
            assert vars(cls)[name] is vars(RiskModel)[name], (cls, name)


def test_a_subclass_override_survives_the_binding():
    class Doubled(PrPopulationRisk):
        def euclidean_grad(self, point):
            return 2.0 * super().euclidean_grad(point)

    class Child(Doubled):
        pass

    xstar, x = np.array([1.2, -0.5, 0.3]), np.array([0.3, -1.2, 0.8])
    base = PrPopulationRisk(xstar).euclidean_grad(x)
    assert (Child(xstar).euclidean_grad(x) == 2.0 * base).all()


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


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "neg_inf"])
@pytest.mark.parametrize("model_index", range(4))
def test_derivatives_reject_non_finite_points(model_index, bad):
    model = all_models()[model_index]
    point = generic_point(model)
    point.flat[-1] = bad
    direction = generic_point(model, 1)
    with pytest.raises(NonFiniteEntry):
        model.euclidean_grad(point)
    with pytest.raises(NonFiniteEntry):
        model.hess_vec(point, direction)


@pytest.mark.parametrize("model_index", range(4))
def test_hessians_reject_misshapen_directions(model_index):
    # without the check these are a raw reshape or broadcast error, or a
    # silent reshape of the direction
    model = all_models()[model_index]
    point = generic_point(model)
    points = np.stack([point, generic_point(model, 1)])
    wide = (*model.shape[:-1], model.shape[-1] + 1)
    cases = [
        (point, np.ones(wide)),
        (point, np.ones((4, *wide))),
        (points, np.ones((2, *wide))),
        (points, np.ones((3, *model.shape))),
        (points, np.ones((3, 4, *model.shape))),
    ]
    for at, direction in cases:
        with pytest.raises(DimensionMismatch, match="direction shape"):
            model.hess_vec(at, direction)
    for direction in (np.ones(wide), np.ones((2, *model.shape))):
        with pytest.raises(DimensionMismatch, match="direction shape"):
            model.hess_quadratic(point, direction)


@pytest.mark.parametrize("model_index", range(4))
def test_derivatives_reject_misshapen_points(model_index):
    model = all_models()[model_index]
    point = np.ones(int(np.prod(model.shape)) + 1)
    direction = generic_point(model, 1)
    with pytest.raises(DimensionMismatch):
        model.euclidean_grad(point)
    with pytest.raises(DimensionMismatch):
        model.hess_vec(point, direction)
