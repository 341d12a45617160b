"""Acceptance suite: one test per headline guarantee, one printed line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Every test pins the default master seed so reruns are bitwise
comparable. Criterion 2 checks the closed-form horizontal curvature at the
population fixed points: lambda_min = lambda_k - lambda_{k+1} at the top-k
minimum, witnessed by the direction w_{k+1} e_k^T, and
lambda_{k+1} - lambda_k at the swap saddle.
"""

import time

import numpy as np
import pytest

from landscape_lab import experiments, rng
from landscape_lab.critical_points import (
    KIND_MIN,
    analytic_critical_points_ms,
    analytic_critical_points_pr,
    find_critical_points,
    grid_seed_points,
    match_correspondence,
)
from landscape_lab.landscape import (
    AssumptionConfig,
    PR_R2_CURVATURE_FLOOR,
    PR_R4_GRAD_FLOOR,
    RegionSamplerConfig,
    check_assumptions,
    default_phase_assumption_config,
    estimate_rip,
    verify_region_bounds_ms,
    verify_region_bounds_pr,
)
from landscape_lab.manifold import (
    horizontal_project,
    procrustes_distance,
    solve_skew_sylvester,
)
from landscape_lab.risk_models import (
    MsEmpiricalRisk,
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_phase_problem,
    generate_sensing_ensemble,
)
from landscape_lab.spectral import (
    dense_euclidean_hessian,
    fd_grad_check,
    fd_hess_check,
    min_eig,
)

MASTER = rng.DEFAULT_MASTER_SEED
XSTAR_PLANE = np.array([1.0, -1.0])


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


def elapsed_since(t0: float) -> float:
    return time.perf_counter() - t0


def test_criterion_1_eigenvalue_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5):
        gen = rng.stream(MASTER, "acceptance-c1", n)
        xstar = rng.normal(gen, (n,))
        norm2 = float(xstar @ xstar)
        model = PrPopulationRisk(xstar)
        refs = analytic_critical_points_pr(xstar)
        saddle = next(
            p
            for p in refs
            if abs(np.linalg.norm(p) - np.sqrt(norm2 / 3.0)) < 1e-9 * np.sqrt(norm2)
        )
        for point, target in (
            (np.zeros(n), -6.0 * norm2),
            (xstar, 4.0 * norm2),
            (-xstar, 4.0 * norm2),
            (saddle, -4.0 * norm2),
        ):
            lam = float(np.linalg.eigvalsh(dense_euclidean_hessian(model, point))[0])
            worst = max(worst, abs(lam - target) / abs(target))
    dt = elapsed_since(t0)
    ok = worst <= 1e-8 and dt < 1.0
    assert report(
        1,
        ok,
        f"curvature identities at 0/+-x*/saddle, N in 2,3,5, "
        f"max rel err {worst:.2e} <= 1e-8, {dt:.2f}s",
    )


def test_criterion_2_fixed_point_curvature_bounds():
    t0 = time.perf_counter()
    truth = SensingGroundTruth.from_random_basis(
        dim=8,
        eigvals=(1.0, 1.0, 1.0 / 12.0),
        target_rank=2,
        seed=rng.subseed(MASTER, "acceptance-c2", 0),
    )
    model = MsPopulationRisk(truth)
    k = truth.target_rank
    gap = float(truth.eigvals[k - 1] - truth.eigvals[k])
    minimum = truth.canonical_minimum()
    at_minimum = min_eig(model, minimum)
    at_saddle = min_eig(model, truth.canonical_point((0, 2)))
    # Witness, independent of min_eig: the unit tail direction
    # D = w_{k+1} e_k^T is horizontal at U* (U*^T D = 0), and its Rayleigh
    # quotient 1/2 |U* D^T + D U*^T|^2 + <U* U*^T - X, D D^T> equals
    # lambda_k - lambda_{k+1}.
    witness = np.zeros_like(minimum)
    witness[:, k - 1] = truth.eigvecs[:, k]
    vertical = float(np.linalg.norm(minimum.T @ witness))
    rayleigh = float(np.vdot(model.hess_vec(minimum, witness), witness))
    dt = elapsed_since(t0)
    min_ok = at_minimum == pytest.approx(gap, rel=1e-10)
    witness_ok = (
        vertical <= 1e-12
        and rayleigh == pytest.approx(gap, rel=1e-10)
        and at_minimum <= rayleigh + 1e-12
    )
    saddle_ok = at_saddle == pytest.approx(-gap, rel=1e-10)
    ok = min_ok and witness_ok and saddle_ok and dt < 5.0
    assert report(
        2,
        ok,
        f"min_eig(U*) = {at_minimum:.6f} vs lambda_k - lambda_(k+1) = "
        f"{gap:.6f} [{'ok' if min_ok else 'violated'}]; witness w_(k+1) e_k^T "
        f"Rayleigh {rayleigh:.6f} [{'ok' if witness_ok else 'violated'}]; "
        f"saddle {at_saddle:.6f} vs lambda_(k+1) - lambda_k = {-gap:.6f} "
        f"[{'ok' if saddle_ok else 'violated'}], rel 1e-10, {dt:.2f}s",
    )


def test_criterion_3_region_property_suites():
    t0 = time.perf_counter()
    config = RegionSamplerConfig(n_per_region=500, seed=MASTER)
    truth = SensingGroundTruth.from_random_basis(
        dim=8, eigvals=(1.3, 1.0, 0.08), target_rank=2, seed=11
    )
    rep_ms = verify_region_bounds_ms(truth, config)
    rep_pr = verify_region_bounds_pr(np.array([1.2, -0.5, 0.3]), config)
    dt = elapsed_since(t0)
    full = all(
        (not c.skipped) and c.n_sampled == 500
        for c in rep_ms.checks + rep_pr.checks
    )
    ok = (
        rep_ms.all_clear
        and rep_pr.all_clear
        and not rep_ms.violations
        and not rep_pr.violations
        and full
        and dt < 60.0
    )
    assert report(
        3,
        ok,
        f"500 samples x {len(rep_ms.checks)}+{len(rep_pr.checks)} regions, "
        f"violations {len(rep_ms.violations)}+{len(rep_pr.violations)}, {dt:.1f}s",
    )


def test_criterion_4_derivative_oracles():
    t0 = time.perf_counter()
    xstar = np.array([1.2, -0.5, 0.3])
    truth = SensingGroundTruth.from_random_basis(
        dim=5, eigvals=(1.3, 1.0, 0.08), target_rank=2, seed=7
    )
    models = (
        PrPopulationRisk(xstar),
        PrEmpiricalRisk(
            generate_phase_problem(xstar, 40, seed=rng.subseed(MASTER, "acceptance-c4", 0))
        ),
        MsPopulationRisk(truth),
        MsEmpiricalRisk(
            generate_sensing_ensemble(truth, 60, seed=rng.subseed(MASTER, "acceptance-c4", 1))
        ),
    )
    worst_grad = worst_hess = 0.0
    for idx, model in enumerate(models):
        gen = rng.stream(MASTER, "acceptance-c4-points", idx)
        for _ in range(50):
            scale = 0.5 + 1.5 * float(rng.uniform(gen))
            point = scale * rng.normal(gen, model.shape)
            direction = rng.normal(gen, model.shape)
            grad_check = fd_grad_check(model, point, tol=1e-5)
            hess_check = fd_hess_check(model, point, direction, tol=1e-4)
            worst_grad = max(worst_grad, grad_check.max_rel_error)
            worst_hess = max(worst_hess, hess_check.max_rel_error)
    dt = elapsed_since(t0)
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-4 and dt < 30.0
    assert report(
        4,
        ok,
        f"4 models x 50 points: grad rel err {worst_grad:.2e} <= 1e-5, "
        f"hess_vec rel err {worst_hess:.2e} <= 1e-4, {dt:.1f}s",
    )


def test_criterion_5_manifold_correctness():
    t0 = time.perf_counter()
    gen = rng.stream(MASTER, "acceptance-c5", 0)
    worst_proj = worst_sylvester = worst_orbit = 0.0

    for _ in range(20):
        u = rng.normal(gen, (5, 2))
        z1 = rng.normal(gen, (5, 2))
        z2 = rng.normal(gen, (5, 2))
        p1 = horizontal_project(u, z1).entries
        p2 = horizontal_project(u, z2).entries
        # idempotent
        worst_proj = max(
            worst_proj, float(np.linalg.norm(horizontal_project(u, p1).entries - p1))
        )
        # orthogonal split: residual against the projection, and against
        # an explicit vertical direction U Omega
        worst_proj = max(worst_proj, abs(float(np.vdot(z1 - p1, p1))))
        omega = rng.normal(gen, (2, 2))
        omega = omega - omega.T
        worst_proj = max(worst_proj, abs(float(np.vdot(p1, u @ omega))))
        # linear
        a, b = 0.7, -1.3
        combined = horizontal_project(u, a * z1 + b * z2).entries
        worst_proj = max(
            worst_proj, float(np.linalg.norm(combined - a * p1 - b * p2))
        )
        # Sylvester residual on the same data
        gram = u.T @ u
        rhs = u.T @ z1 - z1.T @ u
        skew = solve_skew_sylvester(gram, rhs).matrix()
        worst_sylvester = max(
            worst_sylvester,
            float(np.linalg.norm(gram @ skew + skew @ gram - rhs)),
        )
        # gauge invariance
        q, _ = np.linalg.qr(rng.normal(gen, (2, 2)))
        worst_orbit = max(worst_orbit, procrustes_distance(u, u @ q))

    # brute-force O(2) sweep for the k=2 Procrustes distance
    angles = np.linspace(0.0, 2.0 * np.pi, 20001)
    cos, sin = np.cos(angles), np.sin(angles)
    rotations = np.stack(
        [np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2
    )
    reflections = rotations.copy()
    reflections[..., 1] *= -1.0
    worst_brute = 0.0
    for _ in range(5):
        a = rng.normal(gen, (5, 2))
        b = rng.normal(gen, (5, 2))
        best = np.inf
        for family in (rotations, reflections):
            aligned = np.einsum("ij,ajk->aik", b, family)
            best = min(best, float(np.min(np.linalg.norm(a - aligned, axis=(1, 2)))))
        worst_brute = max(worst_brute, abs(procrustes_distance(a, b) - best))

    dt = elapsed_since(t0)
    ok = (
        worst_proj <= 1e-10
        and worst_sylvester <= 1e-10
        and worst_brute <= 1e-4
        and worst_orbit <= 1e-10
        and dt < 10.0
    )
    assert report(
        5,
        ok,
        f"projection residuals {worst_proj:.1e} <= 1e-10, sylvester "
        f"{worst_sylvester:.1e} <= 1e-10, brute-force procrustes gap "
        f"{worst_brute:.1e} <= 1e-4, orbit distance {worst_orbit:.1e} <= 1e-10, "
        f"{dt:.1f}s",
    )


def test_criterion_6_critical_point_completeness():
    t0 = time.perf_counter()
    seeds = grid_seed_points(-2.0, 2.0, 0.1, 2)

    pr_model = PrPopulationRisk(XSTAR_PLANE)
    pr_search = find_critical_points(pr_model, seeds)
    pr_refs = analytic_critical_points_pr(XSTAR_PLANE)
    pr_match = max(
        min(float(np.linalg.norm(r.location - ref)) for ref in pr_refs)
        for r in pr_search.records
    )

    norm = float(np.linalg.norm(XSTAR_PLANE))
    truth = SensingGroundTruth(
        eigvecs=(XSTAR_PLANE / norm).reshape(-1, 1),
        eigvals=np.array([norm**2]),
        target_rank=1,
    )
    ms_model = MsPopulationRisk(truth)
    ms_search = find_critical_points(ms_model, [s.reshape(2, 1) for s in seeds])
    ms_refs = analytic_critical_points_ms(truth, include_signs=True)
    ms_match = max(
        min(float(np.linalg.norm(r.location - ref)) for ref in ms_refs)
        for r in ms_search.records
    )

    grads = [r.grad_norm for r in pr_search.records + ms_search.records]
    dt = elapsed_since(t0)
    ok = (
        len(pr_search.records) == 5
        and len(ms_search.records) == 3
        and max(grads) <= 1e-8
        and pr_match <= 1e-6
        and ms_match <= 1e-6
        and dt < 30.0
    )
    assert report(
        6,
        ok,
        f"{len(pr_search.records)} phase + {len(ms_search.records)} sensing "
        f"points, grad <= {max(grads):.1e}, analytic match "
        f"{max(pr_match, ms_match):.1e}, {dt:.1f}s",
    )


def test_criterion_7_distance_trend(tmp_path):
    t0 = time.perf_counter()
    sweep = experiments.run(
        experiments.ExperimentConfig(
            experiment="ms_rank2_dist",
            m=(50, 400),
            trials=20,
            master_seed=MASTER,
            out=str(tmp_path / "sweep"),
            fmt="json",
        )
    )
    large = experiments.run(
        experiments.ExperimentConfig(
            experiment="ms_rank2_dist",
            m=(4000,),
            trials=5,
            master_seed=MASTER,
            out=str(tmp_path / "large"),
            fmt="json",
        )
    )
    mean_50 = sweep.summary["means"]["50"]
    mean_400 = sweep.summary["means"]["400"]
    mean_4000 = large.summary["means"]["4000"]
    dt = elapsed_since(t0)
    ok = mean_400 < mean_50 and mean_4000 <= 0.05 and dt < 300.0
    assert report(
        7,
        ok,
        f"minimum-set distance means: M=50 {mean_50:.4f} > M=400 {mean_400:.4f}, "
        f"M=4000 {mean_4000:.4f} <= 0.05, {dt:.1f}s",
    )


def test_criterion_8_empirical_minima_correspondence():
    t0 = time.perf_counter()
    problem = generate_phase_problem(
        XSTAR_PLANE, 10, seed=rng.subseed(MASTER, "pr2d-m10", 0)
    )
    model = PrEmpiricalRisk(problem)
    search = find_critical_points(model, grid_seed_points(-2.0, 2.0, 0.1, 2))
    minima = search.of_kind(KIND_MIN)
    saddles = [r for r in search.records if r.kind != KIND_MIN]

    norm = float(np.linalg.norm(XSTAR_PLANE))
    epsilon = PR_R4_GRAD_FLOOR * norm**3  # unit-scale deviation heuristic
    eta = PR_R2_CURVATURE_FLOOR * norm**2
    match = match_correspondence(
        [r.location for r in minima],
        [XSTAR_PLANE, -XSTAR_PLANE],
        epsilon=epsilon,
        eta=eta,
    )
    dt = elapsed_since(t0)
    within = all(d <= match.heuristic_bound for _, _, d in match.pairs)
    ok = len(match.pairs) == 2 and not match.missed and within and dt < 60.0
    assert report(
        8,
        ok,
        f"matched {len(match.pairs)}/2 population minima within "
        f"2*eps/eta = {match.heuristic_bound:.2f}; tolerated "
        f"{len(match.spurious)} spurious minima and {len(saddles)} saddles, "
        f"{dt:.1f}s",
    )


def _inversions(sequence):
    count = 0
    for prev, nxt in zip(sequence, sequence[1:]):
        if nxt > prev:
            count += 1
            if nxt > 1.05 * prev:
                return count, True
    return count, False


def test_criterion_9_concentration_monotonicity():
    t0 = time.perf_counter()
    signal = np.array([1.0, -1.0, 1.0, -1.0])
    pop = PrPopulationRisk(signal)
    defaults = default_phase_assumption_config(signal)
    grad_means, hess_means = [], []
    for m in (50, 200, 800):
        grads, hesses = [], []
        for s in range(10):
            emp = PrEmpiricalRisk(
                generate_phase_problem(
                    signal, m, seed=rng.subseed(MASTER, f"acc9-m{m}", s)
                )
            )
            rep = check_assumptions(
                pop,
                emp,
                AssumptionConfig(
                    epsilon=defaults.epsilon,
                    eta=defaults.eta,
                    ball_radius=defaults.ball_radius,
                    n_samples=250,
                    seed=rng.subseed(MASTER, f"acc9-ball-m{m}", s),
                ),
            )
            grads.append(rep.sup_grad_diff_est)
            hesses.append(rep.sup_hess_diff_est)
        grad_means.append(float(np.mean(grads)))
        hess_means.append(float(np.mean(hesses)))

    truth = SensingGroundTruth(
        eigvecs=np.eye(4)[:, :1], eigvals=np.ones(1), target_rank=1
    )
    deltas = []
    for m in (100, 400, 1600):
        vals = []
        for s in range(10):
            ensemble = generate_sensing_ensemble(
                truth, m, seed=rng.subseed(MASTER, f"acc9-rip-m{m}", s)
            )
            vals.append(
                estimate_rip(
                    ensemble,
                    rank_bound=2,
                    n_probes=300,
                    seed=rng.subseed(MASTER, f"acc9-rip-probes-m{m}", s),
                ).delta_est
            )
        deltas.append(float(np.mean(vals)))

    grad_inv, grad_big = _inversions(grad_means)
    hess_inv, hess_big = _inversions(hess_means)
    dt = elapsed_since(t0)
    ok = (
        grad_inv + hess_inv <= 1
        and not grad_big
        and not hess_big
        and deltas == sorted(deltas, reverse=True)
        and dt < 180.0
    )
    assert report(
        9,
        ok,
        f"sup_grad {['%.1f' % g for g in grad_means]}, "
        f"sup_hess {['%.1f' % h for h in hess_means]} over 10 seeds "
        f"({grad_inv + hess_inv} inversions); rip delta "
        f"{['%.3f' % d for d in deltas]}, {dt:.1f}s",
    )
