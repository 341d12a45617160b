"""Newton search, analytic reference enumerations, dedupe, and matching."""

import json
import math

import numpy as np
import pytest

from landscape_lab import critical_points, rng
from landscape_lab.critical_points import (
    KIND_DEGENERATE,
    KIND_MIN,
    KIND_SADDLE,
    CorrespondenceReport,
    analytic_critical_points_ms,
    analytic_critical_points_pr,
    damped_newton,
    find_critical_points,
    grid_seed_points,
    match_correspondence,
    refine_minimum_horizontal,
)
from landscape_lab.errors import InvalidConfig, NonFiniteEntry
from landscape_lab.manifold import procrustes_distance
from landscape_lab.risk_models import (
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_phase_problem,
)
from landscape_lab.spectral import dense_euclidean_hessian, restricted_hessian

XSTAR_2D = np.array([1.0, -1.0])


def rank_one_truth():
    w = XSTAR_2D / np.linalg.norm(XSTAR_2D)
    return SensingGroundTruth(
        eigvecs=w.reshape(-1, 1), eigvals=np.array([2.0]), target_rank=1
    )


def factor_truth():
    return SensingGroundTruth.from_random_basis(
        dim=5, eigvals=(1.3, 1.0, 0.08), target_rank=2, seed=7
    )


class TestDampedNewton:
    def test_converges_to_nearby_minimum(self):
        model = PrPopulationRisk(XSTAR_2D)
        point, grad_norm, _, converged = damped_newton(
            model, XSTAR_2D + np.array([0.13, -0.07])
        )
        assert converged
        assert grad_norm <= 1e-8 * (1.0 + model.value_scale)
        np.testing.assert_allclose(point, XSTAR_2D, atol=1e-7)

    def test_exact_critical_seed_converges_immediately(self):
        model = PrPopulationRisk(XSTAR_2D)
        point, grad_norm, iters, converged = damped_newton(model, np.zeros(2))
        assert converged
        assert iters == 0
        assert grad_norm == 0.0
        np.testing.assert_array_equal(point, np.zeros(2))

    def test_zero_iteration_budget_reports_failure(self, monkeypatch):
        monkeypatch.setattr(critical_points, "MAX_NEWTON_ITER", 0)
        model = PrPopulationRisk(XSTAR_2D)
        _, _, _, converged = damped_newton(model, np.array([1.7, 0.4]))
        assert not converged

    def test_saddles_are_reachable(self):
        # damping keeps eigenvalue signs, so saddles attract the iteration
        # instead of repelling it
        model = PrPopulationRisk(XSTAR_2D)
        saddle = np.linalg.norm(XSTAR_2D) / math.sqrt(3.0) * np.array(
            [1.0, 1.0]
        ) / math.sqrt(2.0)
        point, _, _, converged = damped_newton(model, saddle + 0.05)
        assert converged
        np.testing.assert_allclose(np.abs(point), np.abs(saddle), atol=1e-7)


class TestGridSearch:
    def test_phase_retrieval_population_is_complete(self):
        model = PrPopulationRisk(XSTAR_2D)
        result = find_critical_points(model, grid_seed_points(-2.0, 2.0, 0.1, 2))
        assert result.n_seeds == 41 * 41
        assert result.n_failed == 0
        assert len(result.records) == 5
        assert all(r.grad_norm <= 1e-8 for r in result.records)
        assert len(result.of_kind(KIND_MIN)) == 2
        assert len(result.of_kind(KIND_SADDLE)) == 3
        report = match_correspondence(
            result.locations,
            analytic_critical_points_pr(XSTAR_2D),
            epsilon=1.0,
            eta=1.0,
        )
        assert not report.spurious
        assert not report.missed
        assert all(d <= 1e-6 for _, _, d in report.pairs)

    def test_rank_one_sensing_population_is_complete(self):
        model = MsPopulationRisk(rank_one_truth())
        seeds = [s.reshape(2, 1) for s in grid_seed_points(-2.0, 2.0, 0.1, 2)]
        result = find_critical_points(model, seeds)
        assert len(result.records) == 3
        assert len(result.of_kind(KIND_MIN)) == 2
        assert len(result.of_kind(KIND_SADDLE)) == 1
        expected = analytic_critical_points_ms(rank_one_truth(), include_signs=True)
        report = match_correspondence(
            [r.ravel() for r in result.locations],
            [p.ravel() for p in expected],
            epsilon=1.0,
            eta=1.0,
        )
        assert not report.spurious and not report.missed
        assert all(d <= 1e-6 for _, _, d in report.pairs)

    def test_duplicate_basins_merge(self):
        model = PrPopulationRisk(XSTAR_2D)
        seeds = [XSTAR_2D + 0.1, XSTAR_2D - 0.1, XSTAR_2D + np.array([0.0, 0.2])]
        result = find_critical_points(model, seeds)
        assert result.n_converged == 3
        assert len(result.records) == 1
        assert result.records[0].kind == KIND_MIN

    def test_gauge_rotated_factors_merge(self):
        truth = factor_truth()
        model = MsPopulationRisk(truth)
        ustar = truth.canonical_minimum()
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        result = find_critical_points(model, [ustar, ustar @ rot])
        assert result.n_converged == 2
        assert len(result.records) == 1

    def test_factor_search_classifies_all_analytic_points(self):
        truth = factor_truth()
        model = MsPopulationRisk(truth)
        result = find_critical_points(model, analytic_critical_points_ms(truth))
        assert len(result.records) == 7
        kinds = sorted(r.kind for r in result.records)
        assert kinds.count(KIND_MIN) == 1
        assert kinds.count(KIND_SADDLE) == 6
        # the minimum's restricted curvature equals the spectral gap across
        # the rank budget
        best = result.of_kind(KIND_MIN)[0]
        assert best.lambda_min == pytest.approx(1.0 - 0.08, abs=1e-8)
        deficient = [r for r in result.records if r.note]
        assert len(deficient) == 4
        assert all("ambient" in r.note for r in deficient)

    def test_failed_seeds_are_counted_not_fatal(self, monkeypatch):
        monkeypatch.setattr(critical_points, "MAX_NEWTON_ITER", 0)
        model = PrPopulationRisk(XSTAR_2D)
        result = find_critical_points(model, [np.array([1.7, 0.4]), XSTAR_2D])
        assert result.n_failed == 1
        assert result.n_converged == 1

    def test_dimension_cap(self):
        truth = SensingGroundTruth.from_random_basis(
            dim=40, eigvals=(1.0, 0.5), target_rank=2, seed=1
        )
        with pytest.raises(InvalidConfig):
            find_critical_points(MsPopulationRisk(truth), [])

    def test_empirical_landscape_is_searchable(self):
        problem = generate_phase_problem(XSTAR_2D, n_measurements=40, seed=5)
        model = PrEmpiricalRisk(problem)
        result = find_critical_points(model, grid_seed_points(-2.0, 2.0, 0.5, 2))
        assert result.n_converged > 0
        assert all(r.grad_norm <= 1e-7 for r in result.records)

    def test_result_serializes(self):
        model = PrPopulationRisk(XSTAR_2D)
        result = find_critical_points(model, [XSTAR_2D])
        parsed = json.loads(json.dumps(result.to_json_dict()))
        assert parsed["n_converged"] == 1
        assert parsed["records"][0]["kind"] == KIND_MIN


class TestGridSeeds:
    def test_inclusive_endpoints_and_count(self):
        seeds = grid_seed_points(-2.0, 2.0, 0.1, 1)
        assert len(seeds) == 41
        assert seeds[0][0] == -2.0
        assert seeds[-1][0] == 2.0
        assert any(abs(s[0]) < 1e-15 for s in seeds)

    def test_dimension_two_is_a_product(self):
        assert len(grid_seed_points(0.0, 1.0, 0.5, 2)) == 9

    def test_gates(self):
        with pytest.raises(InvalidConfig):
            grid_seed_points(1.0, 0.0, 0.1, 2)
        with pytest.raises(InvalidConfig):
            grid_seed_points(0.0, 1.0, -0.1, 2)
        with pytest.raises(InvalidConfig):
            grid_seed_points(0.0, 1.0, 0.001, 3)


class TestHorizontalRefinement:
    def test_polishes_a_perturbed_minimum(self):
        truth = factor_truth()
        model = MsPopulationRisk(truth)
        ustar = truth.canonical_minimum()
        gen = rng.stream(3, "refine-test", 0)
        noisy = ustar + 1e-2 * rng.normal(gen, ustar.shape)
        refined, grad_norm = refine_minimum_horizontal(model, noisy)
        assert grad_norm <= 1e-8 * (1.0 + model.value_scale)
        assert procrustes_distance(refined, ustar) <= 1e-6

    def test_rejects_vector_models(self):
        with pytest.raises(InvalidConfig):
            refine_minimum_horizontal(PrPopulationRisk(XSTAR_2D), XSTAR_2D)


class TestAnalyticReferences:
    def test_ms_enumeration_counts_subsets(self):
        truth = factor_truth()
        points = analytic_critical_points_ms(truth)
        # subsets of size 0, 1, 2 of three eigendirections
        assert len(points) == 1 + 3 + 3
        model = MsPopulationRisk(truth)
        for p in points:
            assert np.linalg.norm(model.euclidean_grad(p)) <= 1e-10

    def test_ms_sign_expansion_only_for_width_one(self):
        with pytest.raises(InvalidConfig):
            analytic_critical_points_ms(factor_truth(), include_signs=True)
        points = analytic_critical_points_ms(rank_one_truth(), include_signs=True)
        assert len(points) == 3

    def test_pr_enumeration_in_the_plane(self):
        points = analytic_critical_points_pr(XSTAR_2D)
        assert len(points) == 5
        model = PrPopulationRisk(XSTAR_2D)
        scale = float(np.linalg.norm(XSTAR_2D)) ** 3
        for p in points:
            assert np.linalg.norm(model.euclidean_grad(p)) <= 1e-12 * scale

    def test_pr_saddles_sit_on_the_orthogonal_sphere(self):
        xstar = np.array([1.2, -0.5, 0.3])
        points = analytic_critical_points_pr(xstar)
        assert len(points) == 3 + 2 * 2
        norm_star = np.linalg.norm(xstar)
        for p in points[3:]:
            assert abs(p @ xstar) <= 1e-12
            assert np.linalg.norm(p) == pytest.approx(
                norm_star / math.sqrt(3.0), rel=1e-12
            )

    def test_pr_dimension_one_has_three_points(self):
        points = analytic_critical_points_pr(np.array([2.0]))
        assert len(points) == 3


class TestMatching:
    def test_identical_sets_match_exactly(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 2.0])]
        report = match_correspondence(pts, pts, epsilon=0.1, eta=1.0)
        assert report.pairs == ((0, 0, 0.0), (1, 1, 0.0))
        assert not report.spurious and not report.missed
        assert report.all_matched_within_bound

    def test_heuristic_bound_is_two_eps_over_eta(self):
        report = match_correspondence([], [], epsilon=0.3, eta=0.4)
        assert report.heuristic_bound == pytest.approx(1.5)

    def test_extra_found_point_is_spurious(self):
        found = [np.zeros(2), np.array([5.0, 5.0])]
        report = match_correspondence(found, [np.zeros(2)], epsilon=0.1, eta=1.0)
        assert report.spurious == (1,)
        assert not report.all_matched_within_bound

    def test_missing_reference_is_reported(self):
        report = match_correspondence(
            [np.zeros(2)], [np.zeros(2), np.ones(2)], epsilon=0.1, eta=1.0
        )
        assert report.missed == (1,)

    def test_sign_metric_folds_antipodes(self):
        report = match_correspondence(
            [XSTAR_2D], [-XSTAR_2D], epsilon=0.1, eta=1.0, metric="sign_euclidean"
        )
        assert report.pairs[0][2] == 0.0

    def test_sign_metric_keeps_antipodal_pairs_injective(self):
        found = [XSTAR_2D.copy(), -XSTAR_2D.copy()]
        ref = [XSTAR_2D.copy(), -XSTAR_2D.copy()]
        report = match_correspondence(
            found, ref, epsilon=0.1, eta=1.0, metric="sign_euclidean"
        )
        assert len(report.pairs) == 2
        assert not report.spurious and not report.missed

    def test_procrustes_metric_ignores_gauge(self):
        truth = factor_truth()
        ustar = truth.canonical_minimum()
        theta = 1.1
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        report = match_correspondence(
            [ustar @ rot], [ustar], epsilon=0.1, eta=1.0, metric="procrustes"
        )
        assert report.pairs[0][2] <= 1e-7

    def test_gates(self):
        with pytest.raises(InvalidConfig):
            match_correspondence([], [], epsilon=1.0, eta=0.0)
        with pytest.raises(InvalidConfig):
            match_correspondence(
                [np.zeros(2)], [np.zeros(2)], epsilon=1.0, eta=1.0, metric="hausdorff"
            )

    def test_report_serializes(self):
        report = match_correspondence(
            [np.zeros(2)], [np.zeros(2)], epsilon=0.2, eta=0.5
        )
        parsed = json.loads(json.dumps(report.to_json_dict()))
        assert parsed["pairs"][0]["distance"] == 0.0
        assert parsed["all_matched_within_bound"] is True


class TestKindThresholds:
    def test_rank_deficient_fit_is_degenerate(self):
        # one measurement in two dimensions: the zero set of the residual
        # is a curve, so its points carry an exactly flat direction
        signal = np.array([1.0, 0.0])
        problem = generate_phase_problem(signal, n_measurements=1, seed=2)
        model = PrEmpiricalRisk(problem)
        result = find_critical_points(model, [signal + np.array([0.05, 0.3])])
        assert result.records[0].kind == KIND_DEGENERATE
        assert result.records[0].lambda_min == pytest.approx(0.0, abs=1e-10)

    def test_rank_deficient_factors_fall_back_to_ambient_curvature(self):
        # at U = 0 and at (w_1, 0) the Gram matrix U^T U is singular, so the
        # horizontal basis does not exist and the ambient Hessian is read;
        # its smallest eigenvalue is -lambda_1 = -lambda_2 = -1
        truth = SensingGroundTruth(
            np.eye(8)[:, :3], np.array([1.0, 1.0, 1.0 / 12.0]), 2
        )
        model = MsPopulationRisk(truth)
        padded = np.zeros((8, 2))
        padded[:, 0] = truth.eigvecs[:, 0]
        result = find_critical_points(model, [np.zeros((8, 2)), padded])
        assert result.n_converged == 2
        assert len(result.records) == 2
        for record in result.records:
            assert record.kind == KIND_SADDLE
            assert record.lambda_min == -1.0
            assert record.note == "rank-deficient factor, ambient curvature reported"


def counting(model_class):
    """A subclass of model_class that logs the point of every gradient and
    every Hessian it evaluates; each dense or restricted Hessian is one
    stacked hess_vec call."""

    class Counting(model_class):
        def __init__(self, *args):
            super().__init__(*args)
            self.grad_points = []
            self.hess_points = []

        def euclidean_grad(self, point):
            self.grad_points.append(np.asarray(point, dtype=float).tobytes())
            return super().euclidean_grad(point)

        def hess_vec(self, point, direction):
            self.hess_points.append(np.asarray(point, dtype=float).tobytes())
            return super().hess_vec(point, direction)

    return Counting


def assert_no_halvings(model):
    # a halved step leaves behind a tried point at which no Hessian is ever
    # formed; here every distinct point tried, but the last, became an iterate
    tried = list(dict.fromkeys(model.grad_points))
    assert all(point in model.hess_points for point in tried[:-1])


class TestOneGradientPerPoint:
    def test_damped_newton_reuses_accepted_gradients(self):
        model = counting(PrPopulationRisk)(XSTAR_2D)
        point, _, _, converged = damped_newton(model, np.array([1.13, -1.07]))
        assert converged
        np.testing.assert_allclose(point, XSTAR_2D, atol=1e-7)
        assert_no_halvings(model)
        grads, hessians = len(model.grad_points), len(model.hess_points)
        # the fifth iterate is x* to the last bit, where the gradient is
        # exactly zero, so the polish phase takes no further step
        assert hessians == 5
        assert grads == hessians + 1

    def test_horizontal_refinement_reuses_accepted_gradients(self):
        truth = factor_truth()
        model = counting(MsPopulationRisk)(truth)
        refined, grad_norm = refine_minimum_horizontal(
            model, truth.canonical_minimum() + 0.05
        )
        assert grad_norm <= 1e-8 * (1.0 + model.value_scale)
        assert procrustes_distance(refined, truth.canonical_minimum()) <= 1e-6
        assert_no_halvings(model)
        grads, hessians = len(model.grad_points), len(model.hess_points)
        assert hessians == 4
        assert grads == hessians + 1

    def test_step_norm_has_the_bits_of_numpy_norm(self):
        gen = rng.stream(5, "norm-test", 0)
        block = rng.normal(gen, (6, 4)) * 10.0 ** rng.normal(gen, (6, 4))
        for v in (block, block.T, block[:, 0], block[::2, 1:], np.zeros(3)):
            assert critical_points._norm(v) == float(np.linalg.norm(v))


class TestNonFiniteGuards:
    def test_nan_seed_raises_in_every_search(self):
        seed = np.array([np.nan, 0.5])
        model = PrPopulationRisk(XSTAR_2D)
        with pytest.raises(NonFiniteEntry):
            damped_newton(model, seed)
        # raised, not counted as a failed seed
        with pytest.raises(NonFiniteEntry):
            find_critical_points(model, [XSTAR_2D, seed])
        truth = factor_truth()
        factor_seed = truth.canonical_minimum().copy()
        factor_seed[0, 0] = np.nan
        with pytest.raises(NonFiniteEntry):
            refine_minimum_horizontal(MsPopulationRisk(truth), factor_seed)

    def test_hessian_assembly_rejects_non_finite_images(self, monkeypatch):
        truth = factor_truth()
        model = MsPopulationRisk(truth)
        monkeypatch.setattr(
            model,
            "hess_vec",
            lambda point, direction: np.full(direction.shape, np.nan),
        )
        point = truth.canonical_minimum()
        with pytest.raises(NonFiniteEntry):
            dense_euclidean_hessian(model, point)
        with pytest.raises(NonFiniteEntry):
            restricted_hessian(model, point)
