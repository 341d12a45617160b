"""Newton search, analytic reference enumerations, dedupe, and matching."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from landscape_lab import critical_points, experiments, manifold, rng
from landscape_lab.critical_points import (
    KIND_DEGENERATE,
    KIND_MIN,
    KIND_SADDLE,
    CorrespondenceReport,
    analytic_critical_points_ms,
    analytic_critical_points_pr,
    damped_newton,
    find_critical_points,
    find_critical_points_each,
    grid_seed_points,
    match_correspondence,
    refine_minimum_horizontal,
)
from landscape_lab.errors import (
    DimensionMismatch,
    GramNotSPD,
    InvalidConfig,
    NonFiniteEntry,
    ZeroTruthSignal,
)
from landscape_lab.manifold import procrustes_distance
from landscape_lab.risk_models import (
    MsEmpiricalRisk,
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_phase_problem,
    generate_sensing_ensemble,
)
from landscape_lab.spectral import dense_euclidean_hessian, min_eig, restricted_hessian

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

    @pytest.mark.parametrize("budget", [3, 40])
    def test_polish_stops_at_its_budget(self, budget, monkeypatch):
        # from this seed the polish phase takes 12 accepted steps, the last
        # onto an exact zero gradient
        monkeypatch.setattr(critical_points, "MAX_POLISH_ITER", budget)
        problem = generate_phase_problem(XSTAR_2D, n_measurements=2, seed=0)
        model = counting(PrEmpiricalRisk)(problem)
        _, grad_norm, iters, converged = damped_newton(model, np.array([-2.0, -2.0]))
        assert converged
        assert len(model.hess_points) - iters == min(budget, 12)
        assert (grad_norm == 0.0) == (budget > 12)

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


def plane_grid(spacing, shape=(2,)):
    return [s.reshape(shape) for s in grid_seed_points(-2.0, 2.0, spacing, 2)]


def ms2d_rank1_m3_surface():
    """The M = 3 empirical surface of ms2d_rank1 at its default config,
    on which about one seed in five fails."""
    config = experiments._resolve(experiments.ExperimentConfig("ms2d_rank1"))
    surfaces, _ = experiments._surface_models(config, config.master_seed)
    return dict(surfaces)["m3"]


# model, seeds, and how the single-seed searches end at the default budgets
STACK_CASES = {
    "pr-population": lambda: (
        PrPopulationRisk(XSTAR_2D),
        [np.zeros(2), np.array([1.13, -1.07]), *plane_grid(1.0)],
        {"at start", "zero gradient", "converged"},
    ),
    "pr-empirical": lambda: (
        PrEmpiricalRisk(generate_phase_problem(XSTAR_2D, n_measurements=6, seed=2)),
        plane_grid(0.5),
        {"at start", "zero gradient", "converged", "stall", "iteration cap"},
    ),
    "ms-k1": lambda: (
        ms2d_rank1_m3_surface(),
        plane_grid(0.5, (2, 1)),
        {"at start", "zero gradient", "converged", "stall", "iteration cap"},
    ),
    "ms-k2": lambda: (
        MsEmpiricalRisk(generate_sensing_ensemble(factor_truth(), 10, seed=1)),
        [np.zeros((5, 2)), *2.0 * rng.normal(rng.stream(11, "stack-test", 0), (30, 5, 2))],
        {"at start", "zero gradient", "converged", "stall", "iteration cap"},
    ),
}


def exit_paths(singles) -> set:
    """How single-seed searches ended, read off their return values. A
    stall is MAX_STALLS backtracks in a row that exhausted their halvings."""
    paths = set()
    for _, grad_norm, iters, converged in singles:
        if converged:
            paths.add("at start" if iters == 0 else "converged")
            if grad_norm == 0.0:
                paths.add("zero gradient")
        elif iters == critical_points.MAX_NEWTON_ITER:
            paths.add("iteration cap")
        else:
            paths.add("stall")
    return paths


def search_by_a_loop_over_seeds(model, seeds, tol):
    """find_critical_points as it ran before seeds were stacked: one
    damped_newton call per seed, then each converged seed compared with
    every record in turn and classified where it starts or moves one.
    Returns the records and the number of converged seeds."""
    found, n_converged = [], 0
    for seed in seeds:
        point, grad_norm, _, converged = damped_newton(model, seed)
        if not converged:
            continue
        n_converged += 1
        keeper = None
        for i, record in enumerate(found):
            if model.is_factor and model.shape[1] >= 2:
                distance = procrustes_distance(record.location, point)
            else:
                distance = float(np.linalg.norm(record.location - point))
            if distance <= tol:
                keeper = i
                break
        if keeper is not None and grad_norm >= found[keeper].grad_norm:
            continue
        lam, kind, note = critical_points._classify(model, point)
        record = critical_points.CriticalPointRecord(point, grad_norm, lam, kind, note)
        if keeper is None:
            found.append(record)
        else:
            found[keeper] = record
    return found, n_converged


class TestStackedSearch:
    @pytest.mark.parametrize(
        "budgets",
        [{}, {"MAX_NEWTON_ITER": 4, "MAX_POLISH_ITER": 1}],
        ids=["default-budgets", "small-budgets"],
    )
    @pytest.mark.parametrize("case", STACK_CASES)
    def test_each_item_equals_its_single_seed_search(self, case, budgets, monkeypatch):
        for name, value in budgets.items():
            monkeypatch.setattr(critical_points, name, value)
        model, seeds, paths = STACK_CASES[case]()
        singles = [damped_newton(model, seed) for seed in seeds]
        if budgets:
            # the small budget ends every seed that needs more iterations
            paths = {"at start", "iteration cap"}
        assert exit_paths(singles) >= paths
        points, grad_norms, iters, n_converged = damped_newton(model, np.stack(seeds))
        assert points.shape == (len(seeds), *model.shape)
        tau = 1e-8 * (1.0 + model.value_scale)
        for i, (point, grad_norm, _, converged) in enumerate(singles):
            assert points[i].tobytes() == point.tobytes()
            assert grad_norms[i] == grad_norm
            assert (grad_norms[i] <= tau) == converged
        assert iters == sum(single[2] for single in singles)
        assert n_converged == sum(single[3] for single in singles)

    @pytest.mark.parametrize("kind", ["pr", "ms"])
    def test_an_empty_stack_makes_no_model_call(self, kind):
        if kind == "pr":
            model = counting(PrPopulationRisk)(XSTAR_2D)
        else:
            model = counting(MsPopulationRisk)(rank_one_truth())
        for models in (model, [model, model]):
            points, grad_norms, iters, n_converged = damped_newton(
                models, np.empty((0, *model.shape))
            )
            assert points.shape == (0, *model.shape) and grad_norms.shape == (0,)
            assert (iters, n_converged) == (0, 0)
        assert model.grad_points == model.hess_points == []

    def test_no_surfaces_is_an_invalid_config(self):
        with pytest.raises(InvalidConfig, match="at least one surface"):
            damped_newton([], np.zeros((2, 2)))

    def test_stack_leaves_its_seeds_alone(self):
        seeds = np.stack(plane_grid(1.0))
        before = seeds.copy()
        damped_newton(PrPopulationRisk(XSTAR_2D), seeds)
        np.testing.assert_array_equal(seeds, before)

    def test_search_equals_a_loop_over_seeds(self, monkeypatch):
        # at k = 1 (ms-k1) and at k = 2 (ms-k2, 9 records, 5 of them moved
        # to a later seed), one block of distance rows, blocks of one seed
        # and ragged blocks of five
        for case in ("ms-k1", "ms-k2"):
            model, seeds, _ = STACK_CASES[case]()
            for block in (64, 1, 5):
                monkeypatch.setattr(critical_points, "DEDUPE_BLOCK", block)
                result = find_critical_points(model, seeds)
                want, n_converged = search_by_a_loop_over_seeds(model, seeds, result.dedupe_tol)
                assert result.n_failed > 0
                assert (result.n_seeds, result.n_converged, result.n_failed) == (
                    len(seeds),
                    n_converged,
                    len(seeds) - n_converged,
                )
                assert len(result.records) == len(want) > 1
                for got, record in zip(result.records, want):
                    assert got.location.tobytes() == record.location.tobytes()
                    assert (got.grad_norm, got.lambda_min, got.kind, got.note) == (
                        record.grad_norm,
                        record.lambda_min,
                        record.kind,
                        record.note,
                    )

    @pytest.mark.parametrize("budget", [None, 7])
    def test_lockstep_loop_ends(self, budget, monkeypatch):
        # seeds that all stall or hit the iteration cap; a round that failed
        # to retire them would spin, so the Hessian count raises at the bound
        if budget is not None:
            monkeypatch.setattr(critical_points, "MAX_NEWTON_ITER", budget)
        model = ms2d_rank1_m3_surface()
        failing = [
            seed
            for seed in plane_grid(0.5, (2, 1))
            if not damped_newton(model, seed)[3]
        ]
        assert len(failing) >= 5
        bound = critical_points.MAX_NEWTON_ITER + critical_points.MAX_POLISH_ITER
        calls = []

        def hessians(model, point):
            calls.append(len(point))
            if len(calls) > bound:
                raise AssertionError(f"more than {bound} Hessian stacks")
            return dense_euclidean_hessian(model, point)

        monkeypatch.setattr(critical_points, "dense_euclidean_hessian", hessians)
        _, _, iters, n_converged = damped_newton(model, np.stack(failing))
        assert n_converged == 0
        assert len(calls) <= bound
        assert sum(calls) == iters


def plane_surfaces(experiment, m):
    """The surfaces of a plane experiment at the CLI's seed: the population
    surface first, then one empirical surface per M."""
    config = experiments._resolve(experiments.ExperimentConfig(experiment, m=m))
    surfaces, _ = experiments._surface_models(config, config.master_seed)
    return [model for _, model in surfaces]


def assert_same_search(got, want):
    assert (got.n_seeds, got.n_converged, got.n_failed, got.dedupe_tol) == (
        want.n_seeds,
        want.n_converged,
        want.n_failed,
        want.dedupe_tol,
    )
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert a.location.tobytes() == b.location.tobytes()
        assert (a.grad_norm, a.lambda_min, a.kind, a.note) == (
            b.grad_norm,
            b.lambda_min,
            b.kind,
            b.note,
        )


SURFACE_SEED = 31415


def surface_family(kind):
    """Empirical risks at M = 1, 3 and 40 of one truth (N = 6, k = 2) or
    one signal in R^3, each on its own ensemble."""
    if kind == "ms":
        truth = SensingGroundTruth.from_random_basis(6, (1.3, 1.0, 0.08), 2, seed=7)
        return [
            MsEmpiricalRisk(generate_sensing_ensemble(truth, m, SURFACE_SEED + m))
            for m in (1, 3, 40)
        ]
    xstar = np.array([1.2, -0.5, 0.3])
    return [
        PrEmpiricalRisk(generate_phase_problem(xstar, m, SURFACE_SEED + m)) for m in (1, 3, 40)
    ]


def population_of(model):
    """The population risk of an empirical model's truth or signal."""
    if model.is_factor:
        return MsPopulationRisk(model.truth)
    return PrPopulationRisk(model.signal)


def surface_points(models, per_surface):
    gen = rng.stream(SURFACE_SEED, "stack-points", 0)
    return rng.normal(gen, (len(models) * per_surface, *models[0].shape))


def each_surface(models, per_surface, idx, call, *args):
    """call(model, *args) of each model on its items of idx, which index a
    stack of per_surface items a surface, concatenated in item order; args
    hold one entry per item of idx."""
    surface = idx // per_surface
    return np.concatenate(
        [
            call(model, *(a[surface == s] for a in args))
            for s, model in enumerate(models)
            if (surface == s).any()
        ]
    )


class TestSurfaceRisk:
    @pytest.mark.parametrize("kind", ["ms", "pr"])
    @pytest.mark.parametrize("population", ["first", "last"])
    def test_each_item_is_on_its_own_surface(self, kind, population):
        empirical = surface_family(kind)
        pop = [population_of(empirical[0])]
        models = pop + empirical if population == "first" else empirical + pop
        points = surface_points(models, 4)
        gen = rng.stream(SURFACE_SEED, "stack-directions", 0)
        directions = rng.normal(gen, (len(points), 3, *models[0].shape))
        # every item, then items of the first and last surfaces only, then
        # a subset that spans the first and last surfaces
        for idx in (np.arange(16), np.array([0, 3, 12, 15]), np.array([1, 2, 6, 11, 13])):
            risk = critical_points._surface_risk(models, 4, idx)
            # the empirical class, wherever the population surface stands
            assert type(risk) is type(empirical[0])
            at = points[idx]
            for call, args in [
                (lambda model, p: model.euclidean_grad(p), (at,)),
                (lambda model, p, d: model.hess_vec(p, d), (at, directions[idx])),
                (dense_euclidean_hessian, (at,)),
            ]:
                want = each_surface(models, 4, idx, call, *args)
                assert call(risk, *args).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["ms", "pr"])
    def test_items_of_one_surface_get_its_model(self, kind):
        models = [population_of(surface_family(kind)[0]), *surface_family(kind)]
        assert critical_points._surface_risk(models, 4, np.array([5, 6])) is models[1]
        assert critical_points._surface_risk(models, 4, np.array([0, 3])) is models[0]
        assert critical_points._surface_risk(models[2:], 4, np.arange(4)) is models[2]
        # population surfaces alone keep the first model's class
        both = [models[0], population_of(models[1])]
        assert type(critical_points._surface_risk(both, 1, np.arange(2))) is type(models[0])

    def test_a_short_stack_is_a_dimension_mismatch(self):
        models = surface_family("pr")
        risk = critical_points._surface_risk(models, 1, np.arange(3))
        points = surface_points(models, 1)
        with pytest.raises(DimensionMismatch):
            risk.euclidean_grad(points[:2])


class TestSurfaceStack:
    @pytest.mark.parametrize(
        "experiment, m", [("pr2d", (1, 3, 10)), ("ms2d_rank1", (1, 3, 10, 30))]
    )
    def test_each_surface_ends_as_its_own_search(self, experiment, m, monkeypatch):
        models = plane_surfaces(experiment, m)
        seeds = plane_grid(0.5, models[0].shape)
        alone = [find_critical_points(model, seeds) for model in models]
        newton = []

        def counted(model, seed_point):
            newton.append(len(seed_point))
            return damped_newton(model, seed_point)

        monkeypatch.setattr(critical_points, "damped_newton", counted)
        results = find_critical_points_each(models, seeds)
        # one Newton call for every surface, given the seeds once
        assert newton == [len(seeds)]
        assert len(results) == len(models)
        for got, want in zip(results, alone):
            assert_same_search(got, want)
        # the M = 1 surface has a continuum of critical points: every seed
        # converges, to more records than any other surface keeps
        assert results[1].n_converged == len(seeds)
        others = results[:1] + results[2:]
        assert len(results[1].records) > max(len(r.records) for r in others)

    def test_stack_totals_are_the_surfaces_totals(self):
        models = plane_surfaces("ms2d_rank1", (3, 10))
        seeds = np.stack(plane_grid(0.5, models[0].shape))
        alone = [damped_newton(model, seeds) for model in models]
        before = seeds.copy()
        # every seed runs on every surface, the seeds tiled surface by surface
        points, grad_norms, iters, n_converged = damped_newton(models, seeds)
        assert seeds.tobytes() == before.tobytes()
        assert points.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
        assert grad_norms.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()
        assert (iters, n_converged) == (sum(a[2] for a in alone), sum(a[3] for a in alone))
        # the M = 3 surface fails some seeds, so those paths are in the stack
        assert n_converged < len(points)
        # one seed on several surfaces is a stack of one seed per surface
        points, grad_norms, iters, n_converged = damped_newton(models, seeds[7])
        assert points.tobytes() == np.concatenate([a[0][7:8] for a in alone]).tobytes()
        assert grad_norms.tobytes() == np.concatenate([a[1][7:8] for a in alone]).tobytes()

    @pytest.mark.parametrize("kind", ["pr", "ms"])
    def test_a_seed_array_searches_as_its_points(self, kind):
        models = plane_surfaces("pr2d" if kind == "pr" else "ms2d_rank1", (3, 10))
        shape = models[0].shape
        seeds = grid_seed_points(-2.0, 2.0, 0.5, 2).reshape(-1, *shape)
        for got, want in zip(
            find_critical_points_each(models, seeds), find_critical_points_each(models, list(seeds))
        ):
            assert_same_search(got, want)
        # an array is the sequence of its points, each checked on its shape
        with pytest.raises(DimensionMismatch, match="do not match model shape"):
            find_critical_points_each(models, seeds.reshape(len(seeds), -1, 1, 1))
        with pytest.raises(DimensionMismatch, match="do not match model shape"):
            find_critical_points_each(models, [*seeds[:3], np.zeros(3)])

    def test_mixed_surfaces_are_rejected(self):
        population = PrPopulationRisk(XSTAR_2D)
        empirical = PrEmpiricalRisk(generate_phase_problem(XSTAR_2D, 5, seed=1))
        # a population and an empirical surface of one signal stack
        seeds = plane_grid(1.0)
        results = find_critical_points_each([population, empirical], seeds)
        for got, model in zip(results, [population, empirical]):
            assert_same_search(got, find_critical_points(model, seeds))
        other_signal = PrEmpiricalRisk(generate_phase_problem(np.array([1.0, 0.5]), 5, seed=1))
        other_family = MsPopulationRisk(rank_one_truth())
        for models in ([population, other_family], [population, other_signal]):
            with pytest.raises(InvalidConfig, match="one family .* one truth or signal"):
                find_critical_points_each(models, [XSTAR_2D])
        assert find_critical_points_each([], [XSTAR_2D]) == []
        # each way two surfaces can differ: family, population family,
        # truth, shape, and signal, empirical or population
        ms, pr = surface_family("ms"), surface_family("pr")
        other = SensingGroundTruth.from_random_basis(6, (1.3, 1.0, 0.08), 2, seed=8)
        truth = ms[0].truth
        wider = SensingGroundTruth(truth.eigvecs, truth.eigvals, target_rank=3)
        signal = np.array([1.0, 0.5, 0.3])
        for models in (
            [ms[0], pr[0]],
            [population_of(ms[0]), population_of(pr[0])],
            [ms[0], MsEmpiricalRisk(generate_sensing_ensemble(other, 3, SURFACE_SEED))],
            [ms[0], MsPopulationRisk(wider)],
            [pr[0], PrEmpiricalRisk(generate_phase_problem(signal, 3, SURFACE_SEED))],
            [pr[0], PrPopulationRisk(signal)],
        ):
            tiled = np.ones((2, *models[0].shape))
            match = "one family .* one truth or signal and one shape"
            with pytest.raises(InvalidConfig, match=match):
                damped_newton(models, tiled)

    @pytest.mark.parametrize("experiment", ["pr2d", "ms2d_rank1"])
    def test_each_plane_runner_makes_one_newton_call(self, experiment, monkeypatch):
        config = experiments._resolve(
            experiments.ExperimentConfig(experiment, m=(3, 10), grid=(-1.0, 1.0, 5))
        )
        newton = []

        def counted(model, seed_point):
            newton.append(len(seed_point))
            return damped_newton(model, seed_point)

        monkeypatch.setattr(critical_points, "damped_newton", counted)
        experiments.RUNNERS[experiment](config, config.master_seed)
        # the 21 x 21 seeds once, for the population surface and both
        # empirical ones
        assert newton == [21 * 21]


class TestDedupe:
    @pytest.mark.parametrize(
        "model",
        [
            PrPopulationRisk(XSTAR_2D),
            MsPopulationRisk(rank_one_truth()),
            MsPopulationRisk(
                SensingGroundTruth.from_random_basis(
                    dim=8, eigvals=(1.3, 1.0, 0.08), target_rank=2, seed=7
                )
            ),
        ],
        ids=["euclidean-(2,)", "euclidean-(2,1)", "procrustes-(8,2)"],
    )
    def test_distance_rows_equal_pair_distances_bit_for_bit(self, model):
        # more records than one block holds, so the last block is ragged
        gen = rng.stream(5, "distance-rows", 0)
        records = rng.normal(gen, (critical_points.DEDUPE_BLOCK + 7, *model.shape))
        seeds = rng.normal(gen, (9, *model.shape))
        quotient = len(model.shape) == 2 and model.shape[1] >= 2
        # a seed a micro-unit from a record, in another gauge on the quotient
        seeds[4] = records[3] + 1e-9
        if quotient:
            seeds[4] = seeds[4] @ np.linalg.qr(rng.normal(gen, (model.shape[1],) * 2))[0]
        rows = critical_points._distance_rows(model, records, seeds)
        assert rows.shape == (len(records), len(seeds))
        for i, record in enumerate(records):
            for j, seed in enumerate(seeds):
                if quotient:
                    want = procrustes_distance(record, seed)
                else:
                    want = float(np.linalg.norm(record - seed))
                assert rows[i, j] == want
        assert rows[3, 4] < 1e-8

    def test_gauge_stack_is_the_gauge_bit_for_bit(self):
        # random cross matrices of both determinant signs, and the zero,
        # rank-one and near-overflow ones
        crosses = rng.normal(rng.stream(5, "gauge-stack", 0), (40, 2, 2))
        crosses[0] = 0.0
        crosses[1] = np.outer(crosses[1, 0], [1.0, -2.0])
        crosses[2] *= 1e-300
        crosses[3] *= 1.6e308 / np.abs(crosses[3]).max()
        dets = np.linalg.det(crosses[4:])
        assert (dets > 0).any() and (dets < 0).any()
        stack = critical_points._gauge_stack(crosses)
        for cross, q in zip(crosses, stack):
            assert q.tobytes() == manifold._gauge(cross).tobytes()

    @pytest.mark.parametrize("block", [64, 1, 3, 7])
    def test_dedupe_equals_a_loop_over_pairs(self, block, monkeypatch):
        # points crowded so that records lie within twice the tolerance of
        # each other: a move can take a record out of reach of a later point,
        # which then joins a later record or starts one, or into reach of a
        # point that a later record held
        monkeypatch.setattr(critical_points, "DEDUPE_BLOCK", block)
        model = PrPopulationRisk(XSTAR_2D)
        gen = rng.stream(3, "dedupe-pairs", 0)
        for _ in range(20):
            points = 4.0 * rng.uniform(gen, (40, 2))
            grad_norms = rng.uniform(gen, (40,))
            keep = []
            for j, point in enumerate(points):
                keeper = next(
                    (i for i, k in enumerate(keep) if np.linalg.norm(points[k] - point) <= 1.0),
                    None,
                )
                if keeper is None:
                    keep.append(j)
                elif grad_norms[j] < grad_norms[keep[keeper]]:
                    keep[keeper] = j
            assert critical_points._dedupe(model, points, grad_norms, 1.0) == keep

    def test_degenerate_surface_takes_a_distance_row_per_record(self, monkeypatch):
        # at M = 1 the pr2d empirical risk has lines of critical points, and
        # every converged seed of the 1 681-seed grid is its own record: a
        # comparison per pair of records would take about 1.4 million
        # distances, one row per record and per block takes at most
        # records + blocks calls
        config = experiments._resolve(
            experiments.ExperimentConfig("pr2d", m=(1,), master_seed=20250817)
        )
        surfaces, _ = experiments._surface_models(config, config.master_seed)
        lo, hi, _ = config.grid
        seeds = grid_seed_points(lo, hi, experiments.NEWTON_SEED_SPACING, 2)
        calls = []
        rows = critical_points._distance_rows

        def counted(model, records, block):
            calls.append(len(records))
            return rows(model, records, block)

        monkeypatch.setattr(critical_points, "_distance_rows", counted)
        result = find_critical_points(dict(surfaces)["m1"], seeds)
        assert len(result.records) == result.n_converged == len(seeds) == 1681
        blocks = math.ceil(result.n_converged / critical_points.DEDUPE_BLOCK)
        assert len(calls) <= len(result.records) + blocks


def symmetric_2x2(a, b, c):
    hess = np.empty((len(a), 2, 2))
    hess[:, 0, 0], hess[:, 1, 0], hess[:, 0, 1], hess[:, 1, 1] = a, b, b, c
    return hess


def eigh_2x2_families(n):
    """(name, (n, 2, 2) stack) pairs: random matrices, zero off-diagonals of
    both signs, a = c, a = -c, |a - c| = |2b|, off-diagonals far below the
    diagonal's spread, zero matrices, scales from 1e-300 to entries near
    1e307, and two diagonal spreads above 9e307."""
    gen = rng.stream(11, "eigh-2x2", 0)
    a, b, c = rng.normal(gen, (3, n))
    sign = np.sign(b)
    yield "random", symmetric_2x2(a, b, c)
    yield "b=+0", symmetric_2x2(a, np.zeros(n), c)
    yield "b=-0", symmetric_2x2(a, -np.zeros(n), c)
    yield "a=c", symmetric_2x2(a, b, a)
    yield "a=-c", symmetric_2x2(a, b, -a)
    yield "|a-c|=|2b|", symmetric_2x2(a, 0.5 * (a - c) * sign, c)
    yield "b=1e-8", symmetric_2x2(a, 1e-8 * b, c)
    yield "c=0, b tiny", symmetric_2x2(a, 1e-154 * b, np.zeros(n))
    yield "zero", np.zeros((n, 2, 2))
    yield "a=-0", symmetric_2x2(-np.zeros(n), np.zeros(n), np.zeros(n))
    for scale in (1e11, 1e-11, 1e-118, 1e140, 1e-125, 1e-140, 1e-150, 1e150, 1e-300, 1e300, 1e307):
        yield f"scale {scale:g}", symmetric_2x2(scale * a, scale * b, scale * c)
    # a diagonal spread above 9e307, where half + radius overflows
    yield "a=-c=1.6e308", symmetric_2x2(np.full(n, 1.6e308), np.zeros(n), np.full(n, -1.6e308))
    yield "a=b=-c=1e308", symmetric_2x2(np.full(n, 1e308), np.full(n, 1e308), np.full(n, -1e308))


def assert_eigh_accurate(hess):
    """_eigh_2x2's eigenvalues ascend and lie within 4 eps max|entry| of
    np.linalg.eigh's, and its eigenvectors have residual HV - V diag(values)
    within that of zero and V^T V within 4 eps of I, item by item."""
    vals, vecs = critical_points._eigh_2x2(hess)
    assert vals.shape == (len(hess), 2) and vecs.shape == hess.shape
    eps = np.finfo(float).eps
    tol = 4.0 * eps * np.abs(hess).max(axis=(1, 2))
    assert np.all(vals[:, 0] <= vals[:, 1])
    assert np.all(np.abs(vals - np.linalg.eigh(hess)[0]).max(axis=1) <= tol)
    residual = hess @ vecs - vecs * vals[:, None, :]
    assert np.all(np.abs(residual).max(axis=(1, 2)) <= tol)
    gram = vecs.swapaxes(1, 2) @ vecs - np.eye(2)
    assert np.all(np.abs(gram) <= 4.0 * eps)


class TestEigh2x2:
    @pytest.mark.parametrize("family", [name for name, _ in eigh_2x2_families(1)])
    def test_matches_lapack_within_rounding(self, family):
        assert_eigh_accurate(dict(eigh_2x2_families(4000))[family])

    @pytest.mark.parametrize("diag", [0.0, -3.5, 1e-300, 1e307])
    def test_equal_diagonal_and_no_off_diagonal_takes_the_identity(self, diag):
        hess = symmetric_2x2(np.full(3, diag), np.array([0.0, -0.0, 0.0]), np.full(3, diag))
        vals, vecs = critical_points._eigh_2x2(hess)
        assert np.array_equal(vals, np.full((3, 2), diag))
        assert np.array_equal(vecs, np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_matches_lapack_on_every_search_hessian(self, monkeypatch):
        stacks = []
        step = critical_points._damped_newton_step

        def captured(hess, grad_flat):
            stacks.append(hess)
            return step(hess, grad_flat)

        monkeypatch.setattr(critical_points, "_damped_newton_step", captured)
        for experiment in ("pr2d", "ms2d_rank1"):
            models = plane_surfaces(experiment, (1, 3, 10))
            find_critical_points_each(models, plane_grid(0.25, models[0].shape))
        # from several thousand items down to the polishing few
        assert min(map(len, stacks)) < 10 and max(map(len, stacks)) > 1000
        for hess in stacks:
            assert_eigh_accurate(hess)

    def test_newton_steps_match_the_lapack_steps(self, monkeypatch):
        gen = rng.stream(12, "eigh-2x2-steps", 0)
        hess = next(h for name, h in eigh_2x2_families(500) if name == "random")
        grad = rng.normal(gen, (500, 2))
        eigh = np.linalg.eigh

        def refused(stack):
            raise AssertionError(f"a stack of {len(stack)} 2 x 2 Hessians reached eigh")

        # every (B, 2, 2) stack takes the closed form, whatever its size
        monkeypatch.setattr(np.linalg, "eigh", refused)
        closed = critical_points._damped_newton_step(hess, grad)
        single = critical_points._damped_newton_step(hess[:1], grad[:1])
        assert single.tobytes() == closed[:1].tobytes()
        monkeypatch.setattr(critical_points, "_eigh_2x2", eigh)
        lapack = critical_points._damped_newton_step(hess, grad)
        gap = np.linalg.norm(closed - lapack, axis=1)
        assert np.all(gap <= 1e-12 * np.linalg.norm(lapack, axis=1))


class TestBacktrack:
    def test_newton_items_halve_and_polish_items_get_one_try(self):
        class Identity:
            # the gradient at a point is the point, so a candidate's
            # gradient norm is its distance from the origin
            def __init__(self):
                self.calls = []

            def euclidean_grad(self, point):
                self.calls.append(len(point))
                return np.array(point)

        model = Identity()
        point = np.array([[1.0, 0.0]] * 5 + [[0.0, 0.0]])
        grad_norm = np.array([1.0] * 5 + [0.0])
        step = np.array(
            [[-0.08, 0.0], [-0.08, 0.0], [-4.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        )
        polish = np.array([False, True, False, False, True, True])
        new_point, new_grad, new_norm, passed = critical_points._backtrack(
            lambda trying: model, point, point.copy(), grad_norm, step, polish
        )
        # a Newton item passes below its norm, a polish item below 0.9 of
        # it or at an exact zero; the third passes at its second halving
        assert passed.tolist() == [True, False, True, False, False, True]
        np.testing.assert_array_equal(new_point[0], point[0] + step[0])
        np.testing.assert_array_equal(new_point[2], [0.0, 0.0])
        np.testing.assert_array_equal(new_point[[1, 3, 4]], point[[1, 3, 4]])
        np.testing.assert_array_equal(new_grad, new_point)
        assert new_norm.tolist() == [0.92, 1.0, 0.0, 1.0, 1.0, 0.0]
        # one gradient call per try, on the Newton items still halving
        assert model.calls == [6, 2, 2] + [1] * (critical_points.MAX_BACKTRACKS - 3)


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
            [r.location for r in result.records],
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
            [r.location.ravel() for r in result.records],
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


class TestGridSeeds:
    def test_inclusive_endpoints_and_count(self):
        seeds = grid_seed_points(-2.0, 2.0, 0.1, 1)
        assert len(seeds) == 41
        assert seeds[0][0] == -2.0
        assert seeds[-1][0] == 2.0
        assert any(abs(s[0]) < 1e-15 for s in seeds)

    def test_dimension_two_is_a_product(self):
        assert len(grid_seed_points(0.0, 1.0, 0.5, 2)) == 9

    # at spacing 10 the grid is one point, in more dimensions than a numpy
    # array may have axes
    @pytest.mark.parametrize(
        "spacing, dim", [(0.5, 1), (0.5, 2), (0.5, 3), (10.0, 65)], ids=["1", "2", "3", "65"]
    )
    def test_one_array_in_product_order(self, spacing, dim):
        seeds = grid_seed_points(-2.0, 2.0, spacing, dim)
        axis = np.linspace(-2.0, 2.0, int(round(4.0 / spacing)) + 1)
        assert isinstance(seeds, np.ndarray) and seeds.shape == (len(axis) ** dim, dim)
        # the last coordinate varies fastest
        want = np.array(list(itertools.product(axis, repeat=dim)))
        assert seeds.tobytes() == want.tobytes()

    def test_gates(self):
        with pytest.raises(InvalidConfig):
            grid_seed_points(1.0, 0.0, 0.1, 2)
        with pytest.raises(InvalidConfig):
            grid_seed_points(0.0, 1.0, -0.1, 2)
        with pytest.raises(InvalidConfig):
            grid_seed_points(0.0, 1.0, 0.001, 3)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_a_dimension_below_one_is_rejected(self, dim):
        with pytest.raises(InvalidConfig, match="dimension"):
            grid_seed_points(0.0, 1.0, 0.5, dim)

    @pytest.mark.parametrize(
        "lo, hi, spacing, dim",
        [(0.0, math.inf, 0.1, 2), (0.0, 1.0, 1e-320, 1), (-1e308, 1e308, 1.0, 1)],
        ids=["infinite-span", "tiny-spacing", "span-overflows"],
    )
    def test_an_infinite_step_count_is_rejected(self, lo, hi, spacing, dim):
        # (hi - lo) / spacing is inf, which int(round(...)) cannot convert
        with pytest.raises(InvalidConfig, match="finite step count"):
            grid_seed_points(lo, hi, spacing, dim)


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

    @pytest.mark.parametrize(
        "signal, error",
        [
            (np.zeros(2), ZeroTruthSignal),
            (np.ones((2, 1)), ZeroTruthSignal),
            (np.array([np.nan, 1.0]), NonFiniteEntry),
            (np.array([np.inf, 1.0]), NonFiniteEntry),
        ],
        ids=["zero", "not-1d", "nan", "inf"],
    )
    def test_pr_rejects_signal_the_risks_reject(self, signal, error):
        with pytest.raises(error):
            analytic_critical_points_pr(signal)

    @pytest.mark.parametrize(
        "signal", [experiments.XSTAR_PLANE, [1.2, -0.5, 0.3], [2.0]], ids=["plane", "n3", "n1"]
    )
    def test_pr_points_keep_the_bits_of_numpy_norm(self, signal):
        xstar = np.asarray(signal, dtype=float)
        norm_star = float(np.linalg.norm(xstar))
        want = [np.zeros(len(xstar)), xstar, -xstar]
        if len(xstar) >= 2:
            basis, _ = np.linalg.qr(np.column_stack([xstar / norm_star, np.eye(len(xstar))]))
            for i in range(1, len(xstar)):
                saddle = norm_star / math.sqrt(3.0) * basis[:, i]
                want += [saddle, -saddle]
        got = analytic_critical_points_pr(signal)
        assert [p.tolist() for p in got] == [p.tolist() for p in want]


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

    @pytest.mark.parametrize(
        "epsilon, eta", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_thresholds_are_rejected(self, epsilon, eta):
        # they would report a nan or infinite bound
        x = np.zeros(2)
        with pytest.raises(InvalidConfig, match="finite"):
            match_correspondence([x], [x], epsilon, eta)

    @pytest.mark.parametrize("metric", ["euclidean", "sign_euclidean", "procrustes"])
    def test_points_of_different_shapes_are_a_dimension_mismatch(self, metric):
        with pytest.raises(DimensionMismatch, match=r"\(2,\) point"):
            match_correspondence([np.zeros(2)], [np.zeros(3)], 1.0, 1.0, metric=metric)

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


    def test_one_min_eig_call_classifies_a_surface(self, monkeypatch):
        calls = []

        def counted(model, point):
            calls.append(np.shape(point))
            return min_eig(model, point)

        monkeypatch.setattr(critical_points, "min_eig", counted)
        result = find_critical_points(PrPopulationRisk(XSTAR_2D), plane_grid(0.5))
        assert len(result.records) == 5
        assert calls == [(5, 2)]

    def test_a_rank_deficient_record_sends_its_surface_to_the_fallback(self):
        # k = 2: the minimum has full rank and is read on the horizontal
        # space; at U = 0 the Gram matrix U^T U is singular, so the stacked
        # call fails and each record is classified alone, U = 0 through
        # the ambient Hessian
        truth = factor_truth()
        model = MsPopulationRisk(truth)
        points = np.stack([truth.canonical_minimum(), np.zeros((5, 2))])
        got = critical_points._classify_stack(model, points)
        assert got == [critical_points._classify(model, p) for p in points]
        assert [(kind, note) for _, kind, note in got] == [
            (KIND_MIN, ""),
            (KIND_SADDLE, "rank-deficient factor, ambient curvature reported"),
        ]
        result = find_critical_points(model, list(points))
        assert [(r.lambda_min, r.kind, r.note) for r in result.records] == got

    @pytest.mark.parametrize("empirical", [False, True], ids=["population", "empirical"])
    def test_fallback_reads_the_smallest_eigvalsh_eigenvalue(self, empirical):
        # k = 2 factors of rank one and zero: min_eig has no horizontal
        # basis, and the ambient Hessian's eigenvalues are read alone
        truth = factor_truth()
        model = (
            MsEmpiricalRisk(generate_sensing_ensemble(truth, 40, seed=2))
            if empirical
            else MsPopulationRisk(truth)
        )
        gen = rng.stream(17, "rank-deficient", int(empirical))
        points = [np.zeros((5, 2))] + [
            np.outer(rng.normal(gen, (5,)), rng.normal(gen, (2,))) for _ in range(4)
        ]
        for point in points:
            with pytest.raises(GramNotSPD):
                min_eig(model, point)
            lam, _, note = critical_points._classify(model, point)
            want = np.linalg.eigvalsh(dense_euclidean_hessian(model, point))[0]
            assert type(lam) is float
            assert lam == want
            assert note == "rank-deficient factor, ambient curvature reported"


def counting(model_class):
    """A subclass of model_class that logs the point of every gradient and
    every Hessian it evaluates, one entry per item of a stack of points;
    each dense or restricted Hessian is one hess_vec call on a stack of
    directions."""

    class Counting(model_class):
        def __init__(self, *args):
            super().__init__(*args)
            self.grad_points = []
            self.hess_points = []

        def _items(self, point):
            stack = np.asarray(point, dtype=float).reshape(-1, *self.shape)
            return [item.tobytes() for item in stack]

        def euclidean_grad(self, point):
            self.grad_points += self._items(point)
            return super().euclidean_grad(point)

        def hess_vec(self, point, direction):
            self.hess_points += self._items(point)
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

    def test_each_seed_of_a_stack_evaluates_as_alone(self):
        # the x* seed, then seeds that end at -x*, a saddle and the origin,
        # so no point of one trajectory is a point of another
        seeds = [
            np.array([1.13, -1.07]),
            np.array([-1.2, 0.9]),
            np.array([0.6, 0.5]),
            np.array([0.05, -0.02]),
        ]
        alone = []
        for seed in seeds:
            model = counting(PrPopulationRisk)(XSTAR_2D)
            damped_newton(model, seed)
            alone.append(model)
        xstar_points = set(alone[0].grad_points)
        assert all(xstar_points.isdisjoint(m.grad_points) for m in alone[1:])
        model = counting(PrPopulationRisk)(XSTAR_2D)
        damped_newton(model, np.stack(seeds))
        for log in ("grad_points", "hess_points"):
            expected = sum((Counter(getattr(m, log)) for m in alone), Counter())
            assert Counter(getattr(model, log)) == expected
        hessians = sum(p in xstar_points for p in model.hess_points)
        grads = sum(p in xstar_points for p in model.grad_points)
        assert (hessians, grads) == (5, 6)

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
