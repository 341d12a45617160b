"""Experiment runner tests: schemas, frozen values, reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from landscape_lab import experiments, rng
from landscape_lab.errors import InvalidConfig, NonFiniteEntry
from landscape_lab.landscape import PR_R4, pr_region_bounds
from landscape_lab.risk_models import (
    PrEmpiricalRisk,
    PrPopulationRisk,
    generate_phase_problem,
)
from landscape_lab.spectral import dense_euclidean_hessian


def read_csv(path):
    metadata = {}
    rows = []
    columns = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, value = line[2:].split(": ", 1)
                metadata[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, columns, rows


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_config(**kwargs):
    return experiments.run(experiments.ExperimentConfig(**kwargs))


def runner_tables(**kwargs):
    """The resolved config and the tables its runner returns, unwritten."""
    config = experiments._resolve(experiments.ExperimentConfig(**kwargs))
    runner = experiments.RUNNERS[config.experiment]
    return config, runner(config, config.master_seed)[1]


class TestConfigValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidConfig):
            experiments.ExperimentConfig(experiment="pr9d")

    def test_bad_format_rejected(self):
        with pytest.raises(InvalidConfig):
            experiments.ExperimentConfig(experiment="pr1d", fmt="yaml")

    def test_degenerate_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            experiments.ExperimentConfig(experiment="pr1d", grid=(0.0, 1.0, 1))
        with pytest.raises(InvalidConfig):
            experiments.ExperimentConfig(experiment="pr1d", grid=(2.0, -2.0, 11))

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidConfig):
            experiments.ExperimentConfig(experiment="ms_rank2_dist", trials=0)

    def test_zero_measurements_rejected(self):
        with pytest.raises(InvalidConfig):
            experiments.ExperimentConfig(experiment="pr1d", m=(30, 0))

    def test_format_defaults_by_experiment(self):
        for experiment in experiments.EXPERIMENTS:
            config = experiments.ExperimentConfig(experiment=experiment)
            verification = experiment in experiments.VERIFICATION_EXPERIMENTS
            assert config.fmt == ("json" if verification else "csv")

    def test_master_seed_resolves_on_construction(self, monkeypatch):
        monkeypatch.delenv(rng.SEED_ENV_VAR, raising=False)
        config = experiments.ExperimentConfig(experiment="pr1d")
        assert config.master_seed == rng.DEFAULT_MASTER_SEED
        monkeypatch.setenv(rng.SEED_ENV_VAR, "777")
        assert experiments.ExperimentConfig(experiment="pr1d").master_seed == 777
        config = experiments.ExperimentConfig(experiment="pr1d", master_seed=3)
        assert config.master_seed == 3

    @pytest.mark.parametrize(
        "experiment, m, grid, twin",
        [
            ("pr1d", np.array([10]), np.array([-1.0, 1.0, 5.0]), ((10,), (-1.0, 1.0, 5))),
            ("pr1d", np.array(10), [-1.0, 1.0, 5], (10, (-1.0, 1.0, 5))),
            ("pr2d", np.array([3, 10]), np.array([-1.0, 1.0, 5.0]), ((3, 10), (-1.0, 1.0, 5))),
            ("pr2d", [3], np.array([-1.0, 1.0, 5.0]), ((3,), (-1.0, 1.0, 5))),
        ],
        ids=["pr1d-arrays", "pr1d-scalar-array", "pr2d-arrays", "pr2d-list"],
    )
    def test_array_settings_write_what_their_tuples_write(
        self, experiment, m, grid, twin, tmp_path
    ):
        # an array m or grid used to reach _resolve's comparison with the
        # field default, which an array makes elementwise: a ValueError
        config = experiments.ExperimentConfig(experiment, m=m, grid=grid, out=str(tmp_path / "a_"))
        assert (config.m, config.grid) == twin
        a = experiments.run(config)
        m, grid = twin
        b = run_config(experiment=experiment, m=m, grid=grid, out=str(tmp_path / "b_"))
        assert len(a.paths) == len(b.paths) > 0
        for left, right in zip(a.paths, b.paths):
            assert Path(left).read_bytes() == Path(right).read_bytes()
        assert a.summary == b.summary

    def test_verification_run_writes_json_by_default(self, tmp_path):
        out = tmp_path / "rp"
        outcome = run_config(experiment="regions_pr", samples=5, out=str(out))
        assert outcome.paths == (f"{out}.json",)
        assert read_json(outcome.paths[0])["config"]["experiment"] == "regions_pr"


class TestConfigHash:
    def test_run_never_hashes_output_plumbing(self, tmp_path, monkeypatch):
        # config_hash hashes every key it gets, so run must hand it
        # substance only, whichever format is written
        hashed = []
        real = experiments.config_hash

        def spy(resolved):
            hashed.append(dict(resolved))
            return real(resolved)

        monkeypatch.setattr(experiments, "config_hash", spy)
        cases = [
            ("pr1d", "csv", {"grid": (-1.0, 1.0, 5)}),
            ("pr1d", "json", {"grid": (-1.0, 1.0, 5)}),
            ("pr2d", "csv", {"m": (3,), "grid": (-0.2, 0.2, 3)}),
            ("pr2d", "json", {"m": (3,), "grid": (-0.2, 0.2, 3)}),
            ("ms_rank2_dist", "csv", {"m": (20,), "trials": 1}),
            ("ms_rank2_dist", "json", {"m": (20,), "trials": 1}),
            ("regions_pr", "json", {"samples": 3}),
        ]
        for experiment, fmt, extra in cases:
            out = tmp_path / f"{experiment}-{fmt}"
            run_config(experiment=experiment, out=str(out), fmt=fmt, **extra)
        assert len(hashed) == len(cases)
        for (experiment, _, _), resolved in zip(cases, hashed):
            assert resolved["experiment"] == experiment
            assert "out" not in resolved
            assert "format" not in resolved

    def test_sensitive_to_substance(self):
        base = {"experiment": "pr1d", "m": 30, "master_seed": 1}
        assert experiments.config_hash(base) != experiments.config_hash(
            {**base, "master_seed": 2}
        )
        assert experiments.config_hash(base) != experiments.config_hash(
            {**base, "m": 60}
        )


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    out = tmp_path_factory.mktemp("pr1d") / "line"
    outcome = run_config(experiment="pr1d", out=str(out), fmt="csv")
    metadata, columns, rows = read_csv(str(out) + ".csv")
    return outcome, metadata, columns, [[float(c) for c in r] for r in rows]


@pytest.fixture(scope="module")
def pr_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("pr2d") / "p"
    outcome = run_config(
        experiment="pr2d", out=str(out), m=(3,), grid=(-2.0, 2.0, 11)
    )
    return out, outcome


@pytest.fixture(scope="module")
def dist_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("dist") / "d"
    outcome = run_config(
        experiment="ms_rank2_dist",
        out=str(out),
        m=(50, 200),
        trials=4,
        fmt="json",
    )
    return read_json(outcome.paths[0])


class TestPr1d:
    def test_schema(self, table):
        _, metadata, columns, rows = table
        assert columns == ["x", "g", "f", "dg", "df", "d2g", "d2f"]
        assert len(rows) == 401
        for key in ("master_seed", "config_hash", "version"):
            assert key in metadata
        assert metadata["master_seed"] == str(rng.DEFAULT_MASTER_SEED)

    def test_row_at_signal(self, table):
        _, _, _, rows = table
        row = min(rows, key=lambda r: abs(r[0] - 1.0))
        assert abs(row[0] - 1.0) < 1e-12
        x, g, _, dg, _, d2g, _ = row
        assert abs(g) <= 1e-12
        assert abs(dg) <= 1e-12
        assert d2g == pytest.approx(12.0, rel=1e-9)

    def test_row_at_origin(self, table):
        _, _, _, rows = table
        row = min(rows, key=lambda r: abs(r[0]))
        assert row[0] == 0.0
        assert row[1] == pytest.approx(1.5, rel=1e-12)
        assert row[3] == pytest.approx(0.0, abs=1e-12)
        assert row[5] == pytest.approx(-6.0, rel=1e-12)

    def test_empirical_column_finite(self, table):
        _, _, _, rows = table
        assert all(np.isfinite(r[2]) and np.isfinite(r[4]) for r in rows)

    def test_small_gradient_bands_cover_critical_points(self, table):
        outcome = table[0]
        intervals = outcome.summary["small_gradient_intervals"]
        assert len(intervals) == 3
        for target in (-1.0, 0.0, 1.0):
            assert any(lo <= target <= hi for lo, hi in intervals)

    def test_default_cutoff_is_the_far_field_gradient_floor(self, table):
        _, metadata, _, _ = table
        floor = pr_region_bounds(np.array([1.0]))[PR_R4][1]
        assert float(metadata["epsilon"]) == floor

    def test_empirical_expectation_matches_population(self):
        # E f(0) = g(0) = 1.5; Monte-Carlo over fresh measurement draws
        values = []
        for i in range(200):
            problem = generate_phase_problem(
                np.array([1.0]), 30, seed=rng.subseed(7, "pr1d-oracle", i)
            )
            values.append(PrEmpiricalRisk(problem).value(np.array([0.0])))
        assert abs(float(np.mean(values)) - 1.5) <= 0.2

    def test_rejects_other_dimensions(self):
        with pytest.raises(InvalidConfig):
            run_config(experiment="pr1d", n=2)

    def test_rows_equal_a_per_point_loop(self):
        config, tables = runner_tables(
            experiment="pr1d", grid=(-2.0, 2.0, 41), master_seed=5
        )
        xstar = np.array([1.0])
        seed = rng.subseed(5, "pr1d-ensemble", 0)
        pop = PrPopulationRisk(xstar)
        emp = PrEmpiricalRisk(generate_phase_problem(xstar, config.m, seed=seed))
        rows = []
        for x in np.linspace(-2.0, 2.0, 41):
            point = np.array([x])
            rows.append(
                (float(x), pop.value(point), emp.value(point))
                + tuple(float(m.euclidean_grad(point)[0]) for m in (pop, emp))
                + tuple(float(dense_euclidean_hessian(m, point)[0, 0]) for m in (pop, emp))
            )
        assert tables[0][2] == rows

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_config(experiment="pr1d", out=str(tmp_path / "a"), fmt="csv")
        b = run_config(experiment="pr1d", out=str(tmp_path / "b"), fmt="csv")
        bytes_a = Path(a.paths[0]).read_bytes()
        bytes_b = Path(b.paths[0]).read_bytes()
        assert bytes_a == bytes_b

    def test_json_variant(self, tmp_path):
        outcome = run_config(experiment="pr1d", out=str(tmp_path / "line"), fmt="json")
        payload = read_json(outcome.paths[0])
        assert payload["columns"] == ["x", "g", "f", "dg", "df", "d2g", "d2f"]
        assert len(payload["rows"]) == 401
        assert len(payload["small_gradient_intervals"]) == 3
        assert payload["master_seed"] == rng.DEFAULT_MASTER_SEED


class TestPlaneLandscapes:
    def test_emits_grid_and_points_per_surface(self, pr_files):
        out, outcome = pr_files
        expected = {
            f"{out}_{surface}_{kind}.csv"
            for surface in ("population", "m3")
            for kind in ("grid", "points")
        }
        assert set(outcome.paths) == expected

    def test_population_critical_points(self, pr_files):
        out, _ = pr_files
        _, columns, rows = read_csv(f"{out}_population_points.csv")
        assert columns == ["x1", "x2", "grad_norm", "lambda_min", "kind"]
        assert len(rows) == 5
        kinds = sorted(r[4] for r in rows)
        assert kinds == ["LocalMin", "LocalMin"] + ["StrictSaddle"] * 3
        minima = sorted(
            (float(r[0]), float(r[1])) for r in rows if r[4] == "LocalMin"
        )
        assert np.allclose(minima, [(-1.0, 1.0), (1.0, -1.0)], atol=1e-6)

    def test_grid_shape(self, pr_files):
        out, _ = pr_files
        _, columns, rows = read_csv(f"{out}_population_grid.csv")
        assert columns == ["x1", "x2", "value"]
        assert len(rows) == 121
        assert all(np.isfinite(float(r[2])) for r in rows)

    def test_sensing_rank_one_points(self, tmp_path):
        outcome = run_config(
            experiment="ms2d_rank1",
            out=str(tmp_path / "m"),
            m=(3,),
            grid=(-2.0, 2.0, 5),
            fmt="json",
        )
        payload = read_json(outcome.paths[0])
        assert set(payload["surfaces"]) == {"population", "m3"}
        points = payload["surfaces"]["population"]["points"]
        assert len(points) == 3
        origin = min(points, key=lambda p: abs(p[0]) + abs(p[1]))
        assert origin[3] == pytest.approx(-2.0, abs=1e-8)
        assert origin[4] == "StrictSaddle"
        minima = [p for p in points if p[4] == "LocalMin"]
        assert len(minima) == 2

    def test_rejects_other_dimensions(self):
        with pytest.raises(InvalidConfig):
            run_config(experiment="pr2d", n=3)

    @pytest.mark.parametrize("experiment", ["pr2d", "ms2d_rank1"])
    def test_grid_equals_a_per_point_loop(self, experiment):
        config, tables = runner_tables(
            experiment=experiment, m=(3,), grid=(-1.0, 1.5, 9), master_seed=5
        )
        surfaces, _ = experiments._surface_models(config, 5)
        grids = {suffix: rows for suffix, _, rows, _ in tables}
        axis = np.linspace(-1.0, 1.5, 9)
        for name, model in surfaces:
            rows = [
                (float(x1), float(x2), model.value(np.array([x1, x2]).reshape(model.shape)))
                for x1 in axis
                for x2 in axis
            ]
            assert list(grids[f"_{name}_grid"]) == rows


class TestDistanceExperiment:
    def test_schema(self, dist_result):
        result = dist_result
        assert result["columns"] == ["M", "trials_ok", "mean_dist", "std_dist"]
        assert [row[0] for row in result["rows"]] == [50, 200]
        for _, trials_ok, mean, std in result["rows"]:
            assert 1 <= trials_ok <= 4
            assert mean > 0.0 and np.isfinite(mean)
            assert std >= 0.0

    def test_per_trial_detail(self, dist_result):
        for m_key, info in dist_result["per_m"].items():
            assert len(info["distances"]) + info["failed_trials"] == 4

    def test_rerun_is_byte_identical_despite_threads(self, tmp_path):
        kwargs = dict(
            experiment="ms_rank2_dist", m=(50,), trials=4, fmt="csv"
        )
        a = run_config(out=str(tmp_path / "a"), **kwargs)
        b = run_config(out=str(tmp_path / "b"), **kwargs)
        assert Path(a.paths[0]).read_bytes() == Path(b.paths[0]).read_bytes()

    def test_single_trial_has_zero_std(self, tmp_path):
        outcome = run_config(
            experiment="ms_rank2_dist",
            out=str(tmp_path / "one"),
            m=(50,),
            trials=1,
            fmt="json",
        )
        payload = read_json(outcome.paths[0])
        assert payload["rows"][0][3] == 0.0

    def test_rank_budget_gate(self):
        with pytest.raises(InvalidConfig):
            run_config(experiment="ms_rank2_dist", k=4, r=3)

    def test_all_failed_mean_is_strict_json_null(self, tmp_path):
        # at M = 3 the single trial fails, so its mean is over nothing
        kwargs = dict(experiment="ms_rank2_dist", m=(3,), trials=1, master_seed=20250817)
        outcome = run_config(out=str(tmp_path / "d"), fmt="json", **kwargs)
        text = Path(outcome.paths[0]).read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=reject_constant)
        assert payload["per_m"]["3"]["failed_trials"] == 1
        assert payload["rows"][0][2] is None
        assert outcome.summary["means"] == {"3": None}
        json.loads(json.dumps(outcome.summary), parse_constant=reject_constant)
        csv_outcome = run_config(out=str(tmp_path / "c"), fmt="csv", **kwargs)
        _, _, rows = read_csv(csv_outcome.paths[0])
        assert rows[0][2] == "nan"


class TestVerificationRunners:
    def test_regions_pr_passes(self, tmp_path):
        outcome = run_config(
            experiment="regions_pr",
            out=str(tmp_path / "rp"),
            samples=40,
            fmt="json",
        )
        assert outcome.ok is True
        payload = read_json(outcome.paths[0])
        assert payload["ok"] is True
        assert payload["config"]["n"] == 3
        assert len(payload["report"]["checks"]) == 4

    def test_regions_ms_passes(self, tmp_path):
        outcome = run_config(
            experiment="regions_ms",
            out=str(tmp_path / "rm"),
            samples=25,
            fmt="json",
        )
        assert outcome.ok is True
        payload = read_json(outcome.paths[0])
        assert len(payload["report"]["checks"]) == 5
        assert payload["config"]["k"] == 2 and payload["config"]["r"] == 3

    def test_assumptions_small_m_fails_honestly(self, tmp_path):
        outcome = run_config(
            experiment="assumptions",
            out=str(tmp_path / "asm"),
            m=(3,),
            samples=100,
            fmt="json",
        )
        assert outcome.ok is False
        payload = read_json(outcome.paths[0])
        assert payload["report"]["verdicts"]["gradient_proximity"] == "FAIL"
        assert payload["report"]["caveat"] == "Monte-Carlo lower bound of supremum"

    def test_assumptions_sensing_family_runs(self, tmp_path):
        outcome = run_config(
            experiment="assumptions",
            out=str(tmp_path / "asm_ms"),
            family="ms",
            m=(500,),
            samples=15,
            fmt="json",
        )
        payload = read_json(outcome.paths[0])
        assert payload["config"]["family"] == "ms"
        assert set(payload["report"]["verdicts"]) == {
            "gradient_proximity",
            "hessian_proximity",
            "eigenvalue_margin",
        }

    def test_rip_report_shape(self, tmp_path):
        outcome = run_config(
            experiment="rip",
            out=str(tmp_path / "rip"),
            m=(300,),
            n_probes=50,
            fmt="json",
        )
        payload = read_json(outcome.paths[0])
        report = payload["report"]
        assert report["rank_bound"] == 2
        assert report["delta_est"] > 0.0
        assert report["delta_threshold"] > 0.0
        assert payload["ok"] == report["within_threshold"]

    def test_rip_rank_bound_capped_by_dimension(self, tmp_path):
        outcome = run_config(
            experiment="rip",
            out=str(tmp_path / "ripc"),
            n=4,
            k=2,
            r=3,
            m=(100,),
            n_probes=10,
            fmt="json",
        )
        payload = read_json(outcome.paths[0])
        assert payload["report"]["rank_bound"] == 4  # min(r + k, n)

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            run_config(
                experiment="assumptions",
                out=str(tmp_path / "x"),
                family="qr",
                fmt="json",
            )

    def test_csv_format_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            run_config(experiment="regions_pr", out=str(tmp_path / "x"), fmt="csv")

    def test_verification_rerun_identical(self, tmp_path):
        kwargs = dict(experiment="regions_pr", samples=20, fmt="json")
        a = run_config(out=str(tmp_path / "a"), **kwargs)
        b = run_config(out=str(tmp_path / "b"), **kwargs)
        assert Path(a.paths[0]).read_bytes() == Path(b.paths[0]).read_bytes()


def as_csv_cell(value):
    """A JSON cell as write_csv renders it."""
    return experiments.format_float(value) if isinstance(value, float) else str(value)


def reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


TABLE_CASES = {
    "pr1d": dict(grid=(-1.0, 1.0, 9), m=(10,)),
    "pr2d": dict(grid=(-1.0, 1.0, 5), m=(20,)),
    "ms2d_rank1": dict(grid=(-0.5, 0.5, 3), m=(20,)),
    "ms_rank2_dist": dict(m=(50,), trials=2),
}


class TestSingleWriter:
    """CSV and JSON are two renderings of the same runner tables."""

    @pytest.mark.parametrize("experiment", sorted(TABLE_CASES))
    def test_csv_and_json_carry_the_same_tables(self, experiment, tmp_path):
        kwargs = TABLE_CASES[experiment]
        csv_base = str(tmp_path / "c")
        csv_outcome = run_config(experiment=experiment, out=csv_base, fmt="csv", **kwargs)
        json_outcome = run_config(
            experiment=experiment, out=str(tmp_path / "j"), fmt="json", **kwargs
        )
        assert json_outcome.paths == (str(tmp_path / "j") + ".json",)
        payload = read_json(json_outcome.paths[0])
        if "surfaces" in payload:
            keys = [
                (surface, kind)
                for surface in ("population", f"m{kwargs['m'][0]}")
                for kind in ("grid", "points")
            ]
            expected_paths = [f"{csv_base}_{surface}_{kind}.csv" for surface, kind in keys]
            json_tables = [payload["surfaces"][surface][kind] for surface, kind in keys]
        else:
            expected_paths = [csv_base + ".csv"]
            json_tables = [payload["rows"]]
        assert list(csv_outcome.paths) == expected_paths
        for path, json_rows in zip(csv_outcome.paths, json_tables):
            metadata, _, csv_rows = read_csv(path)
            assert csv_rows == [[as_csv_cell(v) for v in row] for row in json_rows]
            assert metadata["experiment"] == experiment
            assert metadata["config_hash"] == payload["config_hash"]
            assert int(metadata["master_seed"]) == payload["master_seed"]
        assert csv_outcome.summary == json_outcome.summary

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(experiment="assumptions", m=(3,), samples=20),
            dict(experiment="assumptions", family="ms", m=(100,), samples=5),
            dict(experiment="regions_ms", k=1, r=1, samples=3),
            dict(experiment="regions_pr", n=1, samples=10),
            dict(experiment="rip", m=(100,), n_probes=10),
        ],
        ids=["assumptions_pr", "assumptions_ms", "regions_ms", "regions_pr", "rip"],
    )
    def test_verification_json_is_strict(self, kwargs, tmp_path):
        outcome = run_config(out=str(tmp_path / "v"), fmt="json", **kwargs)
        text = Path(outcome.paths[0]).read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=reject_constant)
        assert payload["ok"] is outcome.ok
        assert payload["config"]["experiment"] == kwargs["experiment"]
        assert payload["config_hash"] == outcome.summary["config_hash"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_with_a_non_finite_number_is_not_written(self, value, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(NonFiniteEntry, match="non-finite"):
            experiments.write_json(str(path), {"rows": [[1.0, value]]})
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_csv_with_an_infinite_cell_writes_no_table(self, value, tmp_path, monkeypatch):
        # the infinity sits in the second table: the first is not written either
        def runner(config, master):
            tables = [("_a", ("x",), [(1.0,)], {}), ("_b", ("x",), [(value,)], {})]
            return {}, tables, {}, {}, True

        monkeypatch.setitem(experiments.RUNNERS, "pr1d", runner)
        with pytest.raises(NonFiniteEntry, match="x_b.csv would hold an infinite number"):
            run_config(experiment="pr1d", out=str(tmp_path / "x"), fmt="csv")
        assert not any(tmp_path.iterdir())

    def test_csv_nan_is_the_null_cell(self, tmp_path, monkeypatch):
        def runner(config, master):
            return {}, [("", ("x",), [(float("nan"),)], {})], {}, {}, True

        monkeypatch.setitem(experiments.RUNNERS, "pr1d", runner)
        outcome = run_config(experiment="pr1d", out=str(tmp_path / "x"), fmt="csv")
        assert Path(outcome.paths[0]).read_text(encoding="utf-8").endswith("\nx\nnan\n")


class TestCsvText:
    # every cell type a runner writes, the extreme finite floats, both signs
    # of zero next to each other in a row of floats, and a short row
    COLUMNS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
    ROWS = [
        (True, False, 3, np.int64(-4), 10**20, np.float64(0.1), np.float32(0.1), -0.0, math.nan,
         "LocalMin"),
        (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.nan,
         1 / 3, 1e-17, 2.5),
        (-0.0, 0.0, 1.0, -1.0, 123456.789, 1e22, 1e-7, 0.1, 0.30000000000000004, -2.5e300),
        (1, 0.5, "x", np.float64(-0.0), 0.0, -0.0, np.nan, np.float64(np.nan), 7, False),
        (0.5, -0.0, 1e300),
    ]

    def test_rows_equal_the_per_cell_format(self):
        metadata = {"m": 3, "epsilon": 0.25, "surface": "m3"}
        text = experiments._csv_text("t.csv", self.COLUMNS, self.ROWS, metadata)
        want = [f"# {key}: {experiments._format_cell(value)}" for key, value in metadata.items()]
        want.append(",".join(self.COLUMNS))
        want += [",".join(experiments._format_cell(cell) for cell in row) for row in self.ROWS]
        assert text == "\n".join(want) + "\n"
        assert text.splitlines()[5].startswith("0,-0,4.9406564584124654e-324,")
        assert text.splitlines()[6].startswith("-0,0,1,-1,")

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, np.float64(math.inf), np.float32(-math.inf)]
    )
    @pytest.mark.parametrize("row", [1, 3], ids=["float-row", "mixed-row"])
    def test_an_infinite_cell_raises(self, value, row):
        rows = list(self.ROWS)
        rows[row] = (*rows[row][:4], value, *rows[row][5:])
        with pytest.raises(NonFiniteEntry, match="t.csv would hold an infinite number"):
            experiments._csv_text("t.csv", self.COLUMNS, rows, {})


    # a contour grid's coordinate columns, with both signs of zero at
    # different rows, and its surfaces' values
    GRID = [[0.0, -0.0, 5e-324, 1 / 3], [-0.0, 0.0, -1.7976931348623157e308, 2.5]]

    def test_grid_rows_equal_the_float_rows(self):
        coordinates = experiments._Coordinates(self.GRID)
        tables = [[1.0, -0.0, math.nan, 0.1], [-2.5e300, 0.0, 1e-7, -0.0]]
        for values in tables:
            rows = experiments._GridRows(coordinates, values)
            assert list(rows) == list(zip(*self.GRID, values))
            columns = ("x1", "x2", "value")
            text = experiments._csv_text("t.csv", columns, rows, {"surface": "m3"})
            assert text == experiments._csv_text("t.csv", columns, list(rows), {"surface": "m3"})
        assert text.splitlines()[2:4] == ["0,-0,-2.5000000000000001e+300", "-0,0,0"]
        # formatted once, for the first table, and kept for the second
        assert vars(coordinates)["text"][:2] == ["0,-0", "-0,0"]

    def test_only_json_builds_the_row_tuples(self, tmp_path, monkeypatch):
        built = []
        iterate = experiments._GridRows.__iter__
        monkeypatch.setattr(
            experiments._GridRows, "__iter__", lambda rows: built.append(rows) or iterate(rows)
        )
        kwargs = {"experiment": "pr2d", "m": (3,), "grid": (-0.2, 0.2, 3)}
        run_config(out=str(tmp_path / "c"), fmt="csv", **kwargs)
        assert built == []
        run_config(out=str(tmp_path / "j"), fmt="json", **kwargs)
        assert len(built) == 2  # the population and the M = 3 grid

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_an_infinite_grid_value_raises(self, value):
        rows = experiments._GridRows(experiments._Coordinates(self.GRID), [0.0, value, 1.0, 2.0])
        with pytest.raises(NonFiniteEntry, match="t.csv would hold an infinite number"):
            experiments._csv_text("t.csv", ("x1", "x2", "value"), rows, {})


class TestFloatFormatting:
    def test_seventeen_significant_digits(self):
        assert experiments.format_float(1.0 / 3.0) == "0.33333333333333331"
        assert experiments.format_float(0.0) == "0"

    def test_round_trips_exactly(self):
        for value in (1 / 3, 1e-17, 123456.789, -2.5e300):
            assert float(experiments.format_float(value)) == value
