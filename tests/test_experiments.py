"""Experiment runner tests: schemas, frozen values, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from landscape_lab import experiments, rng
from landscape_lab.errors import InvalidConfig
from landscape_lab.risk_models import PrEmpiricalRisk, generate_phase_problem


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


class TestConfigHash:
    def test_ignores_output_plumbing(self):
        base = {"experiment": "pr1d", "m": 30, "master_seed": 1}
        a = experiments.config_hash({**base, "out": "a", "format": "csv"})
        b = experiments.config_hash({**base, "out": "b", "format": "json"})
        assert a == b

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

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_config(experiment="pr1d", out=str(tmp_path / "a"), fmt="csv")
        b = run_config(experiment="pr1d", out=str(tmp_path / "b"), fmt="csv")
        bytes_a = open(a.paths[0], "rb").read()
        bytes_b = open(b.paths[0], "rb").read()
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
        assert open(a.paths[0], "rb").read() == open(b.paths[0], "rb").read()

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


class TestFloatFormatting:
    def test_seventeen_significant_digits(self):
        assert experiments.format_float(1.0 / 3.0) == "0.33333333333333331"
        assert experiments.format_float(0.0) == "0"

    def test_round_trips_exactly(self):
        for value in (1 / 3, 1e-17, 123456.789, -2.5e300):
            assert float(experiments.format_float(value)) == value
