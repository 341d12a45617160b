"""CLI tests: grammar, config file handling, seed resolution, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landscape_lab import cli, errors, experiments, rng
from landscape_lab.errors import ConfigError, InvalidConfig, NonFiniteEntry, NumericalFailure


class TestParsing:
    def test_measurement_lists(self):
        assert cli.parse_m("30") == (30,)
        assert cli.parse_m("50, 400,1600") == (50, 400, 1600)
        for bad in ("", "a", "50,,", "50;400"):
            with pytest.raises(InvalidConfig):
                cli.parse_m(bad)

    def test_grid_specs(self):
        assert cli.parse_grid("-2:2:81") == (-2.0, 2.0, 81)
        assert cli.parse_grid("0.5:1.5:11") == (0.5, 1.5, 11)
        for bad in ("1:2", "1:2:3:4", "a:b:c", "0:1:ten"):
            with pytest.raises(InvalidConfig):
                cli.parse_grid(bad)

    def test_negative_grid_minimum_survives_argparse(self, tmp_path):
        config = cli.build_config(
            ["pr1d", "--grid", "-1:1:5", "--out", str(tmp_path / "x")]
        )
        assert config.grid == (-1.0, 1.0, 5)

    def test_flags_reach_config(self, tmp_path):
        config = cli.build_config(
            [
                "ms_rank2_dist",
                "--n", "6",
                "--k", "2",
                "--r", "3",
                "--m", "50,100",
                "--trials", "7",
                "--seed", "99",
                "--out", str(tmp_path / "d"),
                "--format", "json",
            ]
        )
        assert config.experiment == "ms_rank2_dist"
        assert (config.n, config.k, config.r) == (6, 2, 3)
        assert config.m == (50, 100)
        assert config.trials == 7
        assert config.master_seed == 99
        assert config.fmt == "json"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidConfig):
            cli.build_config(["pr3d"])

    def test_missing_experiment_rejected(self):
        with pytest.raises(InvalidConfig):
            cli.build_config([])

    def test_unknown_flag_rejected(self):
        with pytest.raises(InvalidConfig):
            cli.build_config(["pr1d", "--sigma", "2"])

    def test_verification_defaults_to_json(self):
        config = cli.build_config(["regions_pr"])
        assert config.fmt == "json"
        config = cli.build_config(["pr1d"])
        assert config.fmt == "csv"


# every config key: its value as written, the ExperimentConfig field it
# sets and the typed value that field gets
KEY_CASES = {
    "n": ("2", "n", 2),
    "k": ("2", "k", 2),
    "r": ("3", "r", 3),
    "m": ("50,100", "m", (50, 100)),
    "trials": ("7", "trials", 7),
    "seed": ("99", "master_seed", 99),
    "grid": ("-1:1:5", "grid", (-1.0, 1.0, 5)),
    "out": ("here", "out", "here"),
    "format": ("json", "fmt", "json"),
    "samples": ("10", "samples", 10),
    "epsilon": ("0.5", "epsilon", 0.5),
    "eta": ("0.25", "eta", 0.25),
    "radius": ("1.2", "radius", 1.2),
    "n_probes": ("30", "n_probes", 30),
    "rank_bound": ("2", "rank_bound", 2),
    "family": ("ms", "family", "ms"),
}


class TestConfigFile:
    def test_file_drives_run(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# distance sweep\n"
            "experiment=ms_rank2_dist\n"
            "m=50,100\n"
            "trials = 2\n"
            "seed=5\n"
            "format=json\n"
        )
        config = cli.build_config(["--config", str(path)])
        assert config.experiment == "ms_rank2_dist"
        assert config.m == (50, 100)
        assert config.trials == 2
        assert config.master_seed == 5

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment=pr1d\nseed=5\nm=10\n")
        config = cli.build_config(["--config", str(path), "--seed", "9", "--m", "20"])
        assert config.master_seed == 9
        assert config.m == (20,)

    def test_extended_keys_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "experiment=assumptions\nfamily=pr\nsamples=10\nepsilon=0.5\n"
            "eta=0.25\nradius=1.2\n"
        )
        config = cli.build_config(["--config", str(path)])
        assert config.family == "pr"
        assert config.samples == 10
        assert config.epsilon == 0.5
        assert config.eta == 0.25
        assert config.radius == 1.2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment=pr1d\nsigma=2\n")
        with pytest.raises(InvalidConfig):
            cli.build_config(["--config", str(path)])

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment=pr1d\nwhat even is this\n")
        with pytest.raises(InvalidConfig):
            cli.build_config(["--config", str(path)])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            cli.build_config(["--config", str(tmp_path / "absent.cfg")])

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment=pr1d\ntrials=two\n")
        with pytest.raises(InvalidConfig):
            cli.build_config(["--config", str(path)])

    def test_every_config_field_has_a_key(self):
        fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
        assert fields - {"experiment"} == {field for _, field, _ in KEY_CASES.values()}

    @pytest.mark.parametrize("key", sorted(KEY_CASES))
    def test_flag_and_file_set_the_same_field(self, key, tmp_path):
        text, field, expected = KEY_CASES[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment=pr1d\n{key}={text}\n")
        by_file = getattr(cli.build_config(["--config", str(path)]), field)
        by_flag = getattr(cli.build_config(["pr1d", f"--{key}", text]), field)
        assert by_file == by_flag == expected
        assert type(by_file) is type(by_flag) is type(expected)


def settings_entries(experiment):
    """``(keys that select the entry, entry)`` for each ``SETTINGS`` entry of
    the experiment; the first assumptions family is the default one."""
    entry = experiments.SETTINGS[experiment]
    if experiment != "assumptions":
        return [({}, entry)]
    first, *rest = entry
    return [({}, entry[first])] + [({"family": f}, entry[f]) for f in rest]


# per SETTINGS entry, a tiny run, and for every key of the entry a value
# other than the run's; a value in REJECTED is read, and refused
TINY_RUNS = {
    "pr1d": (
        {"m": (5,), "grid": (-1.0, 1.0, 5)},
        {"m": (6,), "grid": (-1.0, 1.0, 6), "epsilon": 0.5},
    ),
    "pr2d": (
        {"m": (3,), "grid": (0.0, 0.1, 2)},
        {"m": (4,), "grid": (0.0, 0.1, 3)},
    ),
    "ms2d_rank1": (
        {"m": (3,), "grid": (0.0, 0.1, 2)},
        {"m": (4,), "grid": (0.0, 0.1, 3)},
    ),
    "ms_rank2_dist": (
        {"n": 4, "k": 1, "r": 2, "m": (20,), "trials": 1},
        {"n": 5, "k": 2, "r": 1, "m": (21,), "trials": 2},
    ),
    "assumptions": (
        {"m": (20,), "samples": 2},
        {"family": "ms", "n": 3, "m": (21,), "samples": 3, "epsilon": 0.3,
         "eta": 0.3, "radius": 0.5},
    ),
    "assumptions-ms": (
        {"family": "ms", "n": 4, "k": 1, "r": 2, "m": (20,), "samples": 2},
        {"family": "pr", "n": 5, "k": 2, "r": 1, "m": (21,), "samples": 3,
         "epsilon": 0.3, "eta": 0.3, "radius": 0.5},
    ),
    "regions_ms": (
        {"n": 4, "k": 1, "r": 2, "samples": 2},
        {"n": 5, "k": 2, "r": 1, "samples": 3},
    ),
    "regions_pr": ({"n": 2, "samples": 2}, {"n": 3, "samples": 3}),
    "rip": (
        {"n": 4, "k": 1, "r": 2, "m": (20,), "n_probes": 2},
        {"n": 5, "k": 2, "r": 1, "m": (21,), "rank_bound": 2, "n_probes": 3,
         "epsilon": 0.3, "eta": 0.3},
    ),
}
REJECTED = {
    ("assumptions-ms", "family"): "does not read k, r",
}


class TestKeysRead:
    @pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
    def test_each_unread_key_is_rejected_before_running(self, experiment, tmp_path):
        for selector, entry in settings_entries(experiment):
            for key, (text, field, value) in KEY_CASES.items():
                if field in entry or key in ("seed", "out", "format"):
                    continue
                config = experiments.ExperimentConfig(
                    experiment=experiment,
                    out=str(tmp_path / key),
                    **{**selector, field: value},
                )
                with pytest.raises(InvalidConfig, match=f"does not read {field}"):
                    experiments.run(config)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
    def test_every_key_read_is_accepted(self, experiment):
        for selector, entry in settings_entries(experiment):
            values = {field: value for _, field, value in KEY_CASES.values()}
            values = {**{f: values[f] for f in entry}, **selector}
            one_m = isinstance(entry.get("m"), int)
            if one_m:
                values["m"] = values["m"][:1]  # a list is refused, one M is not
            config = experiments.ExperimentConfig(experiment=experiment, **values)
            resolved = experiments._resolve(config)
            if "m" in entry:
                assert resolved.m == (values["m"][0] if one_m else values["m"])

    @pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
    def test_each_key_read_changes_the_output(self, experiment, tmp_path):
        # a key listed but never read would leave files and hash unchanged
        for selector, entry in settings_entries(experiment):
            name = "-".join([experiment, *selector.values()])
            base, changes = TINY_RUNS[name]
            assert changes.keys() == entry.keys()

            def written(**changed):
                config = experiments.ExperimentConfig(
                    experiment=experiment, out=str(tmp_path / name), **{**base, **changed}
                )
                return [Path(p).read_bytes() for p in experiments.run(config).paths]

            before = written()
            for key, value in changes.items():
                if (name, key) in REJECTED:
                    with pytest.raises(InvalidConfig, match=REJECTED[name, key]):
                        written(**{key: value})
                else:
                    assert written(**{key: value}) != before, key


class TestSeedResolution:
    def test_environment_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(rng.SEED_ENV_VAR, "777")
        config = cli.build_config(["pr1d", "--out", str(tmp_path / "x")])
        assert config.master_seed == 777

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(rng.SEED_ENV_VAR, "777")
        config = cli.build_config(["pr1d", "--seed", "3"])
        assert config.master_seed == 3

    def test_default_master_seed(self):
        config = cli.build_config(["pr1d"])
        assert config.master_seed == rng.DEFAULT_MASTER_SEED


def assert_one_numerical_failure_line(stderr):
    """An overflow reaches the user as the one line of exit 4, without
    numpy's RuntimeWarning lines and the source paths they print."""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), stderr


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        rc = cli.main(
            ["pr1d", "--out", str(tmp_path / "line"), "--grid", "-1:1:21"]
        )
        assert rc == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        summary = json.loads(captured.out.strip().splitlines()[-1])
        assert summary["master_seed"] == rng.DEFAULT_MASTER_SEED
        assert (tmp_path / "line.csv").exists()

    def test_verification_failure_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("experiment=assumptions\nsamples=60\nm=3\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "asm")])
        assert rc == cli.EXIT_VERIFICATION_FAILED
        payload = json.loads((tmp_path / "asm.json").read_text(encoding="utf-8"))
        assert payload["ok"] is False

    def test_verification_pass_is_zero(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("experiment=regions_pr\nsamples=25\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "rp")])
        assert rc == cli.EXIT_OK

    def test_skipped_region_writes_strict_json(self, tmp_path):
        # at k = r = 1 there are no swap saddles, so R2' is skipped
        cfg = tmp_path / "v.cfg"
        cfg.write_text("experiment=regions_ms\nk=1\nr=1\nsamples=3\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "rm")])
        assert rc == cli.EXIT_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "rm.json").read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=reject)
        (r2p,) = [c for c in payload["report"]["checks"] if c["skipped"]]
        assert r2p["region"] == "MS_R2p"
        assert r2p["bound_kind"] == "curvature_ceiling"
        assert r2p["worst_margin"] is None

    def test_singular_gram_fails_one_trial_not_the_sweep(self, tmp_path):
        # at M = 3 one refinement reaches a rank-deficient factor, where
        # horizontal_basis raises GramNotSPD; it counts as a failed trial
        out = tmp_path / "d"
        argv = ["ms_rank2_dist", "--m", "3", "--trials", "2", "--format", "json"]
        rc = cli.main([*argv, "--seed", "20250817", "--out", str(out)])
        assert rc == cli.EXIT_OK
        payload = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
        per_m = payload["per_m"]["3"]
        assert per_m["failed_trials"] >= 1
        assert per_m["failed_trials"] + len(per_m["distances"]) == 2
        assert payload["rows"][0][1] == len(per_m["distances"])

    def test_invalid_config_is_three(self, tmp_path, capsys):
        assert cli.main(["pr1d", "--n", "4"]) == cli.EXIT_INVALID_CONFIG
        assert cli.main(["nope"]) == cli.EXIT_INVALID_CONFIG
        assert cli.main(["pr1d", "--grid", "0:1:1"]) == cli.EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pr2d", "--grid", "0:inf:5"],
            ["pr1d", "--grid", "0:inf:5"],
            ["pr1d", "--grid", "-1e308:1e308:5"],
        ],
        ids=["pr2d-inf", "pr1d-inf", "pr1d-overflowing-span"],
    )
    def test_unbounded_grid_is_three(self, argv, tmp_path, capsys):
        rc = cli.main([*argv, "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "finite span" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["pr1d", "--grid", "-2:2:1000000000000"],
            ["pr2d", "--grid", "-2:2:10000000"],
            ["ms2d_rank1", "--grid", "-2:2:1001"],
            ["pr2d", "--grid", "-1e12:1e12:5"],
        ],
        ids=[
            "pr1d-1e12",
            "pr2d-1e7-squared",
            "ms2d_rank1-1001-squared",
            "pr2d-wide-seed-grid",
        ],
    )
    def test_oversized_grid_is_three(self, argv, tmp_path, capsys):
        # a million values, the cap on seed grids, bounds every grid; the
        # last case has a small contour grid but 2e13 Newton seeds per axis
        rc = cli.main([*argv, "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "million" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_largest_grid_is_accepted(self):
        # a million values exactly: 1000 points per axis of the plane
        config = experiments.ExperimentConfig("pr2d", grid=(-2.0, 2.0, 1000))
        assert config.grid[2] == 1000
        line = experiments.ExperimentConfig("pr1d", grid=(-2.0, 2.0, 10**6))
        assert line.grid[2] == 10**6

    @pytest.mark.parametrize(
        "lines",
        [
            "experiment=pr1d\nepsilon=nan\n",
            "experiment=pr1d\nepsilon=inf\n",
            "experiment=pr1d\nepsilon=-1\n",
            "experiment=pr1d\nepsilon=0\n",
            "experiment=assumptions\nm=3\nsamples=2\neta=inf\n",
            "experiment=assumptions\nm=3\nsamples=2\nradius=inf\n",
        ],
        ids=["eps-nan", "eps-inf", "eps-negative", "eps-zero", "eta-inf", "radius-inf"],
    )
    def test_non_finite_or_non_positive_tolerance_is_three(self, lines, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(lines)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.json").exists()

    def test_non_numeric_float_in_file_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("experiment=pr1d\nepsilon=abc\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "'abc'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unread_key_is_three_and_writes_nothing(self, tmp_path, capsys):
        argv = ["pr1d", "--grid", "-1:1:5", "--n_probes", "5", "--family", "zz"]
        rc = cli.main([*argv, "--samples", "3", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "pr1d does not read samples, n_probes, family" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unread_key_in_file_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("experiment=rip\nsamples=5\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "rip does not read samples" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("experiment", ["pr1d", "assumptions", "rip"])
    def test_m_list_for_one_m_is_three(self, experiment, tmp_path, capsys):
        rc = cli.main([experiment, "--m", "10,20", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert f"{experiment} takes one measurement count, got 10,20" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, n", [("pr1d", 1), ("pr2d", 2), ("ms2d_rank1", 2)])
    def test_fixed_dimension_is_not_a_key(self, experiment, n, tmp_path, capsys):
        # the line and plane experiments fix their dimension; even that
        # value is refused
        rc = cli.main([experiment, "--n", str(n), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert f"{experiment} does not read n" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_rip_target_rank_above_r_is_three(self, tmp_path, capsys):
        rc = cli.main(["rip", "--k", "3", "--r", "1", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert "target rank 3" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["assumptions", "--family", "pr", "--radius", "1e80", "--samples", "3"],
            ["pr1d", "--grid", "-1e100:1e100:3", "--format", "json"],
        ],
        ids=["assumptions-radius-1e80", "pr1d-grid-1e100"],
    )
    def test_non_finite_json_is_four_and_writes_nothing(self, argv, tmp_path):
        # the values overflow to Infinity on the way, which numpy would
        # report as a RuntimeWarning, an error in this suite; a child
        # process runs without that filter, as a user does
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(
            [sys.executable, "-m", "landscape_lab.cli", *argv, "--out", str(tmp_path / "x")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == cli.EXIT_NUMERICAL_FAILURE, done.stderr
        assert_one_numerical_failure_line(done.stderr)
        assert "x.json would hold a non-finite number" in done.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("radius", ["1e120", "1e140"])
    def test_nan_deviation_is_four_and_writes_nothing(self, radius, tmp_path):
        # the gradients overflow and inf - inf is nan, which a sampled
        # supremum would pass over; a child process, as above
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = ["assumptions", "--family", "pr", "--radius", radius, "--samples", "3"]
        done = subprocess.run(
            [sys.executable, "-m", "landscape_lab.cli", *argv, "--out", str(tmp_path / "x")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == cli.EXIT_NUMERICAL_FAILURE, done.stderr
        assert_one_numerical_failure_line(done.stderr)
        assert "deviation is nan" in done.stderr
        assert not any(tmp_path.iterdir())

    def test_infinite_csv_is_four_and_writes_nothing(self, tmp_path):
        # pr1d's risks overflow to inf at +-1e100, in a child process for
        # the same reason as the JSON runs above
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = ["pr1d", "--grid", "-1e100:1e100:3", "--out", str(tmp_path / "x")]
        done = subprocess.run(
            [sys.executable, "-m", "landscape_lab.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == cli.EXIT_NUMERICAL_FAILURE, done.stderr
        assert_one_numerical_failure_line(done.stderr)
        assert "x.csv would hold an infinite number" in done.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, environment_seed",
        [
            (["pr1d", "--seed", "-1"], None),
            (["regions_pr", "--seed", "-5", "--samples", "3"], None),
            (["--config", "seed.cfg"], None),
            (["rip"], "-3"),
        ],
        ids=["pr1d-flag", "regions_pr-flag", "config-file", "environment"],
    )
    def test_negative_seed_is_three_and_writes_nothing(self, argv, environment_seed, tmp_path):
        # the streams' SeedSequence refuses a negative seed; the line and
        # plane experiments, which use only subseed, used to run with one
        (tmp_path / "seed.cfg").write_text("experiment=pr1d\nseed=-2\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        env.pop(rng.SEED_ENV_VAR, None)
        if environment_seed is not None:
            env[rng.SEED_ENV_VAR] = environment_seed
        done = subprocess.run(
            [sys.executable, "-m", "landscape_lab.cli", *argv, "--out", "x"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=60,
        )
        assert done.returncode == cli.EXIT_INVALID_CONFIG, done.stderr
        assert "the master seed must not be negative" in done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seed.cfg"]

    @pytest.mark.parametrize(
        "argv, repeated",
        [
            (["pr2d", "--grid", "-1:1:5", "--m", "3,3"], 3),
            (["ms2d_rank1", "--grid", "-1:1:5", "--m", "10,3,10"], 10),
            (["ms_rank2_dist", "--trials", "2", "--m", "50,50"], 50),
        ],
        ids=["pr2d", "ms2d_rank1", "ms_rank2_dist"],
    )
    def test_repeated_measurement_count_is_three_and_writes_nothing(self, argv, repeated, tmp_path):
        # a count names a surface or a row: a repeated one searched its
        # surface twice and wrote its files twice, or wrote two equal rows
        # under one summary key
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(
            [sys.executable, "-m", "landscape_lab.cli", *argv, "--out", "x"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=60,
        )
        assert done.returncode == cli.EXIT_INVALID_CONFIG, done.stderr
        assert f"lists measurement count {repeated} more than once" in done.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "text, lineno, key",
        [
            ("experiment=pr1d\nm=10\nm=20\n", 3, "m"),
            ("experiment = pr1d\n# a comment\nseed=1\n\nexperiment=pr2d\n", 5, "experiment"),
        ],
        ids=["m", "experiment"],
    )
    def test_key_given_twice_in_file_is_three(self, text, lineno, key, tmp_path, capsys):
        # the second value used to replace the first without a word
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:{lineno}: config key {key!r} given twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["twice.cfg"]

    def test_config_file_not_utf8_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"experiment=pr1d\nm=\xff\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert f"cannot read config file {cfg}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_unwritable_output_is_three(self, tmp_path):
        rc = cli.main(["pr1d", "--out", str(tmp_path / "no" / "dir" / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG

    @pytest.mark.parametrize(
        "argv, first",
        [
            (["pr1d", "--grid", "-1:1:5"], ".csv"),
            (["pr2d", "--grid", "-1:1:5"], "_population_grid.csv"),
            (["regions_pr", "--samples", "3"], ".json"),
        ],
        ids=["pr1d-csv", "pr2d-six-tables", "regions_pr-json"],
    )
    def test_output_into_a_missing_directory_is_three_and_writes_nothing(
        self, argv, first, tmp_path, capsys
    ):
        missing = tmp_path / "missing" / "x"
        rc = cli.main([*argv, "--out", str(missing)])
        assert rc == cli.EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}{first}: ")
        assert not any(tmp_path.iterdir())
        if argv[0] == "pr2d":
            # the same run into a directory that exists writes six tables
            assert cli.main([*argv, "--out", str(tmp_path / "x")]) == cli.EXIT_OK
            assert len(list(tmp_path.glob("x_*.csv"))) == 6

    @pytest.mark.parametrize(
        "error",
        [
            NonFiniteEntry("NaN in table"),
            np.linalg.LinAlgError("Eigenvalues did not converge"),
        ],
        ids=["NonFiniteEntry", "LinAlgError"],
    )
    def test_numerical_failure_is_four(self, error, monkeypatch, capsys):
        def explode(config):
            raise error

        monkeypatch.setattr(experiments, "run", explode)
        rc = cli.main(["pr1d"])
        assert rc == cli.EXIT_NUMERICAL_FAILURE
        assert "numerical failure" in capsys.readouterr().err


# the README's exit-code table: each error class of the package, the exit
# code it maps to and the stderr prefix of that code
CONFIG_ERRORS = (
    "InvalidConfig", "DimensionMismatch", "InvalidRank", "InvalidSampleCount", "ZeroTruthSignal"
)
NUMERICAL_ERRORS = ("NonFiniteEntry", "GramNotSPD", "NotSkew", "NotHorizontal", "SamplerStarved")
PREFIX = {cli.EXIT_INVALID_CONFIG: "error: ", cli.EXIT_NUMERICAL_FAILURE: "numerical failure: "}


class TestErrorBases:
    def test_each_error_derives_from_exactly_one_base(self):
        bases = (errors.LandscapeError, ConfigError, NumericalFailure)
        classes = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.LandscapeError)
            and value not in bases
        ]
        assert sorted(c.__name__ for c in classes) == sorted(CONFIG_ERRORS + NUMERICAL_ERRORS)
        for cls in classes:
            assert [issubclass(cls, ConfigError), issubclass(cls, NumericalFailure)] == [
                cls.__name__ in CONFIG_ERRORS,
                cls.__name__ in NUMERICAL_ERRORS,
            ], cls.__name__

    @pytest.mark.parametrize(
        "error, code",
        [(getattr(errors, name), cli.EXIT_INVALID_CONFIG) for name in CONFIG_ERRORS]
        + [(getattr(errors, name), cli.EXIT_NUMERICAL_FAILURE) for name in NUMERICAL_ERRORS]
        + [
            (np.linalg.LinAlgError, cli.EXIT_NUMERICAL_FAILURE),
            (FloatingPointError, cli.EXIT_NUMERICAL_FAILURE),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
    )
    def test_main_maps_each_error_to_its_exit_code(self, error, code, monkeypatch, capsys):
        def explode(config):
            raise error("the message")

        monkeypatch.setattr(experiments, "run", explode)
        assert cli.main(["pr1d"]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{PREFIX[code]}the message\n"
        assert captured.out == ""


HERE = Path(__file__).resolve().parent


def blas_kernels(env):
    """(loaded, to force) of tests/blas_kernel.py in a child process under
    env, or None where the loaded kernel's name cannot be read."""
    done = subprocess.run(
        [sys.executable, str(HERE / "blas_kernel.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    names = done.stdout.split()
    return names if done.returncode == 0 and len(names) == 2 else None


@pytest.fixture(scope="module")
def second_kernel():
    """The environment without a forced kernel, and the kernel to force."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    kernels = blas_kernels(env)
    if kernels is None:
        pytest.skip("the OpenBLAS kernel name cannot be read from numpy's library")
    default, forced = kernels
    moved = blas_kernels({**env, "OPENBLAS_CORETYPE": forced})
    if moved is None or moved[0] == default:
        pytest.skip(f"OPENBLAS_CORETYPE={forced} does not move the kernel off {default}")
    return env, forced


@pytest.fixture(scope="module")
def output_checks():
    """perfbench/checks.py's digest and compare, the benchmark's tolerance
    check: exact strings, integers, bools and lengths, floats within 1e-6
    relative or 1e-8 absolute."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        from checks import compare, digest
    finally:
        sys.path.pop(0)
    return digest, compare


class TestBlasKernels:
    @pytest.mark.parametrize(
        "argv",
        [["pr2d", "--grid", "-1:1:9", "--m", "20"], ["regions_pr", "--samples", "20"]],
        ids=["pr2d", "regions_pr"],
    )
    def test_outputs_hold_on_a_second_kernel(self, argv, second_kernel, output_checks, tmp_path):
        # another CPU loads another OpenBLAS kernel, which moves last bits:
        # exit codes and the files written stay exact, their values within
        # the benchmark's tolerance
        env, forced = second_kernel
        digest, compare = output_checks
        env = {**env, "PYTHONPATH": str(HERE.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")}
        runs = []
        for kernel in ({}, {"OPENBLAS_CORETYPE": forced}):
            out = tmp_path / (kernel.get("OPENBLAS_CORETYPE") or "default")
            out.mkdir()
            done = subprocess.run(
                [sys.executable, "-m", "landscape_lab.cli", *argv, "--out", "x"],
                capture_output=True,
                text=True,
                env={**env, **kernel},
                cwd=out,
                timeout=120,
            )
            runs.append((done.returncode, sorted(out.iterdir())))
        (want_code, want), (got_code, got) = runs
        assert got_code == want_code
        assert want and [p.name for p in got] == [p.name for p in want]
        for a, b in zip(want, got):
            assert compare(digest(a), digest(b), a.name) == []
