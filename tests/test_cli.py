"""CLI tests: grammar, config file handling, seed resolution, exit codes."""

import json

import pytest

from landscape_lab import cli, experiments, rng
from landscape_lab.errors import InvalidConfig, NonFiniteEntry


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

    def test_extended_keys_only_in_file(self, tmp_path):
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

    def test_invalid_config_is_three(self, tmp_path, capsys):
        assert cli.main(["pr1d", "--n", "4"]) == cli.EXIT_INVALID_CONFIG
        assert cli.main(["nope"]) == cli.EXIT_INVALID_CONFIG
        assert cli.main(["pr1d", "--grid", "0:1:1"]) == cli.EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unwritable_output_is_three(self, tmp_path):
        rc = cli.main(["pr1d", "--out", str(tmp_path / "no" / "dir" / "x")])
        assert rc == cli.EXIT_INVALID_CONFIG

    def test_numerical_failure_is_four(self, monkeypatch, capsys):
        def explode(config):
            raise NonFiniteEntry("NaN in table")

        monkeypatch.setattr(experiments, "run", explode)
        rc = cli.main(["pr1d"])
        assert rc == cli.EXIT_NUMERICAL_FAILURE
        assert "numerical failure" in capsys.readouterr().err
