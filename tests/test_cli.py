"""Command-line behavior: exit codes, file outputs, determinism.

All invocations run in-process through main(argv) so exit codes and stderr
can be asserted without spawning interpreters.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from oprisk_dynamics.cli import main
from oprisk_dynamics.ensemble import var as var_fn
from oprisk_dynamics.io import read_samples


def small_config(tmp_path, **overrides):
    doc = {
        "model": {
            "theta": [-1.0, -1.0],
            "noise": [{"p": 0.2}, {"p": 0.2}],
            "couplings": [[1, 2, 0.4]],
            "horizons": 2,
        },
        "simulation": {"n_steps": 300, "seed": 11, "m_trajectories": 8},
        "estimation": {"fraction": 1.0, "collapse": "sample-per-run"},
        "output": {"confidences": [0.9], "resolution": 1.0, "histogram_bins": 10},
    }
    for dotted, value in overrides.items():
        block, key = dotted.split(".")
        if value is None:
            doc[block].pop(key, None)
        else:
            doc[block][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def last_stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


class TestVarCommand:
    def test_nearest_rank_on_large_file(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("".join(f"{v}.0\n" for v in range(1, 10001)))
        assert main(["var", str(path), "--confidence", "0.999"]) == 0
        out = capsys.readouterr().out
        assert "9990.0" in out

    def test_multiple_confidences_in_order(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("".join(f"{v}.0\n" for v in range(1, 101)))
        assert main(["var", str(path), "--confidence", "0.5", "--confidence", "0.95"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["50.0", "95.0"]

    def test_default_confidence_and_resolution_warning(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        assert main(["var", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "3.0"
        assert "warning" in captured.err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        assert main(["var", str(tmp_path / "absent.txt")]) == 3
        doc = last_stderr_json(capsys)
        assert doc["error"] == "FileNotFoundError"
        assert doc["message"]

    def test_non_finite_sample_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("1\nnan\n2\n")
        assert main(["var", str(path), "--confidence", "0.5"]) == 3
        err = last_stderr_json(capsys)
        assert err["error"] == "MalformedRecord"
        assert "line 2" in err["message"]

    def test_bad_confidence_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("1.0\n")
        assert main(["var", str(path), "--confidence", "1.5"]) == 2
        assert last_stderr_json(capsys)["error"] == "ConfigError"


class TestSimulateCommand:
    def test_writes_database_and_cumulative(self, tmp_path, capsys):
        config = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        db = (out / "database.csv").read_text()
        z = (out / "cumulative.csv").read_text()
        assert db.startswith("t,process,amount\n")
        assert z.startswith("t,process,value\n")
        assert len(z.splitlines()) == 1 + 300 * 2

    def test_same_seed_is_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", config, "--out-dir", str(out2)]) == 0
        assert (out1 / "database.csv").read_bytes() == (out2 / "database.csv").read_bytes()
        assert (out1 / "cumulative.csv").read_bytes() == (out2 / "cumulative.csv").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        config = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out-dir", str(out1)])
        main(["simulate", "--config", config, "--out-dir", str(out2), "--seed", "12"])
        assert (out1 / "database.csv").read_bytes() != (out2 / "database.csv").read_bytes()

    def test_missing_seed_everywhere_is_a_config_error(self, tmp_path, capsys):
        config = small_config(tmp_path, **{"simulation.seed": None})
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2
        doc = last_stderr_json(capsys)
        assert doc["error"] == "ConfigError"
        assert "seed" in doc["message"]

    def test_missing_config_flag(self, tmp_path, capsys):
        assert main(["simulate", "--out-dir", str(tmp_path)]) == 2
        assert "--config" in last_stderr_json(capsys)["message"]

    def test_broken_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == 2
        assert last_stderr_json(capsys)["error"] == "ConfigError"


class TestEstimateCommand:
    def make_database(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        return config, str(out / "database.csv")

    def test_writes_estimates_json(self, tmp_path, capsys):
        config, db = self.make_database(tmp_path)
        out = tmp_path / "est"
        code = main(["estimate", "--config", config, "--database", db, "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "estimates.json").read_text())
        assert len(doc["theta_hat"]) == 2
        assert doc["fraction_used"] == 1.0
        assert "1,2" in doc["coupling_candidates"]
        assert "diagnostics" in doc

    def test_fraction_flag_is_recorded(self, tmp_path):
        config, db = self.make_database(tmp_path)
        out = tmp_path / "est"
        main(["estimate", "--config", config, "--database", db,
              "--out-dir", str(out), "--fraction", "0.5"])
        doc = json.loads((out / "estimates.json").read_text())
        assert doc["fraction_used"] == 0.5
        # default binning spans first to last record, not the raw horizon
        times = [int(r[0]) for r in list(csv.reader(Path(db).read_text().splitlines()))[1:]]
        data_steps = max(times) - min(times) + 1
        assert doc["diagnostics"]["estimation_steps"] == data_steps // 2

    def test_too_short_database_is_a_data_error(self, tmp_path, capsys):
        config, _ = self.make_database(tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("t,process,amount\n1,1,2.0\n")
        assert main(["estimate", "--config", config, "--database", str(short)]) == 3
        assert last_stderr_json(capsys)["error"] == "DatabaseTooShort"

    def test_malformed_database(self, tmp_path, capsys):
        config, _ = self.make_database(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("t,process,amount\n1,1,not-a-number\n")
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        assert last_stderr_json(capsys)["error"] == "MalformedRecord"

    def test_overflowing_timestamp_span_is_a_data_error(self, tmp_path, capsys):
        config = small_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("t,process,amount\n-1e308,1,0.5\n1e308,2,0.3\n")
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        assert last_stderr_json(capsys)["error"] == "TimestampSpanOverflow"

    @pytest.mark.parametrize("timestamp", ["nan", "inf"])
    def test_non_finite_timestamp_is_a_data_error(self, tmp_path, capsys, timestamp):
        config = small_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,process,amount\n1,1,0.5\n{timestamp},2,0.3\n")
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        doc = last_stderr_json(capsys)
        assert doc["error"] == "MalformedRecord"
        assert "line 3" in doc["message"]

    @pytest.mark.parametrize(
        "rows,error,where",
        [
            (["1,1,0.5", "2,2," + "9" * 131_073], "MalformedRecord", "line 3"),
            (["1,1,1e308", "1,1,1e308"], "NonPositiveAmount", "step 1, process 1"),
        ],
    )
    def test_unreadable_row_or_overflowing_bin_is_a_data_error(
        self, tmp_path, capsys, rows, error, where
    ):
        config = small_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("t,process,amount\n" + "\n".join(rows) + "\n")
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        doc = last_stderr_json(capsys)
        assert doc["error"] == error
        assert where in doc["message"]

    @pytest.mark.parametrize("last", ["1e300", "1e17"])
    def test_unallocatable_timestamp_span_is_a_data_error(self, tmp_path, capsys, last):
        config = small_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,process,amount\n0,1,0.5\n{last},2,0.3\n")
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        assert last_stderr_json(capsys)["error"] == "TimestampSpanOverflow"


class TestForecastCommand:
    def test_from_parameters_writes_everything(self, tmp_path, capsys):
        config = small_config(tmp_path)
        out = tmp_path / "fc"
        assert main(["forecast", "--config", config, "--out-dir", str(out)]) == 0
        for name in [
            "forecast_mean_z.csv",
            "forecast_std_z.csv",
            "terminal_p1.txt",
            "terminal_p2.txt",
            "histogram_p1.csv",
            "histogram_p2.csv",
            "var_table.csv",
        ]:
            assert (out / name).exists(), name
        assert "VaR(0.9)" in capsys.readouterr().out

    def test_var_table_matches_terminal_samples(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "fc"
        main(["forecast", "--config", config, "--out-dir", str(out)])
        rows = list(csv.reader((out / "var_table.csv").read_text().splitlines()))
        assert rows[0] == ["process", "confidence", "var"]
        table = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        for i in (1, 2):
            samples = read_samples(out / f"terminal_p{i}.txt")
            assert table[(str(i), "0.9")] == var_fn(samples, 0.9)

    def test_trajectories_flag_overrides(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "fc"
        main(["forecast", "--config", config, "--out-dir", str(out), "--trajectories", "4"])
        assert len(read_samples(out / "terminal_p1.txt")) == 4

    def test_from_database_runs_estimation_first(self, tmp_path):
        config = small_config(tmp_path)
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", config, "--out-dir", str(sim_out)])
        out = tmp_path / "fc"
        code = main([
            "forecast", "--config", config, "--database", str(sim_out / "database.csv"),
            "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "var_table.csv").exists()

    def test_degenerate_database_exit_code(self, tmp_path, capsys):
        doc = {
            "model": {"theta": [-1.0], "noise": [{"p": 0.2}], "couplings": [], "horizons": 0},
            "simulation": {"n_steps": 50, "seed": 2, "m_trajectories": 4},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        db = tmp_path / "db.csv"
        db.write_text("t,process,amount\n" + "".join(f"{t},1,1.0\n" for t in range(1, 51)))
        code = main(["forecast", "--config", str(config), "--database", str(db),
                     "--out-dir", str(tmp_path / "fc")])
        assert code == 4
        assert last_stderr_json(capsys)["error"] == "EstimationDegenerate"


class TestValidateCommand:
    def test_writes_report_and_series(self, tmp_path, capsys):
        config = small_config(tmp_path, **{"simulation.n_steps": 2000})
        out = tmp_path / "val"
        assert main(["validate", "--config", config, "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert len(report["delta_theta"]) == 2
        assert len(report["coverage"]) == 2
        assert report["self_test"] is False
        for name in ["z_true.csv", "forecast_mean_z.csv", "forecast_std_z.csv",
                     "histogram_p1.csv", "histogram_p2.csv"]:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "delta_theta" in stdout
        assert "coverage" in stdout

    def test_flag_overrides_reach_the_report(self, tmp_path):
        config = small_config(tmp_path, **{"simulation.n_steps": 2000})
        out = tmp_path / "val"
        main(["validate", "--config", config, "--out-dir", str(out),
              "--fraction", "0.8", "--trajectories", "4", "--seed", "77"])
        report = json.loads((out / "validation_report.json").read_text())
        assert report["fraction_used"] == 0.8
        assert report["m_trajectories"] == 4
        assert report["master_seed"] == 77


class TestFlagOverrides:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("forecast", "--seed", "-1"),
            ("forecast", "--trajectories", "1"),
            ("validate", "--fraction", "0"),
            ("validate", "--fraction", "1.5"),
            ("forecast", "--confidence", "1.0"),
            ("forecast", "--resolution", "0"),
            ("forecast", "--resolution", "nan"),
            ("forecast", "--resolution", "inf"),
            ("simulate", "--seed", str(2**64)),
            ("forecast", "--seed", str(2**64)),
        ],
    )
    def test_out_of_range_flag_is_a_config_error(self, tmp_path, capsys, command, flag, value):
        config = small_config(tmp_path)
        argv = [command, "--config", config, "--out-dir", str(tmp_path / "out"), flag, value]
        assert main(argv) == 2
        assert last_stderr_json(capsys)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value", [("simulation.n_steps", True), ("simulation.seed", True)]
    )
    def test_boolean_config_number_is_a_config_error(self, tmp_path, capsys, key, value):
        config = small_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        err = last_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("model.horizons", 10**400),
            ("output.resolution", 10**400),
            ("model.horizons", [[1, 2], [3]]),
        ],
        ids=["horizons-401-digits", "resolution-401-digits", "horizons-ragged"],
    )
    def test_config_value_its_field_cannot_hold_is_a_config_error(
        self, tmp_path, capsys, key, value
    ):
        config = small_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        err = last_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not (tmp_path / "out").exists()

    def test_config_block_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        doc = json.loads(Path(small_config(tmp_path)).read_text())
        doc["estimation"] = 5
        config.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        err = last_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert "'estimation'" in err["message"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out
