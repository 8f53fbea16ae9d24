"""Command-line behavior: exit codes, file outputs, determinism.

Invocations run in-process through main(argv) so exit codes and stderr can
be asserted without spawning interpreters. Only the form of a warning on
stderr needs an interpreter of its own, as pytest records warnings instead.
"""

import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oprisk_dynamics import cli, errors, io
from oprisk_dynamics.cli import main
from oprisk_dynamics.errors import DegeneracyWarning
from oprisk_dynamics.ensemble import parameters_from_estimates, run_ensemble
from oprisk_dynamics.ensemble import var as var_fn
from oprisk_dynamics.estimate import collapse_precision, estimate_from_database
from oprisk_dynamics.io import ingest, load_config, read_loss_records, read_samples


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


def degenerate_database(tmp_path):
    """A config and a database in which process 1 loses at every step: its
    base zero-loss ratio is 0, so its theta is unavailable."""
    doc = {
        "model": {"theta": [-1.0], "noise": [{"p": 0.2}], "couplings": [], "horizons": 0},
        "simulation": {"n_steps": 50, "seed": 2, "m_trajectories": 4},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    db = tmp_path / "db.csv"
    db.write_text("t,process,amount\n" + "".join(f"{t},1,1.0\n" for t in range(1, 51)))
    return str(config), str(db)


CATEGORY_CODES = {errors.UsageError: 2, errors.DataError: 3, errors.DegenerateEstimate: 4}
ERROR_CLASSES = [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.OpriskError)
    and value is not errors.OpriskError and value not in CATEGORY_CODES
]


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


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
        out, err = capsys.readouterr()
        assert out.strip() == "3.0"
        assert "warning" in err

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

    def test_non_utf8_samples_are_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_bytes(b"1.0\n2.0\n# caf\xe9\n3.0\n")
        assert main(["var", str(path), "--confidence", "0.5"]) == 3
        err = last_stderr_json(capsys)
        assert err["error"] == "MalformedRecord"
        assert "line 3: byte 0xe9 is not UTF-8" in err["message"]

    def test_bad_confidence_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("1.0\n")
        assert main(["var", str(path), "--confidence", "1.5"]) == 2
        assert last_stderr_json(capsys)["error"] == "ConfigError"

    def test_bad_confidence_is_reported_before_the_file_is_read(self, tmp_path, capsys):
        assert main(["var", "--confidence", "2", str(tmp_path / "absent.txt")]) == 2
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

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = Path(small_config(tmp_path))
        path.write_bytes(path.read_bytes().replace(b"{", b'{"note": "caf\xe9", ', 1))
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = last_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert "line 1" in err["message"]


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

    def test_database_is_binned_by_io_ingest(self, tmp_path, monkeypatch):
        # per-layer timings of the estimate command trace io.ingest by name
        config, db = self.make_database(tmp_path)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(io, "ingest", counted)
        assert main(["estimate", "--config", config, "--database", db,
                     "--out-dir", str(tmp_path / "est")]) == 0
        assert len(calls) == 1

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

    # a file of numeric records, which the NumPy pass would read, and one of
    # ISO timestamps, which only the row parser reads
    @pytest.mark.parametrize(
        "text",
        [
            b"t,process,amount\n1,1,0.5\n2,2,0.3\xe9\n",
            b"t,process,amount\n2026-01-01T00:00:00,1,0.5\n2026-01-01T00:00:02,2,0.3\xe9\n",
        ],
        ids=["numeric", "iso"],
    )
    def test_non_utf8_database_is_a_data_error(self, tmp_path, capsys, text):
        config = small_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text)
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        doc = last_stderr_json(capsys)
        assert doc["error"] == "MalformedRecord"
        assert "line 3" in doc["message"]

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

    # a step number beyond int64; 1e17 steps fit, and estimate below
    @pytest.mark.parametrize("last", ["1e300"])
    def test_unallocatable_timestamp_span_is_a_data_error(self, tmp_path, capsys, last):
        config = small_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,process,amount\n0,1,0.5\n{last},2,0.3\n")
        assert main(["estimate", "--config", config, "--database", str(bad)]) == 3
        assert last_stderr_json(capsys)["error"] == "TimestampSpanOverflow"

    def test_huge_sparse_span_estimates_in_time_and_memory_of_its_records(self, tmp_path):
        # two records 1e17 steps apart: no array of the database's length is built
        config = small_config(tmp_path)
        db = tmp_path / "db.csv"
        db.write_text("t,process,amount\n0,1,0.5\n1e17,2,0.3\n")
        out = tmp_path / "est"
        argv = ["estimate", "--config", config, "--database", str(db), "--out-dir", str(out)]
        tracemalloc.start()
        began = time.perf_counter()
        try:
            with pytest.warns(DegeneracyWarning):
                code = main(argv)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert elapsed < 1.0
        assert peak < 2 * 2**20
        # strict JSON: process 2's zero ratio rounds to 1.0, yet its theta
        # comes from its one loss, never -inf
        doc = json.loads((out / "estimates.json").read_text(), parse_constant=reject_constant)
        assert np.isfinite(doc["theta_hat"]).all()
        # T = 1e17 + 1 steps, all of them at fraction 1, which a float cut
        # would round down to 1e17
        assert doc["diagnostics"]["estimation_steps"] == 10**17 + 1
        assert doc["diagnostics"]["window"] == 2


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

    def test_confidence_levels_are_written_exactly(self, tmp_path, capsys):
        # both levels round to 1 at six significant digits
        config = small_config(tmp_path)
        out = tmp_path / "fc"
        assert main(["forecast", "--config", config, "--out-dir", str(out),
                     "--confidence", "0.9999995", "--confidence", "0.9999999"]) == 0
        rows = list(csv.reader((out / "var_table.csv").read_text().splitlines()))
        assert [row[:2] for row in rows[1:]] == [
            ["1", "0.9999995"], ["1", "0.9999999"], ["2", "0.9999995"], ["2", "0.9999999"]
        ]
        printed = capsys.readouterr().out
        assert "process 1 VaR(0.9999995) = " in printed
        assert "process 1 VaR(0.9999999) = " in printed

    def test_resolution_warning_names_the_confidence_level_exactly(self, tmp_path, capsys):
        # 0.9999995 is no percentile, and rounds to 1 at six significant digits
        config = small_config(tmp_path)
        assert main(["forecast", "--config", config, "--out-dir", str(tmp_path / "fc"),
                     "--confidence", "0.9999995"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 8 samples resolve the confidence level 0.9999995 poorly; "
            "use at least 20000001"
        ]

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

    def test_mean_collapse_forecasts_with_the_precision_mean(self, tmp_path):
        config = small_config(tmp_path, **{"estimation.collapse": "mean"})
        db = tmp_path / "sim" / "database.csv"
        main(["simulate", "--config", config, "--out-dir", str(db.parent)])
        out = tmp_path / "fc"
        code = main(["forecast", "--config", config, "--database", str(db), "--out-dir", str(out)])
        assert code == 0

        run = load_config(config)
        p = run.parameters
        est = estimate_from_database(ingest(read_loss_records(db), 1.0, p.n), p.horizons, p.lam)
        assert any(len(found) > 1 for found in est.candidates.values())
        expected = run_ensemble(
            parameters_from_estimates(est, collapse_precision(est)),
            None, run.n_steps, run.m_trajectories, run.master_seed,
        )
        for i in range(p.n):
            samples = read_samples(out / f"terminal_p{i + 1}.txt")
            assert np.array_equal(samples, expected.terminal_samples[:, i])

    def test_zero_ratio_rounding_to_one_forecasts(self, tmp_path):
        # each process loses at a few of about 1e17 steps: zero ratios that
        # round to 1.0, though no class is lossless
        config = small_config(tmp_path)
        db = tmp_path / "db.csv"
        db.write_text("t,process,amount\n0,2,0.1\n5,1,0.5\n9,2,0.25\n1e17,2,0.3\n")
        out = tmp_path / "fc"
        with pytest.warns(DegeneracyWarning):
            code = main(["forecast", "--config", config, "--database", str(db),
                         "--out-dir", str(out)])
        assert code == 0
        assert (out / "var_table.csv").exists()

    def test_degenerate_database_exit_code(self, tmp_path, capsys):
        config, db = degenerate_database(tmp_path)
        code = main(["forecast", "--config", config, "--database", db,
                     "--out-dir", str(tmp_path / "fc")])
        assert code == 4
        assert last_stderr_json(capsys)["error"] == "EstimationDegenerate"


class TestValidateCommand:
    def test_zero_true_threshold_is_a_usage_error_before_any_work(self, tmp_path, capsys):
        doc = json.loads(Path(io.reference_config_path()).read_text())
        doc["model"]["theta"][3] = 0.0
        doc["model"]["noise"][3] = {"lambda": 2}
        doc["simulation"]["n_steps"] = 2000
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "val"
        assert main(["validate", "--config", str(config), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert last_stderr_json(capsys) == {
            "error": "ZeroTrueValue",
            "message": "theta[4] = 0.0 has no relative error; "
                       "validation needs nonzero true thresholds",
        }

    def test_without_config_runs_the_bundled_reference(self, tmp_path):
        out = tmp_path / "val"
        assert main(["validate", "--trajectories", "2", "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert (report["n_steps"], report["m_trajectories"]) == (200_000, 2)

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

    def test_no_var_resolution_warning(self, tmp_path, capsys):
        # validate computes no VaR: 8 trajectories at confidence 0.9 warn
        # in forecast, never here
        config = small_config(tmp_path, **{"simulation.n_steps": 2000})
        assert main(["validate", "--config", config, "--out-dir", str(tmp_path / "val")]) == 0
        assert "confidence level" not in capsys.readouterr().err

    def test_confidence_flag_is_a_usage_error(self, tmp_path, capsys):
        config = small_config(tmp_path)
        out = tmp_path / "val"
        argv = ["validate", "--config", config, "--out-dir", str(out), "--confidence", "0.9"]
        assert main(argv) == 2
        assert last_stderr_json(capsys)["error"] == "UsageError"
        assert not out.exists()


class TestLineEndings:
    """One line ending per format, on every OS: CSV rows end in CR LF, as
    csv.writer ends them, and samples and JSON lines end in LF."""

    @staticmethod
    def run_every_writer(tmp_path) -> list:
        config = small_config(tmp_path)
        out = tmp_path / "out"
        database = str(out / "sim" / "database.csv")
        for argv in (
            ["simulate", "--out-dir", str(out / "sim")],
            ["estimate", "--database", database, "--out-dir", str(out / "est")],
            ["forecast", "--database", database, "--out-dir", str(out / "fc")],
            ["validate", "--trajectories", "4", "--out-dir", str(out / "val")],
        ):
            assert main([argv[0], "--config", config, *argv[1:]]) == 0, argv[0]
        return sorted(path for path in out.rglob("*") if path.is_file())

    def test_each_format_has_one_line_ending(self, tmp_path):
        files = self.run_every_writer(tmp_path)
        assert {path.suffix for path in files} == {".csv", ".txt", ".json"}
        assert {"var_table.csv", "database.csv", "terminal_p1.txt",
                "estimates.json"} <= {path.name for path in files}
        for path in files:
            data = path.read_bytes()
            if path.suffix == ".csv":
                assert data.count(b"\n") == data.count(b"\r\n") > 0, path.name
            else:
                assert data.endswith(b"\n") and b"\r" not in data, path.name

    def test_io_opens_every_output_without_newline_translation(self, tmp_path, monkeypatch):
        # Linux writes LF with or without newline="", so this checks the
        # argument that keeps other platforms from writing CR LF
        opened, cli_opened = [], []

        def io_open(file, mode="r", *args, **kwargs):
            if "b" not in mode and set(mode) & set("wax+"):
                opened.append((Path(file), kwargs.get("newline")))
            return open(file, mode, *args, **kwargs)

        def cli_open(file, *args, **kwargs):
            cli_opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", io_open, raising=False)
        monkeypatch.setattr(cli, "open", cli_open, raising=False)
        files = self.run_every_writer(tmp_path)
        assert cli_opened == []
        assert sorted(path for path, _ in opened) == files
        assert [path.name for path, newline in opened if newline != ""] == []


class TestOutDir:
    @pytest.mark.parametrize("command", ["estimate", "forecast"])
    def test_failed_run_leaves_no_out_dir(self, tmp_path, command, capsys):
        out = tmp_path / "out"
        argv = [command, "--config", small_config(tmp_path),
                "--database", str(tmp_path / "missing.csv"), "--out-dir", str(out)]
        assert main(argv) == 3
        assert last_stderr_json(capsys)["error"] == "FileNotFoundError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "config_value,flag",
        [(None, [""]), ("", []), (5, [])],
        ids=["empty-flag", "empty-config", "number-config"],
    )
    def test_bad_out_dir_is_a_config_error_before_any_work(
        self, tmp_path, capsys, monkeypatch, config_value, flag
    ):
        def fail(*args, **kwargs):
            raise AssertionError("simulate ran")

        monkeypatch.setattr(cli, "simulate", fail)
        config = small_config(tmp_path, **{"output.out_dir": config_value})
        argv = ["simulate", "--config", config] + (["--out-dir"] + flag if flag else [])
        assert main(argv) == 2
        err = last_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert "output.out_dir" in err["message"]

    @pytest.mark.parametrize("command", ["simulate", "estimate", "forecast", "validate"])
    def test_successful_run_creates_a_nested_out_dir(self, tmp_path, command):
        config = small_config(tmp_path, **{"simulation.n_steps": 2000})
        argv = [command, "--config", config]
        if command == "estimate":
            db = tmp_path / "sim"
            assert main(["simulate", "--config", config, "--out-dir", str(db)]) == 0
            argv += ["--database", str(db / "database.csv")]
        out = tmp_path / "a" / "b" / "out"
        assert main(argv + ["--out-dir", str(out)]) == 0
        assert any(out.iterdir())


class TestFlagOverrides:
    def test_successive_calls_share_no_parsed_flags(self, tmp_path):
        # one parser serves every call in a process; a flag given to one call
        # must not reach the next, nor an appended --confidence accumulate
        config = small_config(tmp_path)
        outs = [tmp_path / name for name in ("flags", "config_seed", "same_seed")]
        argv = ["forecast", "--config", config, "--trajectories", "4", "--out-dir"]
        assert main(argv + [str(outs[0]), "--seed", "5",
                            "--confidence", "0.5", "--confidence", "0.8"]) == 0
        assert main(argv + [str(outs[1]), "--confidence", "0.95"]) == 0
        assert main(argv + [str(outs[2]), "--confidence", "0.95", "--seed", "11"]) == 0

        def confidences(out):
            rows = list(csv.reader((out / "var_table.csv").read_text().splitlines()))
            return [row[1] for row in rows[1:]]

        assert confidences(outs[0]) == ["0.5", "0.8", "0.5", "0.8"]
        assert confidences(outs[1]) == ["0.95", "0.95"]
        samples = [(out / "terminal_p1.txt").read_bytes() for out in outs]
        # without --seed the config's seed (11) runs, not the first call's 5
        assert samples[1] == samples[2] != samples[0]

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
            ("model.couplings", [[1, 2, 0.4], [1, 2, 0.5]]),
        ],
        ids=["horizons-401-digits", "resolution-401-digits", "horizons-ragged",
             "couplings-repeated-pair"],
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


class TestExitCodes:
    def test_every_error_has_exactly_one_category(self):
        assert len(ERROR_CLASSES) == 21
        for cls in ERROR_CLASSES:
            assert sum(issubclass(cls, base) for base in CATEGORY_CODES) == 1, cls

    @pytest.mark.parametrize(
        ("cls", "code"),
        [(cls, code) for cls in ERROR_CLASSES for base, code in CATEGORY_CODES.items()
         if issubclass(cls, base)]
        + list(CATEGORY_CODES.items())
        + [(OSError, 3), (errors.OpriskError, 1), (ValueError, 1), (RuntimeError, 1)],
        ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
    )
    def test_an_error_exits_with_its_category_code(self, monkeypatch, capsys, cls, code):
        def command(args):
            # built without __init__, whose arguments differ from class to class
            raise cls.__new__(cls)

        monkeypatch.setitem(cli._COMMANDS, "var", command)
        assert main(["var", "samples.txt"]) == code
        assert last_stderr_json(capsys)["error"] == cls.__name__


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


class TestWarningLines:
    @pytest.mark.parametrize(("command", "exit_code"), [("estimate", 0), ("forecast", 4)])
    def test_degeneracy_warning_is_one_line_without_a_source_location(
        self, tmp_path, command, exit_code
    ):
        config, db = degenerate_database(tmp_path)
        src = str(Path(io.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "oprisk_dynamics.cli", command, "--config", config,
             "--database", db, "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert done.returncode == exit_code
        lines = done.stderr.splitlines()
        warning = "warning: process 1: base zero-loss ratio is 0, theta degenerate at 0"
        assert lines[0] == warning
        assert ".py:" not in done.stderr
        if exit_code:
            # the warning printed as it was raised, before the error line
            assert lines[1:] == [
                '{"error": "EstimationDegenerate", "message": '
                '"no usable theta estimate for process(es): 1"}'
            ]
        else:
            assert lines == [warning]
