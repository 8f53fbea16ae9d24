"""Validation protocol: the pipeline must equal its parts run by hand.

The oracle reruns each stage through the public API with the documented
derived seeds (stream 0 = database, stream 1 = ensemble master) and demands
byte equality with what run_validation reports.
"""

import json
import warnings

import numpy as np
import pytest

from oprisk_dynamics import errors, validation
from oprisk_dynamics.ensemble import derive_seed, run_ensemble
from oprisk_dynamics.estimate import LossEvents, collapse_precision, estimate_from_database
from oprisk_dynamics.model import ModelParameters, NoiseSpec
from oprisk_dynamics.simulate import simulate
from oprisk_dynamics.validation import ValidationReport, relative_error, run_validation


class TestRelativeError:
    def test_hand_examples(self):
        assert relative_error(0.1, 0.107) == pytest.approx(0.07, abs=1e-12)
        assert relative_error(-1.0, -1.0) == 0.0
        assert relative_error(0.15, 0.141) == pytest.approx(0.06, abs=1e-12)

    def test_sign_insensitive_and_nonnegative(self):
        assert relative_error(-2.0, -1.0) == pytest.approx(0.5)
        assert relative_error(-2.0, -3.0) == pytest.approx(0.5)

    def test_zero_or_nonfinite_true_value_rejected(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(errors.ZeroTrueValue):
                relative_error(bad, 1.0)

    def test_rejection_message_shows_a_plain_number(self):
        with pytest.raises(errors.ZeroTrueValue) as exc:
            relative_error(np.float64(0.0), 1.0)
        assert str(exc.value) == "relative error needs a nonzero finite true value, got 0.0"


class TestRunValidation:
    def test_pipeline_equals_stages_run_by_hand(self, small_parameters):
        p = small_parameters
        master, T, M = 314, 4000, 8
        report = run_validation(p, T, 1.0, M, master)

        truth = simulate(p, None, T, NoiseSpec(rates=p.lam, seed=derive_seed(master, 0)))
        assert np.array_equal(report.z_true, truth.cumulative)

        estimates = estimate_from_database(LossEvents.of(truth.losses), p.horizons, p.lam)
        assert np.array_equal(report.estimates.theta_hat, estimates.theta_hat)
        assert np.array_equal(report.estimates.j_hat, estimates.j_hat)

        ensemble = run_ensemble(estimates, None, T, M, derive_seed(master, 1))
        assert np.array_equal(report.ensemble.terminal_samples, ensemble.terminal_samples)
        assert np.array_equal(report.ensemble.mean_z, ensemble.mean_z)
        assert np.array_equal(report.ensemble.std_z, ensemble.std_z)

        for i in range(p.n):
            assert report.delta_theta[i] == relative_error(p.theta[i], estimates.theta_hat[i])
        collapsed = collapse_precision(estimates)
        assert set(report.delta_j) == {(0, 1)}
        assert report.delta_j[(0, 1)] == relative_error(p.couplings[0, 1], collapsed[0, 1])

        gap = abs(report.z_true[-1] - ensemble.mean_z[-1])
        np.testing.assert_array_equal(report.coverage, gap / ensemble.std_z[-1])

    def test_deterministic_given_seed(self, small_parameters):
        a = run_validation(small_parameters, 1500, 1.0, 4, 9)
        b = run_validation(small_parameters, 1500, 1.0, 4, 9)
        assert np.array_equal(a.z_true, b.z_true)
        assert np.array_equal(a.delta_theta, b.delta_theta)
        assert np.array_equal(a.coverage, b.coverage)
        assert np.array_equal(a.ensemble.terminal_samples, b.ensemble.terminal_samples)

    @pytest.mark.parametrize("seed", [np.int64(9), np.uint64(9)])
    def test_numpy_integer_seed_gives_the_int_seeds_report(self, small_parameters, seed):
        expected = run_validation(small_parameters, 1500, 1.0, 4, 9)
        report = run_validation(small_parameters, 1500, 1.0, 4, seed)
        assert report.z_true.tobytes() == expected.z_true.tobytes()
        assert report.ensemble.terminal_samples.tobytes() == (
            expected.ensemble.terminal_samples.tobytes()
        )
        assert json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())

    def test_fraction_limits_estimation_data(self, small_parameters):
        p = small_parameters
        master, T = 271, 4000
        report = run_validation(p, T, 0.5, 4, master)
        truth = simulate(p, None, T, NoiseSpec(rates=p.lam, seed=derive_seed(master, 0)))
        partial = estimate_from_database(
            LossEvents.of(truth.losses.losses[:2000]), p.horizons, p.lam
        )
        assert np.array_equal(report.estimates.theta_hat, partial.theta_hat)
        assert report.estimates.counts.n_steps == 2000
        assert report.fraction_used == 0.5
        # the forecast still spans the full horizon
        assert report.ensemble.mean_z.shape == (T, p.n)

    def test_report_invariants(self, small_parameters):
        report = run_validation(small_parameters, 3000, 0.8, 6, 55)
        assert np.all(report.delta_theta >= 0.0)
        assert all(d >= 0.0 for d in report.delta_j.values())
        assert np.all(report.coverage >= 0.0)
        assert report.m_trajectories == 6
        assert report.n_steps == 3000

    def test_fraction_validation(self, small_parameters):
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                run_validation(small_parameters, 1000, bad, 4, 0)
        with pytest.raises(errors.DatabaseTooShort):
            # floor(0.001 * 1000) = 1 step < window 3 + 1
            run_validation(small_parameters, 1000, 0.001, 4, 0)

    def test_zero_true_threshold_is_rejected_before_simulating(self, small_parameters, monkeypatch):
        def simulate_never(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(validation, "simulate", simulate_never)
        p = small_parameters
        zero = ModelParameters(
            theta=[p.theta[0], -0.0], lam=p.lam, couplings=p.couplings, horizons=p.horizons
        )
        with pytest.raises(errors.ZeroTrueValue) as exc:
            run_validation(zero, 1000, 1.0, 4, 0)
        assert str(exc.value) == (
            "theta[2] = -0.0 has no relative error; validation needs nonzero true thresholds"
        )

    def test_degenerate_database_propagates(self):
        silent = ModelParameters(
            theta=np.array([-80.0]),
            lam=np.array([1.0]),
            couplings=np.zeros((1, 1)),
            horizons=np.zeros((1, 1), dtype=int),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", errors.DegeneracyWarning)
            with pytest.raises(errors.EstimationDegenerate):
                run_validation(silent, 500, 1.0, 4, 12)

    def test_noninteracting_round_trip(self):
        p = ModelParameters(
            theta=np.array([-1.0, -1.0]),
            lam=np.array([np.log(5.0), np.log(5.0)]),  # loss probability 0.2
            couplings=np.zeros((2, 2)),
            horizons=np.zeros((2, 2), dtype=int),
        )
        report = run_validation(p, 30000, 1.0, 6, 101)
        assert report.delta_theta.max() < 0.05
        assert report.estimates.candidates == {}
        assert report.delta_j == {}


class TestReportSerialization:
    def test_json_round_trip_and_one_based_keys(self, small_parameters):
        report = run_validation(small_parameters, 3000, 0.75, 4, 21)
        doc = report.to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["fraction_used"] == 0.75
        assert back["m_trajectories"] == 4
        assert "1,2" in back["delta_j"]
        assert len(back["delta_theta"]) == 2
        assert len(back["coverage"]) == 2
        assert back["self_test"] is False
        assert "1,2" in back["coupling_candidates"]
        first = back["coupling_candidates"]["1,2"][0]
        assert {"count_class", "estimate", "support"} <= set(first)
        assert back["diagnostics"]["window"] == 3
        assert back["diagnostics"]["estimation_steps"] == 2250
