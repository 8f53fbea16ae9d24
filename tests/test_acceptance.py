"""Acceptance gate: the seven shipping criteria, one test each.

Criteria 1-3 exercise the five-process reference scenario at full scale
(T = 200000, M = 1000) across the five master seeds fixed below. The seeds
were chosen before any run and are never tuned; a seed that misses a
tolerance fails, and each criterion passes only if at least four seeds meet
it.
"""

import warnings

import numpy as np
import pytest

from oprisk_dynamics import errors
from oprisk_dynamics.ensemble import derive_seed, run_ensemble, var
from oprisk_dynamics.estimate import (
    LossEvents,
    classify_events,
    collapse_precision,
    estimate_from_counts,
    estimate_from_database,
)
from oprisk_dynamics.model import NoiseSpec
from oprisk_dynamics.simulate import cumulative, simulate
from oprisk_dynamics.validation import relative_error, run_validation

from conftest import brute_force_classify, brute_force_var

SEEDS = (1, 2, 3, 4, 5)
T_REF = 200000
M_REF = 1000
THETA_TOL = 0.03
COUPLING_TOL = 0.15
COVERAGE_TOL = 1.5
MIN_PASSING_SEEDS = 4


@pytest.fixture(scope="session")
def reference_validations(reference_parameters):
    """One full validation run per master seed; shared by criteria 1, 3, 5."""
    reports = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.DegeneracyWarning)
        for seed in SEEDS:
            reports[seed] = run_validation(
                reference_parameters, T_REF, 1.0, M_REF, seed
            )
    return reports


def seed_recovers_parameters(delta_theta, delta_j):
    return bool(
        np.all(delta_theta <= THETA_TOL)
        and all(d <= COUPLING_TOL for d in delta_j.values())
    )


def format_errors(seed, delta_theta, delta_j, ok):
    worst_j = max(delta_j.values())
    return (
        f"seed {seed}: max|dtheta| = {delta_theta.max():.4f}, "
        f"max dJ = {worst_j:.4f} -> {'pass' if ok else 'FAIL'}"
    )


def test_criterion_1_full_database_parameter_recovery(reference_validations):
    """Reference scenario, fraction 1.0: every relative threshold error
    <= 0.03 and every nonzero-coupling error (candidates collapsed by their
    inverse-variance mean) <= 0.15, in at least 4 of the 5 seeds."""
    lines, passing = [], 0
    for seed in SEEDS:
        report = reference_validations[seed]
        ok = seed_recovers_parameters(report.delta_theta, report.delta_j)
        passing += ok
        lines.append(format_errors(seed, report.delta_theta, report.delta_j, ok))
    print()
    for line in lines:
        print(line)
    print(f"criterion 1: {passing}/{len(SEEDS)} seeds pass (need {MIN_PASSING_SEEDS})")
    assert passing >= MIN_PASSING_SEEDS, "\n".join(lines)


def test_criterion_2_three_quarter_database_recovery(reference_parameters):
    """Same bounds with the estimator restricted to the first 75% of each
    database."""
    p = reference_parameters
    lines, passing = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.DegeneracyWarning)
        for seed in SEEDS:
            db = simulate(p, None, T_REF, NoiseSpec(rates=p.lam, seed=derive_seed(seed, 0)))
            est_steps = int(0.75 * T_REF)
            estimates = estimate_from_database(
                LossEvents.of(db.losses.losses[:est_steps]), p.horizons, p.lam
            )
            delta_theta = np.array(
                [relative_error(p.theta[i], estimates.theta_hat[i]) for i in range(p.n)]
            )
            collapsed = collapse_precision(estimates)
            delta_j = {
                (i, j): relative_error(p.couplings[i, j], collapsed[i, j])
                for i, j in np.argwhere(p.couplings != 0.0)
            }
            ok = seed_recovers_parameters(delta_theta, delta_j)
            passing += ok
            lines.append(format_errors(seed, delta_theta, delta_j, ok))
    print()
    for line in lines:
        print(line)
    print(f"criterion 2: {passing}/{len(SEEDS)} seeds pass (need {MIN_PASSING_SEEDS})")
    assert passing >= MIN_PASSING_SEEDS, "\n".join(lines)


def test_criterion_3_forecast_coverage(reference_validations):
    """The true terminal cumulative loss lies within 1.5 forecast standard
    deviations of the forecast mean, for every process, in at least 4 of 5
    seeds."""
    lines, passing = [], 0
    for seed in SEEDS:
        report = reference_validations[seed]
        ok = bool(np.all(report.coverage <= COVERAGE_TOL))
        passing += ok
        worst = float(report.coverage.max())
        lines.append(f"seed {seed}: max coverage = {worst:.3f} -> {'pass' if ok else 'FAIL'}")
    print()
    for line in lines:
        print(line)
    print(f"criterion 3: {passing}/{len(SEEDS)} seeds pass (need {MIN_PASSING_SEEDS})")
    assert passing >= MIN_PASSING_SEEDS, "\n".join(lines)


def test_criterion_4_noninteracting_marginal_law(reference_parameters):
    """Process 2 has no incoming couplings: its nonzero-loss frequency must
    sit within +-0.003 of 0.05 and its mean nonzero loss within 3% of
    1/lambda_2."""
    p = reference_parameters
    db = simulate(p, None, T_REF, NoiseSpec(rates=p.lam, seed=derive_seed(SEEDS[0], 0)))
    l2 = db.losses.losses[:, 1]
    frequency = float((l2 > 0).mean())
    print(f"\nprocess 2 nonzero frequency: {frequency:.5f} (target 0.05 +- 0.003)")
    assert abs(frequency - 0.05) <= 0.003

    nonzero_mean = float(l2[l2 > 0].mean())
    target = 1.0 / p.lam[1]
    print(f"process 2 mean nonzero loss: {nonzero_mean:.5f} (target {target:.5f} +- 3%)")
    assert abs(nonzero_mean - target) / target <= 0.03


def test_criterion_5_mean_cumulative_loss_is_linear(reference_validations):
    """Ensemble mean z(t) of process 2 over the final half of the horizon
    regresses onto a line with R^2 > 0.99."""
    print()
    for seed in SEEDS:
        mean_z = reference_validations[seed].ensemble.mean_z[:, 1]
        half = T_REF // 2
        t = np.arange(half, T_REF, dtype=float)
        y = mean_z[half:]
        slope, intercept = np.polyfit(t, y, 1)
        residual = y - (slope * t + intercept)
        r_squared = 1.0 - float((residual**2).sum() / ((y - y.mean()) ** 2).sum())
        print(f"seed {seed}: R^2 = {r_squared:.6f}")
        assert r_squared > 0.99


def test_criterion_6a_classification_matches_brute_force():
    rng = np.random.default_rng(60)
    for _ in range(6):
        n_steps = int(rng.integers(20, 201))
        horizons = rng.integers(0, 5, size=(3, 3))
        if horizons.max() == 0:
            horizons[0, 1] = 3
        losses = np.where(rng.random((n_steps, 3)) < 0.35, rng.exponential(1.0, (n_steps, 3)), 0.0)
        counts = classify_events(LossEvents.of(losses), horizons)
        bt, bz, ct, cz, disc = brute_force_classify(losses, horizons)
        assert np.array_equal(counts.base_total, bt)
        assert np.array_equal(counts.base_zero, bz)
        assert np.array_equal(counts.class_total, ct)
        assert np.array_equal(counts.class_zero, cz)
        assert np.array_equal(counts.discarded, disc)


def test_criterion_6b_inversion_identity(small_parameters):
    """Plugging the estimates back into the zero-loss probability formulas
    must reproduce the observed ratios to 1e-12."""
    p = small_parameters
    db = simulate(p, None, 30000, NoiseSpec(rates=p.lam, seed=606))
    counts = classify_events(LossEvents.of(db.losses), p.horizons)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.DegeneracyWarning)
        est = estimate_from_counts(counts, p.lam)
    theta_hat = est.theta_hat
    checked = 0
    for i in range(p.n):
        if est.theta_available[i]:
            ratio = counts.base_zero[i] / counts.base_total[i]
            assert abs((1.0 - np.exp(p.lam[i] * theta_hat[i])) - ratio) < 1e-12
            checked += 1
    for (i, j), found in est.candidates.items():
        for c, estimate, _ in found:
            ratio = counts.class_zero[i, j, c - 1] / counts.class_total[i, j, c - 1]
            reproduced = 1.0 - np.exp(p.lam[i] * (c * estimate + theta_hat[i]))
            assert abs(reproduced - ratio) < 1e-12
            checked += 1
    assert checked >= 3


def test_criterion_6c_var_matches_brute_force_on_1000_sets():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        size = int(rng.integers(1, 50))
        samples = rng.normal(scale=100.0, size=size)
        confidence = float(rng.uniform(0.001, 0.999))
        assert var(samples, confidence) == brute_force_var(samples, confidence)


def test_criterion_6d_cumulative_equals_prefix_sums():
    rng = np.random.default_rng(64)
    losses = rng.exponential(size=(300, 4)) * (rng.random((300, 4)) < 0.3)
    z = cumulative(losses)
    running = np.zeros(4)
    for t in range(300):
        running = running + losses[t]
        assert np.array_equal(z[t], running)


def test_criterion_6e_determinism_across_runs_and_parallelism(small_parameters):
    p = small_parameters
    a = simulate(p, None, 400, NoiseSpec(rates=p.lam, seed=12345))
    b = simulate(p, None, 400, NoiseSpec(rates=p.lam, seed=12345))
    assert np.array_equal(a.losses.losses, b.losses.losses)
    assert np.array_equal(a.cumulative, b.cumulative)

    serial = run_ensemble(p, None, 500, 9, master_seed=77, batch_size=1)
    batched = run_ensemble(p, None, 500, 9, master_seed=77, batch_size=64)
    assert np.array_equal(serial.mean_z, batched.mean_z)
    assert np.array_equal(serial.std_z, batched.std_z)
    assert np.array_equal(serial.terminal_samples, batched.terminal_samples)


def test_criterion_7_degenerate_inputs():
    horizons = np.array([[0, 2, 0], [0, 0, 3], [1, 0, 0]])
    lam = np.array([1.0, 2.0, 3.0])
    silent = np.zeros((200, 3))
    counts = classify_events(LossEvents.of(silent), horizons)
    with pytest.warns(errors.DegeneracyWarning):
        est = estimate_from_counts(counts, lam)
    assert np.array_equal(est.theta_hat, np.zeros(3))
    assert not est.theta_available.any()
    assert est.candidates == {}
    assert not est.j_hat.any()

    with pytest.raises(errors.DatabaseTooShort):
        classify_events(LossEvents.of(np.zeros((3, 3))), horizons)  # T equals the window
