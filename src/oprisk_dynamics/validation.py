"""End-to-end self-validation: synthesize, re-estimate, re-simulate, compare.

The protocol, given true parameters:

1. simulate one database of T steps from a zero history;
2. estimate thresholds and couplings from the first floor(fraction * T)
   steps, taking the true noise rates and memory horizons as known;
3. run an M-trajectory forecast ensemble over the full T steps, each
   trajectory's couplings drawn from the candidates;
4. report relative parameter errors (couplings collapsed by inverse-variance
   weighting of their candidates), and the distance of the true cumulative
   loss from the forecast mean in units of the forecast standard deviation.

Seed layout: the run's master seed derives stream 0 for the database
trajectory and stream 1 as the ensemble's own master.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import errors
from .ensemble import EnsembleResult, derive_seed, run_ensemble
from .estimate import EstimateSet, LossEvents, collapse_precision, estimate_from_database
from .model import ModelParameters, NoiseSpec
from .simulate import simulate

logger = logging.getLogger(__name__)

__all__ = ["ValidationReport", "relative_error", "run_validation"]


def relative_error(true_value: float, estimate: float) -> float:
    """|estimate - true| / |true|; the true value must be nonzero."""
    if true_value == 0 or not np.isfinite(true_value):
        raise errors.ZeroTrueValue(
            f"relative error needs a nonzero finite true value, got {float(true_value)!r}"
        )
    return abs(estimate - true_value) / abs(true_value)


@dataclass(eq=False)
class ValidationReport:
    """Outcome of one validation run.

    Attributes:
        delta_theta: per-process relative threshold errors.
        delta_j: (i, j) -> relative error of the precision-collapsed
            coupling (inverse-variance mean of its candidates), one entry
            per nonzero true coupling (0-based keys).
        coverage: per process, |z_true(T) - mean_z(T)| / std_z(T).
        fraction_used: share of the database the estimator saw.
        estimates: the full estimate set.
        z_true: (T, N) cumulative losses of the synthesized database.
        ensemble: the forecast ensemble aggregates.
        master_seed: seed of the run; with ``n_steps`` and
            ``m_trajectories`` it reproduces the report.
    """

    delta_theta: np.ndarray
    delta_j: dict
    coverage: np.ndarray
    fraction_used: float
    estimates: EstimateSet
    z_true: np.ndarray
    ensemble: EnsembleResult
    master_seed: int

    @property
    def n_steps(self) -> int:
        """T, the length of the database and of the forecast."""
        return self.z_true.shape[0]

    @property
    def m_trajectories(self) -> int:
        """M, the number of forecast trajectories."""
        return self.ensemble.m_trajectories

    def to_json_dict(self) -> dict:
        """Summary as plain JSON types; bulky series stay out (file exports
        carry them). Process indices and coupling keys are 1-based here."""
        doc = {
            "master_seed": self.master_seed,
            "n_steps": self.n_steps,
            "m_trajectories": self.m_trajectories,
            "fraction_used": self.fraction_used,
            "delta_theta": [float(d) for d in self.delta_theta],
            "delta_j": {
                f"{i + 1},{j + 1}": float(d) for (i, j), d in sorted(self.delta_j.items())
            },
            "coverage": [float(c) for c in self.coverage],
            "z_true_terminal": [float(z) for z in self.z_true[-1]],
            "mean_z_terminal": [float(z) for z in self.ensemble.mean_z[-1]],
            "std_z_terminal": [float(z) for z in self.ensemble.std_z[-1]],
            # every report forecasts from estimates; the key keeps the format
            "self_test": False,
        }
        doc.update(self.estimates.to_json_dict())
        return doc


def run_validation(
    p_true: ModelParameters,
    n_steps: int,
    fraction: float,
    m_trajectories: int,
    master_seed: int,
) -> ValidationReport:
    """Run the full synthesize/estimate/forecast/compare protocol.

    Args:
        fraction: share (0, 1] of the database given to the estimator; the
            remainder is withheld, making the forecast a true extrapolation.

    Raises:
        ValueError: fraction outside (0, 1].
        ZeroTrueValue: a true threshold is zero, so its relative error is
            undefined; raised before anything is simulated.
        DatabaseTooShort: floor(fraction * T) leaves less than one full
            memory window plus one step.
        EstimationDegenerate: a threshold needed for forecasting has no
            usable estimate.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
    for i, theta in enumerate(p_true.theta):
        if theta == 0.0:
            raise errors.ZeroTrueValue(
                f"theta[{i + 1}] = {float(theta)!r} has no relative error; "
                "validation needs nonzero true thresholds"
            )

    db_seed = derive_seed(master_seed, 0)
    ensemble_master = derive_seed(master_seed, 1)

    truth = simulate(p_true, None, n_steps, NoiseSpec(rates=p_true.lam, seed=db_seed))
    z_true = truth.cumulative

    estimates = estimate_from_database(
        LossEvents.of(truth.losses).head_fraction(fraction), p_true.horizons, p_true.lam
    )
    delta_theta = np.array(list(map(relative_error, p_true.theta, estimates.theta_hat)))
    collapsed = collapse_precision(estimates)
    delta_j = {
        (int(i), int(j)): relative_error(p_true.couplings[i, j], collapsed[i, j])
        for i, j in np.argwhere(p_true.couplings != 0.0)
    }
    ensemble = run_ensemble(estimates, None, n_steps, m_trajectories, ensemble_master)

    gap = np.abs(z_true[-1] - ensemble.mean_z[-1])
    std = ensemble.std_z[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        coverage = np.where(std > 0.0, gap / std, np.where(gap == 0.0, 0.0, np.inf))

    logger.info(
        "validation seed %d: max delta_theta %.4g, max coverage %.4g",
        master_seed,
        float(delta_theta.max()),
        float(coverage.max()),
    )
    return ValidationReport(
        delta_theta=delta_theta,
        delta_j=delta_j,
        coverage=coverage,
        fraction_used=float(fraction),
        estimates=estimates,
        z_true=z_true,
        ensemble=ensemble,
        # derive_seed has checked it; a NumPy integer would not serialize
        master_seed=int(master_seed),
    )
