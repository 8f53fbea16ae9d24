"""Dynamical operational-risk engine.

Losses of N interacting processes evolve in discrete time: each step, process
i loses ramp(sum_j J_ij C_ij(t) + theta_i + xi_i(t)), where C_ij counts the
recent nonzero losses of process j inside a bounded memory window, theta_i is
a fixed avoidance threshold, and xi_i is exponential noise. The package
simulates the dynamics, estimates (theta, J) from loss databases by
frequentist inversion of zero-loss ratios, and forecasts cumulative-loss
distributions and VaR by Monte Carlo.
"""

from . import errors
from .ensemble import (
    EnsembleResult,
    derive_seed,
    parameters_from_estimates,
    run_ensemble,
    var,
)
from .estimate import (
    CouplingCandidate,
    EstimateSet,
    EstimationDiagnostics,
    EventClassCounts,
    LossEvents,
    classify_events,
    collapse_estimates,
    collapse_precision,
    estimate_couplings,
    estimate_from_database,
    estimate_theta,
    lambda_from_p,
    lambda_from_quantile,
)
from .io import (
    LossRecords,
    RawLossRecord,
    RunConfig,
    ingest,
    load_config,
    read_loss_records,
    read_samples,
    reference_config_path,
    write_histogram,
    write_loss_database,
    write_series,
)
from .model import (
    LossMatrix,
    ModelParameters,
    NoiseSpec,
    validate_parameters,
)
from .simulate import Trajectory, cumulative, simulate
from .validation import ValidationReport, relative_error, run_validation

__version__ = "1.0.0"

__all__ = [
    "errors",
    "CouplingCandidate",
    "EnsembleResult",
    "EstimateSet",
    "EstimationDiagnostics",
    "EventClassCounts",
    "LossEvents",
    "LossMatrix",
    "LossRecords",
    "ModelParameters",
    "NoiseSpec",
    "RawLossRecord",
    "RunConfig",
    "Trajectory",
    "ValidationReport",
    "classify_events",
    "collapse_estimates",
    "collapse_precision",
    "cumulative",
    "derive_seed",
    "estimate_couplings",
    "estimate_from_database",
    "estimate_theta",
    "ingest",
    "lambda_from_p",
    "lambda_from_quantile",
    "load_config",
    "parameters_from_estimates",
    "read_loss_records",
    "read_samples",
    "reference_config_path",
    "relative_error",
    "run_ensemble",
    "run_validation",
    "simulate",
    "validate_parameters",
    "var",
    "write_histogram",
    "write_loss_database",
    "write_series",
]
