"""Command-line front end.

Subcommands: simulate, estimate, forecast, validate, var. Every run is fully
determined by the config file plus flags; there is no hidden entropy. Errors
leave one JSON line on stderr, and an error's category is its exit code:

    0  success
    2  UsageError: a configuration, argument or model parameter is invalid
    3  DataError or OSError: a database, sample or other file is unusable
    4  DegenerateEstimate: the data admit no estimate the run needs
    1  anything unexpected
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

from . import errors, io
from .ensemble import EnsembleResult, parameters_from_estimates, run_ensemble, var
from .estimate import EstimateSet, collapse_precision, estimate_from_database
from .model import NoiseSpec
from .simulate import simulate
from .validation import run_validation

# An error exits with the code of the first entry it is an instance of;
# anything else exits 1.
_EXIT_CODES = (
    (errors.UsageError, 2),
    (errors.DataError, 3),
    (OSError, 3),
    (errors.DegenerateEstimate, 4),
)


# Flags that override a config key: the RunConfig field each replaces, and its
# argparse options. An override passes through the field's own rule.
_OVERRIDES = {
    "seed": ("master_seed", dict(type=int, help="override simulation.seed")),
    "trajectories": ("m_trajectories", dict(type=int, help="override simulation.m_trajectories")),
    "fraction": ("fraction", dict(type=float, help="override estimation.fraction")),
    "confidence": ("confidences", dict(type=float, action="append",
                                       help="VaR confidence level, repeatable")),
    "resolution": ("resolution", dict(type=float, help="override output.resolution (time bin)")),
    "out_dir": ("out_dir", dict(help="override output.out_dir")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="opriskdyn",
        description="Simulate, estimate, and forecast interacting operational losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command, help_text, *overrides):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        for name in overrides:
            p.add_argument("--" + name.replace("_", "-"), **_OVERRIDES[name][1])
        return p

    add_command("simulate", "one trajectory -> database + cumulative series", "seed", "out_dir")

    p = add_command("estimate", "database -> estimates JSON with diagnostics",
                    "fraction", "resolution", "out_dir")
    p.add_argument("--database", required=True, help="loss database (t,process,amount)")

    p = add_command("forecast", "parameters or database -> ensemble + VaR table",
                    "seed", "trajectories", "confidence", "resolution", "out_dir")
    p.add_argument("--database", help="estimate from this database first")

    add_command("validate", "synthesize, re-estimate, forecast, compare",
                "seed", "trajectories", "fraction", "out_dir")

    p = sub.add_parser("var", help="nearest-rank percentile of a samples file")
    p.add_argument("--confidence", **_OVERRIDES["confidence"][1])
    p.add_argument("samples", help="file with one sample per line")

    return parser


def _emit_error(exc: BaseException) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def _load_config(args, default_reference=False) -> io.RunConfig:
    path = args.config
    if path is None:
        if not default_reference:
            raise errors.ConfigError("--config", "required for this subcommand")
        path = io.reference_config_path()
    overrides = {
        field: getattr(args, name)
        for name, (field, _) in _OVERRIDES.items()
        if getattr(args, name, None) is not None
    }
    return dataclasses.replace(io.load_config(path), **overrides)


def _require_seed(config: io.RunConfig) -> int:
    if config.master_seed is None:
        raise errors.ConfigError("simulation.seed", "required (set it or pass --seed)")
    return config.master_seed


def _prepare_out_dir(config: io.RunConfig) -> str:
    """Create the output directory. Called just before a command's first
    write, so a run that fails earlier leaves no directory behind."""
    os.makedirs(config.out_dir, exist_ok=True)
    return config.out_dir


def _warn_var_resolution(m: int, confidences) -> None:
    for c in confidences:
        needed = math.ceil(10.0 / (1.0 - c))
        if m < needed:
            print(
                f"warning: {m} samples resolve the confidence level {c!r} poorly; "
                f"use at least {needed}",
                file=sys.stderr,
            )


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as one line, like the CLI's own: where in the package it
    was raised says nothing to a user."""
    return f"warning: {message}\n"


def _write_ensemble(out_dir: str, ensemble: EnsembleResult, n_bins: int) -> list[str]:
    """Write an ensemble's mean and std series and each process's terminal
    histogram, and return their paths in that order."""
    paths = [os.path.join(out_dir, "forecast_mean_z.csv"),
             os.path.join(out_dir, "forecast_std_z.csv")]
    io.write_series(paths[0], ensemble.mean_z)
    io.write_series(paths[1], ensemble.std_z)
    for i in range(ensemble.n_processes):
        paths.append(os.path.join(out_dir, f"histogram_p{i + 1}.csv"))
        io.write_histogram(paths[-1], ensemble.terminal_samples[:, i], n_bins)
    return paths


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    p = config.parameters
    traj = simulate(p, None, config.n_steps, NoiseSpec(rates=p.lam, seed=seed))
    out_dir = _prepare_out_dir(config)
    db_path = os.path.join(out_dir, "database.csv")
    z_path = os.path.join(out_dir, "cumulative.csv")
    io.write_loss_database(db_path, traj.losses)
    io.write_series(z_path, traj.cumulative)
    print(f"simulated {config.n_steps} steps of {p.n} processes (seed {seed})")
    print(f"wrote {db_path}")
    print(f"wrote {z_path}")
    return 0


def _estimates_from_file(config: io.RunConfig, database: str) -> EstimateSet:
    p = config.parameters
    events = io.ingest(io.read_loss_records(database), config.resolution, p.n)
    return estimate_from_database(events.head_fraction(config.fraction), p.horizons, p.lam)


def _cmd_estimate(args) -> int:
    config = _load_config(args)
    estimates = _estimates_from_file(config, args.database)
    doc = estimates.to_json_dict()
    doc["fraction_used"] = config.fraction
    out_dir = _prepare_out_dir(config)
    path = os.path.join(out_dir, "estimates.json")
    io.write_json(path, doc)
    usable = sum(map(len, estimates.candidates.values()))
    print(f"estimated {int(estimates.theta_available.sum())}/{estimates.n_processes} "
          f"thresholds, {usable} coupling candidates")
    print(f"wrote {path}")
    return 0


def _cmd_forecast(args) -> int:
    config = _load_config(args)
    seed = _require_seed(config)
    source = config.parameters
    if args.database is not None:
        # an estimate set draws each trajectory's couplings from its candidates
        source = _estimates_from_file(config, args.database)
        if config.collapse == "mean":
            source = parameters_from_estimates(source, collapse_precision(source))
    ensemble = run_ensemble(source, None, config.n_steps, config.m_trajectories, seed)
    _warn_var_resolution(config.m_trajectories, config.confidences)

    out_dir = _prepare_out_dir(config)
    mean_path, std_path, *hist_paths = _write_ensemble(out_dir, ensemble, config.histogram_bins)
    written = [mean_path, std_path]
    for i, hist_path in enumerate(hist_paths):
        sample_path = os.path.join(out_dir, f"terminal_p{i + 1}.txt")
        io.write_samples(sample_path, ensemble.terminal_samples[:, i])
        written += [sample_path, hist_path]

    rows = [(i + 1, c, var(ensemble.terminal_samples[:, i], c))
            for i in range(ensemble.n_processes) for c in config.confidences]
    table_path = os.path.join(out_dir, "var_table.csv")
    io.write_table(table_path, ["process", "confidence", "var"], *zip(*rows))
    for i, c, value in rows:
        print(f"process {i} VaR({c!r}) = {value:.6g}")
    written.append(table_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args, default_reference=True)
    seed = _require_seed(config)
    report = run_validation(
        config.parameters, config.n_steps, config.fraction, config.m_trajectories, seed
    )
    out_dir = _prepare_out_dir(config)

    report_path = os.path.join(out_dir, "validation_report.json")
    io.write_json(report_path, report.to_json_dict())
    io.write_series(os.path.join(out_dir, "z_true.csv"), report.z_true)
    _write_ensemble(out_dir, report.ensemble, config.histogram_bins)

    for i in range(config.parameters.n):
        print(
            f"process {i + 1}: delta_theta = {report.delta_theta[i]:.4f}, "
            f"coverage = {report.coverage[i]:.3f}"
        )
    for (i, j), delta in sorted(report.delta_j.items()):
        print(f"coupling ({i + 1},{j + 1}): delta_j = {delta:.4f}")
    print(f"wrote {report_path}")
    return 0


def _cmd_var(args) -> int:
    confidences = args.confidence or [0.999]
    for c in confidences:
        if not 0.0 < c < 1.0:
            raise errors.ConfigError("--confidence", "must lie in (0, 1)")
    samples = io.read_samples(args.samples)
    _warn_var_resolution(samples.shape[0], confidences)
    for c in confidences:
        print(repr(var(samples, c)))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "forecast": _cmd_forecast,
    "validate": _cmd_validate,
    "var": _cmd_var,
}


def main(argv=None) -> int:
    # each warning prints as one line when it is raised, before any error line
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse already printed usage, or help (exit 0)
            if not exc.code:
                return 0
            raise errors.UsageError("invalid arguments") from None
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - every error gets a stable exit code
        _emit_error(exc)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 1)
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
