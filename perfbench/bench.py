"""Closed-loop runner for the simulate -> estimate -> forecast benchmark.

One client, one thread, one process: each op is one in-process call to
``oprisk_dynamics.cli.main`` (what an ``opriskdyn`` invocation runs), and the
next op starts only when the previous one has returned and its outputs have
been checked. Why each workload exists, and which end-to-end metric each
per-layer metric should move, is recorded in ``WORKLOADS.md``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io as text_io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import hostprobe
import inputs
import spans

cli = importlib.import_module("oprisk_dynamics.cli")
ensemble = importlib.import_module("oprisk_dynamics.ensemble")
estimate = importlib.import_module("oprisk_dynamics.estimate")
pio = importlib.import_module("oprisk_dynamics.io")
simulate = importlib.import_module("oprisk_dynamics.simulate")

FRACTIONS = (1.0, 0.75, 0.5, 0.25)
CONFIDENCES = ("0.999", "0.99")
THETA_TOLERANCE = 0.03  # acceptance criterion 1's threshold tolerance
REL_TOL = 1e-9
MIN_UNITS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "simulate.time_s": "s",
    "simulate.steps": "count",
    "simulate.ns_per_step": "ns",
    "ensemble.time_s": "s",
    "ensemble.traj_steps": "count",
    "ensemble.ns_per_traj_step": "ns",
    "ensemble.peak_alloc_mb": "MB",
    "estimate.classify_s": "s",
    "estimate.invert_s": "s",
    "estimate.events": "count",
    "estimate.used_ratio": "ratio",
    "io.read_s": "s",
    "io.records": "count",
    "io.ingest_s": "s",
    "io.write_series_s": "s",
    "io.write_series_rows": "count",
    "io.write_db_s": "s",
    "io.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _classified(args, counts) -> dict:
    n_events = (counts.n_steps - counts.window) * counts.n_processes
    used = int(counts.base_total.sum() + counts.class_total.sum())
    return {"events": n_events, "used": used}


# Where the program looks each layer up, and what to count on the way out.
TRACE_TARGETS = (
    (cli, "simulate", lambda a, r: {"steps": r.cumulative.shape[0]}),
    (cli, "run_ensemble", lambda a, r: {"traj_steps": r.mean_z.shape[0] * r.m_trajectories}),
    (cli, "estimate_from_database", None),
    (cli, "var", None),
    (pio, "read_loss_records", lambda a, r: {"records": len(r)}),
    (pio, "ingest", None),
    (pio, "write_series", lambda a, r: {"rows": np.asarray(a["values"]).size}),
    (pio, "write_loss_database", None),
    (pio, "write_histogram", None),
    (pio, "load_config", None),
    (estimate, "classify_events", _classified),
)


class CheckFailed(Exception):
    """An op's outputs are not what the program promises."""


@dataclass
class Op:
    argv: list
    steps: int
    check: Callable[[Path], None]
    # whether the op does large-array work, so that the large part of the
    # host probe counts when its time is rescaled (see hostprobe)
    large_array: bool = False


@dataclass
class OpRecord:
    index: int
    seconds: float
    steps: int
    traced: bool
    error: str | None
    large_array: bool
    # (small, large) parts of the host probe, the mean of the probes just
    # before and just after the op
    probe: tuple[float, float] = hostprobe.REF_PARTS

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def scale(self) -> float:
        """Factor from this op's wall time to reference-host time."""
        return hostprobe.scale(self.probe, self.large_array)

    @property
    def norm_seconds(self) -> float:
        return self.seconds * self.scale


def _close(a, b, what: str) -> None:
    if not np.allclose(a, b, rtol=REL_TOL, atol=0.0):
        raise CheckFailed(f"{what}: {a} != {b}")


def _last_series_row(path: Path, n: int) -> tuple[int, np.ndarray]:
    """Step and values of the last step of a ``t,process,value`` table."""
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        handle.seek(max(0, handle.tell() - 64 * (n + 1)))
        lines = handle.read().decode("utf-8").splitlines()[-n:]
    rows = [line.split(",") for line in lines]
    steps = {int(row[0]) for row in rows}
    if len(steps) != 1 or [int(row[1]) for row in rows] != list(range(1, n + 1)):
        raise CheckFailed(f"{path.name}: last {n} rows are not one step")
    return steps.pop(), np.array([float(row[2]) for row in rows])


def check_synthesize(out: Path, *, n: int, steps: int) -> None:
    """Per-process totals of the database equal the last cumulative row."""
    totals = np.zeros(n)
    for record in pio.read_loss_records(out / "database.csv"):
        totals[record.process_id - 1] += record.amount
    t, last = _last_series_row(out / "cumulative.csv", n)
    if t != steps:
        raise CheckFailed(f"cumulative.csv ends at step {t}, expected {steps}")
    _close(totals, last, "database totals vs cumulative.csv")


def check_forecast(out: Path, *, n: int, steps: int) -> None:
    """VaR table is complete, ordered and equal to var() of the samples; the
    sample means equal the forecast mean at the last step."""
    with open(out / "var_table.csv", encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    expected = [(str(i), c) for i in range(1, n + 1) for c in CONFIDENCES]
    if [(row[0], row[1]) for row in rows] != expected:
        raise CheckFailed(f"var_table.csv rows {[row[:2] for row in rows]}")
    table = {(row[0], row[1]): float(row[2]) for row in rows}
    means = np.empty(n)
    for i in range(1, n + 1):
        high, low = table[(str(i), CONFIDENCES[0])], table[(str(i), CONFIDENCES[1])]
        if not (math.isfinite(high) and math.isfinite(low) and high >= low):
            raise CheckFailed(f"process {i}: VaR {high} vs {low}")
        samples = pio.read_samples(out / f"terminal_p{i}.txt")
        for c in CONFIDENCES:
            if ensemble.var(samples, float(c)) != table[(str(i), c)]:
                raise CheckFailed(f"process {i}: VaR({c}) differs from its samples")
        means[i - 1] = samples.mean()
    t, last = _last_series_row(out / "forecast_mean_z.csv", n)
    if t != steps:
        raise CheckFailed(f"forecast_mean_z.csv ends at step {t}, expected {steps}")
    _close(means, last, "terminal sample means vs forecast_mean_z.csv")


def check_estimate(out: Path, *, theta: np.ndarray, fraction: float, steps: int) -> None:
    """All thresholds estimated and negative; accurate on the whole database."""
    with open(out / "estimates.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    theta_hat = np.array(doc["theta_hat"])
    if not (all(doc["theta_available"]) and theta_hat.shape == theta.shape
            and (theta_hat < 0).all()):
        raise CheckFailed(f"thresholds {doc['theta_hat']} / {doc['theta_available']}")
    if doc["diagnostics"]["estimation_steps"] != steps:
        raise CheckFailed(f"estimated {doc['diagnostics']['estimation_steps']} steps, "
                          f"expected {steps}")
    if fraction == 1.0:
        error = float(np.max(np.abs(theta_hat - theta) / np.abs(theta)))
        if error > THETA_TOLERANCE:
            raise CheckFailed(f"max relative theta error {error:.4f} > {THETA_TOLERANCE}")


def _op_seeds(seed: int):
    rng = random.Random(f"ops:{seed}")
    while True:
        yield rng.randrange(2**31)


def op_units(workload: str, seed: int, size: str, inputs_dir: Path):
    """Endless sequence of units; a unit is the list of ops timed together.

    A unit is one op, except on ``estimate-sweep``, where it is one op per
    fraction, so every run times the same mix of database sizes.
    """
    spec = inputs.SIZES[size][workload]
    config = inputs_dir / "config.json"
    db = inputs_dir / "db.csv"
    cfg = pio.load_config(config)
    p = cfg.parameters
    if workload == "synthesize-db":
        check = partial(check_synthesize, n=p.n, steps=spec["steps"])
        for op_seed in _op_seeds(seed):
            yield [Op(["simulate", "--config", str(config), "--seed", str(op_seed)],
                      spec["steps"], check)]
    elif workload == "forecast-wide":
        argv = ["forecast", "--config", str(config), "--database", str(db),
                "--trajectories", str(spec["trajectories"])]
        for c in CONFIDENCES:
            argv += ["--confidence", c]
        check = partial(check_forecast, n=p.n, steps=spec["steps"])
        for op_seed in _op_seeds(seed):
            yield [Op(argv + ["--seed", str(op_seed)],
                      spec["steps"] * spec["trajectories"], check, large_array=True)]
    else:
        db_steps = pio.ingest(pio.read_loss_records(db), cfg.resolution, p.n).n_steps
        unit = []
        for f in FRACTIONS:
            steps = int(f * db_steps)
            unit.append(Op(
                ["estimate", "--config", str(config), "--database", str(db),
                 "--fraction", repr(f)],
                steps,
                partial(check_estimate, theta=p.theta, fraction=f, steps=steps),
            ))
        while True:
            yield unit


def run_op(op: Op, out: Path, index: int, tracer: spans.Tracer | None = None) -> OpRecord:
    """Run one op into ``out`` and check its outputs; failures are recorded."""
    out.mkdir(parents=True)
    argv = op.argv + ["--out-dir", str(out)]
    console = text_io.StringIO()
    error = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(console))
        stack.enter_context(contextlib.redirect_stderr(console))
        if tracer is not None:
            stack.enter_context(tracer.installed(TRACE_TARGETS))
            stack.enter_context(tracer.op(index))
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crashing op is a failed op
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    if code not in (0, None):
        error = f"exit code {code}: {console.getvalue()[-2000:]}"
    if error is None:
        try:
            op.check(out)
        except Exception as exc:  # noqa: BLE001 - any unreadable output fails the op
            error = f"output check: {type(exc).__name__}: {exc}"
    return OpRecord(index, seconds, op.steps, tracer is not None, error, op.large_array)


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(path.name for path in a.iterdir())
    if names != sorted(path.name for path in b.iterdir()):
        return False
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def environment() -> dict:
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": has_numba,
        "use_compiled_kernel": bool(simulate.use_compiled_kernel),
        "run_ensemble_batch_size":
            inspect.signature(ensemble.run_ensemble).parameters["batch_size"].default,
        "cpu_probe_s": [statistics.median(part) for part in
                        zip(*(hostprobe.probe_parts() for _ in range(5)))],
    }


def run_setup(workload: str, seed: int, size: str, out: Path,
              procs: int) -> list[tuple[float, float]]:
    """Make the inputs ``setup_reps`` times in each of ``procs`` child
    processes, so that set-up's memory peak stays out of this one; the
    inputs are deterministic, so every repetition writes the same files.

    Returns (wall seconds, host probe parts around it) per repetition, as
    timed by the child after its imports.
    """
    command = [sys.executable, str(Path(inputs.__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--size", size, "--out", str(out)]
    reps = []
    for _ in range(procs):
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed ({done.returncode}): {done.stderr[-2000:]}")
        reps += [(seconds, tuple(probe)) for seconds, probe in
                 json.loads(done.stdout.splitlines()[-1])]
    return reps


def timed_phase(units, seconds: float, work: Path, tracer: spans.Tracer | None):
    """Run units back to back until ``seconds`` have passed.

    With a tracer, units alternate untraced and traced (ending on a traced
    one), so the two halves see the same host and the same op mix. Returns
    the op records and the first op, whose outputs stay in ``op0``.
    """
    records = []
    start = time.perf_counter()
    before = hostprobe.probe_parts()
    for k, unit in enumerate(units):
        traced = tracer is not None and k % 2 == 1
        for op in unit:
            index = len(records)
            record = run_op(op, work / f"op{index}", index, tracer if traced else None)
            after = hostprobe.probe_parts()
            record.probe = tuple((b + a) / 2 for b, a in zip(before, after))
            before = after
            records.append(record)
            if index == 0:
                first = op
            else:
                shutil.rmtree(work / f"op{index}")
        done = k + 1
        if (time.perf_counter() - start >= seconds and done >= MIN_UNITS
                and (tracer is None or done % 2 == 0)):
            return records, first


def replay(first: Op, work: Path, measure_alloc: bool) -> tuple[bool, float]:
    """Re-run the first op untimed; its files must be byte-identical.

    With ``measure_alloc``, also returns the tracemalloc peak inside
    ``run_ensemble`` in MB (0 when the op runs no ensemble); it is taken here
    so that tracemalloc's cost enters no timing.
    """
    peaks = [0]
    original = cli.run_ensemble

    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with spans.patched([(cli, "run_ensemble", probed)] if measure_alloc else []):
        record = run_op(first, work / "replay", -1)
    return record.ok and _same_files(work / "op0", work / "replay"), max(peaks) / 2**20


def _end_to_end(setup_reps, records, peak_rss_mb, simulating_setup: bool,
                wall: bool = False) -> dict:
    """The end-to-end metrics in reference-host time, or in wall time.

    Set-up that simulates a database runs the batch-1 kernel, so it is
    rescaled as small-array work. Set-up that only writes a config is file
    work, which the probe does not track, so it stays in wall time."""
    rescale = simulating_setup and not wall
    setup = [s * hostprobe.scale(p, large=False) if rescale else s for s, p in setup_reps]
    ops = [r.seconds if wall else r.norm_seconds for r in records]
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(ops),
        "steps_per_s": sum(r.steps for r in records) / sum(ops),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(tracer: spans.Tracer, records, bytes_written: int, alloc_mb: float) -> dict:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n_ops = len(traced)
    duration, self_time, counts = spans.totals(tracer.spans, {r.index: r.scale for r in traced})

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "simulate.time_s": duration["cli.simulate"] / n_ops,
        "simulate.steps": counts["cli.simulate.steps"] / n_ops,
        "simulate.ns_per_step":
            1e9 * ratio(duration["cli.simulate"], counts["cli.simulate.steps"]),
        "ensemble.time_s": duration["cli.run_ensemble"] / n_ops,
        "ensemble.traj_steps": counts["cli.run_ensemble.traj_steps"] / n_ops,
        "ensemble.ns_per_traj_step":
            1e9 * ratio(duration["cli.run_ensemble"], counts["cli.run_ensemble.traj_steps"]),
        "ensemble.peak_alloc_mb": alloc_mb,
        "estimate.classify_s": duration["estimate.classify_events"] / n_ops,
        "estimate.invert_s": self_time["cli.estimate_from_database"] / n_ops,
        "estimate.events": counts["estimate.classify_events.events"] / n_ops,
        "estimate.used_ratio": ratio(counts["estimate.classify_events.used"],
                                     counts["estimate.classify_events.events"]),
        "io.read_s": duration["io.read_loss_records"] / n_ops,
        "io.records": counts["io.read_loss_records.records"] / n_ops,
        "io.ingest_s": duration["io.ingest"] / n_ops,
        "io.write_series_s": duration["io.write_series"] / n_ops,
        "io.write_series_rows": counts["io.write_series.rows"] / n_ops,
        "io.write_db_s": duration["io.write_loss_database"] / n_ops,
        "io.bytes_written": bytes_written,
        "cli.self_s": self_time["op"] / n_ops,
        "trace.op_s": duration["op"] / n_ops,
        "trace.overhead_ratio": statistics.median(r.norm_seconds for r in traced)
        / statistics.median(r.norm_seconds for r in untraced) - 1.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", state: Path = inputs.STATE) -> dict:
    """One benchmark run; returns the result object and a record of the run.

    The run works in a directory under ``state`` and removes it at the end.
    Set-up is timed in two halves, before the timed phase and after the
    replay, so that its median spans the host's speed over the whole run.
    """
    work = state / f"work-{workload}-{seed}-{os.getpid()}"
    spec = inputs.SIZES[size][workload]
    first_procs = (spec["setup_procs"] + 1) // 2
    shutil.rmtree(work, ignore_errors=True)
    try:
        env = environment()
        setup_reps = run_setup(workload, seed, size, work / "inputs", first_procs)
        units = op_units(workload, seed, size, work / "inputs")
        tracer = spans.Tracer() if trace else None
        records, first = timed_phase(units, seconds, work, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bytes_written = sum(path.stat().st_size for path in (work / "op0").iterdir())
        identical, alloc_mb = replay(first, work, measure_alloc=trace)
        setup_reps += run_setup(workload, seed, size, work / "inputs",
                                spec["setup_procs"] - first_procs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = _per_layer(tracer, records, bytes_written, alloc_mb)
        units_of = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(setup_reps, records, peak_rss_mb, "db_steps" in spec)
        units_of = END_TO_END_UNITS
    failed = sum(not r.ok for r in records) + (not identical)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(records) + 1,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units_of[name]}
                        for name in units_of},
        },
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "env": env,
        "setup_reps": setup_reps,
        "wall": _end_to_end(setup_reps, records, peak_rss_mb, "db_steps" in spec, wall=True),
        "replay_identical": identical,
        "ops": [vars(r) for r in records],
        "spans": tracer.spans if trace else [],
    }
