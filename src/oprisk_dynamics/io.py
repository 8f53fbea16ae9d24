"""File formats, database ingestion with time binning, and configuration.

Formats (UTF-8, comma-separated, `.` decimal separator, 1-based indices).
The database and samples readers ignore a leading UTF-8 byte-order mark,
which spreadsheet tools write:

* loss database: header ``t,process,amount``, one positive-amount record per
  line; ``t`` is an integer step or an ISO-8601 timestamp. A timestamp
  without a UTC offset is read as UTC, never in the machine's time zone.
  The file is read in one pass, and every timestamp becomes a float64.
* series tables: header ``t,process,value``, full (step, process) grid.
* histograms: header ``bin_left,bin_right,count``.
* configuration: one JSON document; see ``load_config``.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from itertools import islice
from typing import Iterable, NamedTuple

import numpy as np

from . import errors
from .estimate import lambda_from_p, lambda_from_quantile
from .model import LossMatrix, ModelParameters, seed_in_range, validate_parameters

__all__ = [
    "RawLossRecord",
    "LossRecords",
    "read_loss_records",
    "ingest",
    "write_loss_database",
    "write_series",
    "write_histogram",
    "read_samples",
    "RunConfig",
    "load_config",
    "reference_config_path",
]


def reference_config_path() -> str:
    """Path of the bundled five-process reference configuration."""
    return str(resources.files(__package__) / "data" / "reference.json")

_DB_HEADER = ["t", "process", "amount"]
_SERIES_HEADER = ["t", "process", "value"]
_HIST_HEADER = ["bin_left", "bin_right", "count"]
# rows formatted at a time by the CSV writers, and parsed at a time by
# read_loss_records
_CSV_BLOCK_ROWS = 1024
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class RawLossRecord(NamedTuple):
    """One historical loss: when, which process, how much (> 0)."""

    timestamp: float
    process_id: int
    amount: float


def _parse_timestamp(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        try:
            # datetime.fromisoformat in 3.10 rejects a trailing Z
            stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise errors.MalformedRecord(
                line_no, f"timestamp {text!r} is neither a number nor ISO-8601"
            ) from None
        return stamp.replace(tzinfo=stamp.tzinfo or timezone.utc).timestamp()
    if not math.isfinite(value):
        raise errors.MalformedRecord(line_no, f"timestamp {text!r} is not finite")
    return value


class LossRecords(Sequence):
    """Loss records held as three read-only columns, in file order.

    ``timestamps`` and ``amounts`` are float64. ``process_ids`` is int64,
    except that ``of`` keeps Python objects when some id is no int within
    int64, so that ``ingest`` names that id as it was written. Indexing and
    iteration give RawLossRecords of Python scalars, as a list of them would.
    """

    def __init__(self, timestamps, process_ids, amounts) -> None:
        self.timestamps = timestamps
        self.process_ids = process_ids
        self.amounts = amounts
        for column in (timestamps, process_ids, amounts):
            column.setflags(write=False)

    @classmethod
    def of(cls, timestamps: list, process_ids: list, amounts: list) -> "LossRecords":
        """Columns of Python values; every timestamp and amount as float64."""
        ids_fit = all(type(p) is int and _INT64_MIN <= p <= _INT64_MAX for p in process_ids)
        return cls(
            np.array(timestamps, dtype=np.float64),
            np.array(process_ids, dtype=np.int64 if ids_fit else object),
            np.array(amounts, dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.amounts.shape[0]

    def __getitem__(self, index: int) -> RawLossRecord:
        return RawLossRecord(
            self.timestamps.item(index), self.process_ids.item(index), self.amounts.item(index)
        )

    def __iter__(self):
        columns = (self.timestamps.tolist(), self.process_ids.tolist(), self.amounts.tolist())
        return map(RawLossRecord._make, zip(*columns))


def read_loss_records(path) -> LossRecords:
    """Parse a loss database file in one pass, a block of rows at a time.

    A block is parsed as columns, or row by row if it holds an ISO
    timestamp or a fault; the row parser reports the first faulty line.

    Raises:
        MalformedRecord: wrong header, a row that is not CSV, wrong field
            count, unparsable values.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        blocks = [LossRecords.of([], [], [])]
        blocks += (_parse_block(rows, line_no) for line_no, rows in _row_blocks(handle))
    columns = zip(*((b.timestamps, b.process_ids, b.amounts) for b in blocks))
    return LossRecords(*map(np.concatenate, columns))


def _row_blocks(handle):
    """Check the header, then yield (line number, rows) blocks of at most
    _CSV_BLOCK_ROWS rows, blank ones included. A row the csv module rejects
    ends its block and, once that block is parsed, raises MalformedRecord.
    """
    reader = csv.reader(handle)
    line_no, block = 1, []
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _DB_HEADER:
            raise errors.MalformedRecord(1, f"expected header {','.join(_DB_HEADER)!r}")
        line_no = 2
        while True:
            for row in islice(reader, _CSV_BLOCK_ROWS):
                block.append(row)
            if not block:
                return
            yield line_no, block
            line_no, block = line_no + len(block), []
    except csv.Error as exc:
        if block:
            yield line_no, block
        raise errors.MalformedRecord(line_no + len(block), f"not a CSV row: {exc}") from None


def _parse_block(rows: list, line_no: int) -> LossRecords:
    """The records of ``rows``, the first on line ``line_no``.

    The columns go through the ``float``/``int`` the row parser uses, so
    they hold its values; a block they reject (an ISO timestamp, a fault, an
    id beyond int64, a non-finite timestamp) goes to the row parser.
    """
    full = list(filter(None, rows))
    if set(map(len, full)) == {3}:
        stamps, ids, amounts = zip(*full)
        with suppress(ValueError, OverflowError):
            records = LossRecords(
                np.fromiter(map(float, stamps), np.float64, len(full)),
                np.fromiter(map(int, ids), np.int64, len(full)),
                np.fromiter(map(float, amounts), np.float64, len(full)),
            )
            if np.isfinite(records.timestamps).all():
                return records
    return _parse_rows(rows, line_no)


def _parse_rows(rows: list, line_no: int) -> LossRecords:
    stamps, ids, amounts = [], [], []
    for line_no, row in enumerate(rows, start=line_no):
        if not row:
            continue
        if len(row) != 3:
            raise errors.MalformedRecord(line_no, f"expected 3 fields, got {len(row)}")
        stamps.append(_parse_timestamp(row[0].strip(), line_no))
        try:
            ids.append(int(row[1]))
        except ValueError:
            raise errors.MalformedRecord(
                line_no, f"process id {row[1]!r} is not an integer"
            ) from None
        try:
            amounts.append(float(row[2]))
        except ValueError:
            raise errors.MalformedRecord(
                line_no, f"amount {row[2]!r} is not a number"
            ) from None
    return LossRecords.of(stamps, ids, amounts)


def ingest(
    records: Iterable[RawLossRecord],
    resolution: float,
    n: int,
    origin: float | None = None,
    n_steps: int | None = None,
) -> LossMatrix:
    """Bin raw loss records into a dense (T, N) loss matrix.

    A record lands in step floor((timestamp - origin) / resolution); records
    sharing a (step, process) bin are summed in record order; empty bins are
    0. By default the origin is the earliest timestamp and T = last occupied
    step + 1; pinning ``origin`` and ``n_steps`` preserves loss-free leading
    or trailing steps, making export -> ingest lossless.

    ``records`` is binned as float64 columns: a LossRecords as it is, any
    other iterable after one pass that builds them.

    Raises:
        EmptyDatabase, UnknownProcess, NonPositiveAmount: the first faulty
            record, in record order, or the first bin whose sum overflows.
        TimestampSpanOverflow: a record's distance from the origin overflows
            or is NaN, or the steps it spans are too many to allocate.
        ValueError: resolution <= 0, or a record falls outside a pinned range.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be > 0, got {resolution!r}")
    if isinstance(records, LossRecords):
        table = records
    else:
        records = list(records)
        table = LossRecords.of(
            [rec.timestamp for rec in records],
            [rec.process_id for rec in records],
            [rec.amount for rec in records],
        )
    if not len(table):
        raise errors.EmptyDatabase("no loss records to ingest")
    ids, amounts = table.process_ids, table.amounts
    valid = np.asarray((ids >= 1) & (ids <= n), dtype=bool)
    valid &= np.isfinite(amounts) & (amounts > 0)
    if not valid.all():
        rec = records[int(np.argmin(valid))]
        if not 1 <= rec.process_id <= n:
            raise errors.UnknownProcess(rec.process_id, n)
        raise errors.NonPositiveAmount(rec.amount, f"timestamp {rec.timestamp}")

    # a NaN timestamp is both extremes, as argmin and argmax take the first NaN
    stamps = table.timestamps
    lo, hi = stamps.item(stamps.argmin()), stamps.item(stamps.argmax())
    t_min = lo if origin is None else origin
    # the step of a record is monotone in its timestamp, so the extremes bound it
    for ts in (lo, hi):
        if not math.isfinite((ts - t_min) / resolution):
            raise errors.TimestampSpanOverflow(
                f"timestamps {t_min!r} and {ts!r} are too far apart to bin at {resolution!r}"
            )
    steps = np.floor((stamps - t_min) / resolution)
    first, last = int(steps.min()), int(steps.max())
    if first < 0:
        raise ValueError(f"record at {first} steps before the origin {t_min}")
    if n_steps is None:
        n_steps = last + 1
    elif last >= n_steps:
        raise ValueError(f"record in step {last + 1} beyond the pinned {n_steps} steps")

    # np.zeros gives numpy's own reason when a (T, N) matrix cannot be
    # held; its pages are never touched, as the bin sums replace it
    try:
        losses = np.zeros((n_steps, n))
    except (ValueError, MemoryError) as exc:
        raise errors.TimestampSpanOverflow(
            f"timestamps {t_min!r} and {hi!r} span "
            f"{n_steps:.4g} steps at {resolution!r}, too many to hold: {exc}"
        ) from exc
    # bincount adds each bin's amounts from 0.0 in record order, as += would
    bins = np.asarray(steps, dtype=np.int64) * n + np.asarray(ids, dtype=np.int64) - 1
    losses = np.bincount(bins, weights=amounts, minlength=losses.size).reshape(losses.shape)
    # every amount is finite, but the sum of a bin's amounts can overflow
    if losses.max() == math.inf:
        step, process = divmod(int(losses.argmax()), n)
        raise errors.NonPositiveAmount(math.inf, f"sum of step {step + 1}, process {process + 1}")
    return LossMatrix(losses)


def _write_csv(path, header, blocks) -> None:
    """Write a header line, then the rows of each block of equal-length columns.

    Each cell is the ``repr`` of its Python value, so floats round-trip
    exactly, and lines end in ``\r\n``: the bytes ``csv.writer`` writes for
    these plain cells. Callers pass their rows a block at a time, so only one
    block's cells are held as Python objects at once.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for columns in blocks:
            cells = [_cells(column) for column in columns]
            handle.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def _cells(column):
    """The ``repr`` of each value of a column, made once per distinct value.

    Floats are keyed on their bit pattern, so -0.0 and 0.0 stay apart.
    """
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    keys, inverse = np.unique(keys, return_inverse=True)
    text = [repr(value) for value in keys.view(column.dtype).tolist()]
    return map(text.__getitem__, inverse.tolist())


def _row_ranges(n_rows: int):
    """(first, stop) ranges of at most _CSV_BLOCK_ROWS rows covering n_rows."""
    for first in range(0, n_rows, _CSV_BLOCK_ROWS):
        yield first, min(first + _CSV_BLOCK_ROWS, n_rows)


def write_loss_database(path, losses) -> None:
    """Write nonzero losses as ``t,process,amount`` records, steps 1-based."""
    arr = losses.losses if isinstance(losses, LossMatrix) else np.asarray(losses)
    t, i = np.nonzero(arr)
    _write_csv(path, _DB_HEADER, (
        (t[a:b] + 1, i[a:b] + 1, arr[t[a:b], i[a:b]].astype(np.float64))
        for a, b in _row_ranges(t.size)
    ))


def write_series(path, values) -> None:
    """Write a (T, N) table as the full ``t,process,value`` grid, 1-based."""
    arr = np.asarray(values, dtype=np.float64)
    n_steps, n = arr.shape
    processes = np.arange(1, n + 1)
    _write_csv(path, _SERIES_HEADER, (
        (np.repeat(np.arange(a + 1, b + 1), n), np.tile(processes, b - a), arr[a:b].ravel())
        for a, b in _row_ranges(n_steps)
    ))


def write_histogram(path, samples, n_bins: int = 60) -> None:
    """Histogram a sample vector into ``bin_left,bin_right,count`` rows."""
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0:
        raise errors.EmptySample("cannot histogram an empty sample")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    counts, edges = np.histogram(s, bins=n_bins)
    _write_csv(path, _HIST_HEADER, [(edges[:-1], edges[1:], counts)])


def read_samples(path) -> np.ndarray:
    """Read one finite float per line (blank lines and # comments skipped)."""
    values = []
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise errors.MalformedRecord(
                    line_no, f"sample {text!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise errors.MalformedRecord(line_no, f"sample {text!r} is not finite")
            values.append(value)
    if not values:
        raise errors.EmptySample(f"no samples in {path}")
    return np.array(values)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A run configuration; each field obeys the rule of its config key.

    The rules run on construction, so ``dataclasses.replace`` (how CLI flags
    override keys) checks them again. A ConfigError names the key broken.
    """

    parameters: ModelParameters
    n_steps: int
    master_seed: int | None
    m_trajectories: int
    fraction: float
    collapse: str
    confidences: tuple
    resolution: float
    histogram_bins: int
    out_dir: str

    def __post_init__(self) -> None:
        if not (_is_number(self.n_steps, kind=int) and self.n_steps >= 1):
            raise errors.ConfigError("simulation.n_steps", "must be an integer >= 1")
        seed = self.master_seed
        if seed is not None and not (_is_number(seed, kind=int) and seed_in_range(seed)):
            raise errors.ConfigError("simulation.seed", "must be an integer in [0, 2**64)")
        if not (_is_number(self.m_trajectories, kind=int) and self.m_trajectories >= 2):
            raise errors.ConfigError("simulation.m_trajectories", "must be an integer >= 2")
        if not (_is_number(self.fraction) and 0.0 < self.fraction <= 1.0):
            raise errors.ConfigError("estimation.fraction", "must lie in (0, 1]")
        if self.collapse not in ("mean", "sample-per-run"):
            raise errors.ConfigError("estimation.collapse", "must be 'mean' or 'sample-per-run'")
        confidences = self.confidences
        if not isinstance(confidences, (list, tuple)) or not confidences or not all(
            _is_number(c) and 0.0 < c < 1.0 for c in confidences
        ):
            raise errors.ConfigError("output.confidences", "must be a list of values in (0, 1)")
        if not (_is_number(self.resolution) and self.resolution > 0):
            raise errors.ConfigError("output.resolution", "must be > 0")
        if not (_is_number(self.histogram_bins, kind=int) and self.histogram_bins >= 1):
            raise errors.ConfigError("output.histogram_bins", "must be an integer >= 1")
        if not isinstance(self.out_dir, str):
            raise errors.ConfigError("output.out_dir", "must be a string path")
        object.__setattr__(self, "fraction", float(self.fraction))
        object.__setattr__(self, "confidences", tuple(float(c) for c in confidences))
        object.__setattr__(self, "resolution", float(self.resolution))


def _is_number(value, kind: type = float) -> bool:
    """The rule of every numeric config value: a JSON number, never a boolean
    (though Python's bool is an int), that fits what its field becomes.

    ``kind`` is that: ``float`` for a finite float, ``int`` for an integer
    (each integer key checks its own range), ``np.int64`` for a horizon, a
    finite number that fits int64 when it is an integer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return isinstance(value, int)
    if kind is np.int64 and isinstance(value, int):
        return _INT64_MIN <= value <= _INT64_MAX
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise errors.ConfigError(f"{path}.{key}", "required key missing")
    return block[key]


def _section(doc: dict, key: str, required: bool) -> dict:
    """The top-level block ``key``, which must be a JSON object; an absent
    optional block reads as empty."""
    block = _require(doc, key, "config") if required else doc.get(key, {})
    if not isinstance(block, dict):
        raise errors.ConfigError(key, "must be an object")
    return block


def _noise_rates(noise_specs, theta: np.ndarray) -> np.ndarray:
    """Each per-process entry holds exactly one of p / lambda / quantile."""
    lam = np.zeros(theta.shape[0])
    for i, spec in enumerate(noise_specs):
        where = f"model.noise[{i + 1}]"
        if not isinstance(spec, dict):
            raise errors.ConfigError(where, "must be an object")
        keys = set(spec)
        if len(keys & {"p", "lambda", "quantile"}) != 1 or keys - {"p", "lambda", "quantile"}:
            raise errors.ConfigError(
                where, "exactly one of 'p', 'lambda', 'quantile' required"
            )
        q = spec.get("quantile")
        if "quantile" in spec and (not isinstance(q, dict) or set(q) != {"value", "alpha"}):
            raise errors.ConfigError(
                where + ".quantile", "needs exactly the keys 'value' and 'alpha'"
            )
        values = [q["value"], q["alpha"]] if "quantile" in spec else list(spec.values())
        if not all(map(_is_number, values)):
            raise errors.ConfigError(where, f"not a number: {values!r}")
        try:
            if "p" in spec:
                lam[i] = lambda_from_p(float(spec["p"]), float(theta[i]))
            elif "lambda" in spec:
                lam[i] = float(spec["lambda"])
            else:
                lam[i] = lambda_from_quantile(float(q["value"]), float(q["alpha"]))
        except (errors.InvalidProbability, errors.NonNegativeTheta,
                errors.InvalidQuantile, errors.InvalidOrder) as exc:
            raise errors.ConfigError(where, str(exc)) from exc
    return lam


def _build_parameters(model: dict) -> ModelParameters:
    theta_raw = _require(model, "theta", "model")
    if not isinstance(theta_raw, list) or not theta_raw or not all(map(_is_number, theta_raw)):
        raise errors.ConfigError("model.theta", "must be a nonempty list of numbers")
    theta = np.asarray(theta_raw, dtype=np.float64)
    n = theta.shape[0]

    noise_specs = _require(model, "noise", "model")
    if not isinstance(noise_specs, list) or len(noise_specs) != n:
        raise errors.ConfigError("model.noise", f"must list exactly {n} entries")
    lam = _noise_rates(noise_specs, theta)

    couplings = np.zeros((n, n))
    for k, triple in enumerate(model.get("couplings", [])):
        where = f"model.couplings[{k + 1}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            raise errors.ConfigError(where, "must be an [i, j, value] triple")
        i, j, value = triple
        if not all(_is_number(index, kind=int) and 1 <= index <= n for index in (i, j)):
            raise errors.ConfigError(where, f"indices must be integers in [1, {n}]")
        if not _is_number(value):
            raise errors.ConfigError(where, "value must be a number")
        couplings[i - 1, j - 1] = float(value)

    horizons_raw = model.get("horizons", 0)
    if _is_number(horizons_raw, np.int64):
        # scalar applies to every declared coupling; validation rejects a fraction
        horizons = np.where(couplings != 0.0, horizons_raw, 0)
    elif (
        isinstance(horizons_raw, list)
        and len(horizons_raw) == n
        and all(isinstance(row, list) and len(row) == n for row in horizons_raw)
        and all(_is_number(h, np.int64) for row in horizons_raw for h in row)
    ):
        horizons = np.asarray(horizons_raw)
    else:
        raise errors.ConfigError("model.horizons", f"must be a number or a {n}x{n} matrix")

    try:
        return validate_parameters(
            ModelParameters(n=n, theta=theta, lam=lam, couplings=couplings, horizons=horizons)
        )
    except errors.OpriskError as exc:
        raise errors.ConfigError("model", str(exc)) from exc


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Schema (1-based indices everywhere):

    * ``model``: ``theta`` (list), ``noise`` (per-process, exactly one of
      ``{"p": x}``, ``{"lambda": x}``, ``{"quantile": {"value": q,
      "alpha": a}}``), ``couplings`` ([i, j, value] triples), ``horizons``
      (scalar for every coupling, or an NxN matrix).
    * ``simulation``: ``n_steps``; optional ``seed``, ``m_trajectories``.
    * ``estimation``: optional ``fraction`` (default 1.0), ``collapse``
      ("mean" or "sample-per-run", default "sample-per-run").
    * ``output``: optional ``confidences``, ``resolution``,
      ``histogram_bins``, ``out_dir``.

    Raises:
        ConfigError: always names the offending key.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise errors.ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise errors.ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise errors.ConfigError(str(path), "top level must be an object")

    parameters = _build_parameters(_section(doc, "model", required=True))
    sim = _section(doc, "simulation", required=True)
    est = _section(doc, "estimation", required=False)
    out = _section(doc, "output", required=False)
    return RunConfig(
        parameters=parameters,
        n_steps=_require(sim, "n_steps", "simulation"),
        master_seed=sim.get("seed"),
        m_trajectories=sim.get("m_trajectories", 1000),
        fraction=est.get("fraction", 1.0),
        collapse=est.get("collapse", "sample-per-run"),
        confidences=out.get("confidences", [0.999]),
        resolution=out.get("resolution", 1.0),
        histogram_bins=out.get("histogram_bins", 60),
        out_dir=out.get("out_dir", "."),
    )
