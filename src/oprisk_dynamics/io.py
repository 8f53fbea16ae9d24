"""File formats, database ingestion with time binning, and configuration.

Formats (UTF-8, comma-separated, `.` decimal separator, 1-based indices).
This module opens every output file, with no newline translation, so the
bytes are the same on every OS: a CSV row ends in CR LF, as ``csv.writer``
ends it, and a samples or JSON line in LF. Every text reader (database,
samples, config) ignores a leading UTF-8 byte-order mark, which spreadsheet
tools and editors write. The database and samples readers check each line
for UTF-8 as they read it, so a byte that is not UTF-8 is a MalformedRecord
on its line, after any fault on an earlier line:

* loss database: header ``t,process,amount``, one positive-amount record per
  line; ``t`` is an integer step or an ISO-8601 timestamp. A timestamp
  without a UTC offset is read as UTC, never in the machine's time zone.
  A file of plain numeric records is parsed by ``np.loadtxt``, in text
  blocks of about 1 MiB; any other file is read again by the row parser,
  one row at a time, which gives the same records and the line of the
  first fault. Every timestamp becomes a float64. ``ingest`` bins the
  records onto the step grid and keeps the occupied (step, process) bins,
  the LossEvents the estimator reads.
* series tables: header ``t,process,value``, full (step, process) grid.
* histograms: header ``bin_left,bin_right,count``.
* VaR table: header ``process,confidence,var``, one row per process and
  confidence level. ``write_table`` writes it, the database and the
  histograms.
* samples: one float per line, no header. ``write_samples`` writes each
  value's ``repr``; ``read_samples`` reads them back bit for bit, and skips
  blank lines and ``#`` comments.
* JSON documents (estimates, validation report): ``write_json`` writes one
  document, keys sorted, indented by 2, ending in LF.
* configuration: one JSON document; see ``load_config``. A byte that is
  not UTF-8 is a ConfigError.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import re
import sys
import warnings
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from io import BytesIO
from typing import NamedTuple

import numpy as np

from . import errors
from .estimate import LossEvents, lambda_from_p, lambda_from_quantile
from .model import LossMatrix, ModelParameters, seed_in_range

__all__ = [
    "RawLossRecord",
    "LossRecords",
    "read_loss_records",
    "ingest",
    "write_loss_database",
    "write_series",
    "write_histogram",
    "write_table",
    "write_samples",
    "read_samples",
    "write_json",
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
# rows of cell texts a CSV writer holds at a time: a series block holds the
# whole steps that fit, at least one
_CSV_BLOCK_ROWS = 8192
# the database headers the NumPy pass reads, and every byte it reads after
# them: the characters of decimal numbers, separators and line ends. Beyond
# them the two parsers part: Python's float and int read `_`, `nan` and `inf`
# and strip Unicode whitespace, and NumPy skips \x1c-\x1f, which int rejects
_DB_HEADER_LINES = (b"t,process,amount", b"t,process,amount\n", b"t,process,amount\r\n")
_NUMERIC_BYTES = b"0123456789.+-eE, \t\r\n"
_RECORD_DTYPE = np.dtype([("t", np.float64), ("process", np.int64), ("amount", np.float64)])
# bytes of database text the NumPy pass parses at a time, to the next line end
_TEXT_BLOCK_BYTES = 2**20
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


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


class LossRecords:
    """Loss records held as three read-only columns, in file order.

    ``timestamps`` and ``amounts`` are float64. ``process_ids`` is int64,
    except that ``of`` keeps Python objects when some id is no int within
    int64, so that ``ingest`` names that id as it was written. Iteration
    gives RawLossRecords of Python scalars.
    """

    def __init__(self, timestamps, process_ids, amounts) -> None:
        self.timestamps = timestamps
        self.process_ids = process_ids
        self.amounts = amounts
        for column in (timestamps, process_ids, amounts):
            column.setflags(write=False)

    @classmethod
    def of(cls, timestamps, process_ids: list, amounts) -> "LossRecords":
        """Columns of Python values; every timestamp and amount as float64.
        A column of timestamps or amounts given as an ``array("d")`` becomes
        a view of it, without a copy."""
        ids_fit = all(type(p) is int and _INT64_MIN <= p <= _INT64_MAX for p in process_ids)
        return cls(
            np.asarray(timestamps, dtype=np.float64),
            np.array(process_ids, dtype=np.int64 if ids_fit else object),
            np.asarray(amounts, dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.amounts.shape[0]

    def __iter__(self):
        columns = (self.timestamps.tolist(), self.process_ids.tolist(), self.amounts.tolist())
        return map(RawLossRecord._make, zip(*columns))


def read_loss_records(path) -> LossRecords:
    """Parse a loss database file into its records, in file order.

    A file of plain numeric records is parsed by ``np.loadtxt``, a text block
    of about 1 MiB at a time. Any other file (ISO timestamps, quoted fields,
    a fault) is read again from its start by the row parser, one row at a
    time, which converts ISO timestamps and reports the first faulty line,
    a byte that is not UTF-8 included. Both give the same records, bit for
    bit. A file whose first record is not plain numeric text goes to the
    row parser after that one line.

    Raises:
        MalformedRecord: wrong header, a row that is not CSV, wrong field
            count, unparsable values, a byte that is not UTF-8.
    """
    with open(path, "rb") as handle:
        records = _read_columns(handle)
    if records is not None:
        return records
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        return _parse_rows(handle)


def _read_columns(handle) -> LossRecords | None:
    """The records of the binary database ``handle`` as ``np.loadtxt`` parses
    them, a text block of about _TEXT_BLOCK_BYTES at a time, or None when
    that parse might not give the row parser's records.

    It declines a header other than the plain one, a body that is not plain
    numeric text (see ``_plain_numeric``), a NumPy error or warning, and a
    timestamp that is not finite.
    """
    if handle.readline(64).removeprefix(codecs.BOM_UTF8) not in _DB_HEADER_LINES:
        return None
    # a block that holds a line _plain_numeric declines is declined whole, so
    # a file is declined on its first record before a block is read
    start = handle.tell()
    if not _plain_numeric(handle.readline(_TEXT_BLOCK_BYTES)):
        return None
    handle.seek(start)
    # each read is sized to the bytes left, as a read allocates all it asks for
    left = os.fstat(handle.fileno()).st_size - start
    tables = []
    while left > 0 and (block := handle.read(min(_TEXT_BLOCK_BYTES, left))):
        if len(block) < left:
            # cut at a line end; a line that runs on past this readline is
            # longer than _plain_numeric allows
            block += handle.readline(_TEXT_BLOCK_BYTES)
        left -= len(block)
        if not _plain_numeric(block):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                table = np.loadtxt(
                    BytesIO(block), _RECORD_DTYPE, delimiter=",", comments=None,
                    quotechar=None, encoding="ascii", ndmin=1,
                )
            except (ValueError, Warning):
                return None
        if not np.isfinite(table["t"]).all():
            return None
        tables.append(table)
    if len(tables) != 1:
        tables = [np.concatenate([np.empty(0, _RECORD_DTYPE), *tables])]
    # the columns are views of the one table, with no copy
    return LossRecords(*(tables[0][name] for name in _RECORD_DTYPE.names))


def _plain_numeric(block: bytes) -> bool:
    """Whether the NumPy pass reads ``block`` as the row parser does: it
    holds only _NUMERIC_BYTES, each CR in a CR LF (the csv module ends a line
    at a lone CR, NumPy fails), and no line longer than the csv module's
    field limit or ``int``'s digit limit, which NumPy does not apply."""
    if block.translate(None, _NUMERIC_BYTES):
        return False
    codes = np.frombuffer(block, np.uint8)
    after_cr = np.flatnonzero(codes == ord("\r")) + 1
    if not (codes[np.minimum(after_cr, codes.size - 1)] == ord("\n")).all():
        return False
    line_ends = np.flatnonzero(codes == ord("\n"))
    longest_line = np.diff(line_ends, prepend=-1, append=codes.size).max() - 1
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return longest_line <= min(csv.field_size_limit(), digits or csv.field_size_limit())


def _parse_rows(handle) -> LossRecords:
    """The records of the text database ``handle``, read one row at a time.

    A row starts on the line after the last line the csv module read before
    it, so a quoted field keeps the line breaks it spans. The first faulty
    line raises MalformedRecord: the header, a row the csv module rejects,
    a field, or a byte that is not UTF-8.
    """
    stamps, ids, amounts = array("d"), [], array("d")
    reader = csv.reader(_utf8_lines(handle))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _DB_HEADER:
            raise errors.MalformedRecord(1, f"expected header {','.join(_DB_HEADER)!r}")
        end = reader.line_num
        for row in reader:
            line_no, end = end + 1, reader.line_num
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
    except csv.Error as exc:
        raise errors.MalformedRecord(reader.line_num, f"not a CSV row: {exc}") from None
    return LossRecords.of(stamps, ids, amounts)


def _utf8_lines(lines):
    """The lines of a text file opened with ``errors="surrogateescape"``.
    The first line that holds an escaped byte, one that is not UTF-8, raises
    MalformedRecord naming that byte and line."""
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii() and (byte := _ESCAPED_BYTE.search(line)):
            raise errors.MalformedRecord(
                line_no, f"byte {ord(byte[0]) - 0xDC00:#04x} is not UTF-8"
            )
        yield line


def ingest(records: LossRecords, resolution: float, n: int) -> LossEvents:
    """Bin loss records onto the step grid: the occupied (step, process)
    bins, as the estimator reads them.

    A record lands in step floor((timestamp - origin) / resolution), in
    float64 arithmetic, where the origin is the earliest timestamp, and
    T = last occupied step + 1. Each bin's amounts are summed from 0.0 in
    record order, which only a sum that overflows shows. No (T, N) matrix
    is built, so a span of any length bins, as long as every
    step * N + process fits int64.

    Raises:
        EmptyDatabase, UnknownProcess, NonPositiveAmount: the first faulty
            record, in record order, or the first bin whose sum overflows.
        TimestampSpanOverflow: a record's distance from the origin
            overflows or is NaN, or the steps it spans are too many to
            number in int64 (as step * N + process).
        ValueError: resolution <= 0.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be > 0, got {resolution!r}")
    if not len(records):
        raise errors.EmptyDatabase("no loss records to ingest")
    ids, amounts = records.process_ids, records.amounts
    valid = np.asarray((ids >= 1) & (ids <= n), dtype=bool)
    valid &= np.isfinite(amounts) & (amounts > 0)
    if not valid.all():
        k = int(np.argmin(valid))
        if not 1 <= ids.item(k) <= n:
            raise errors.UnknownProcess(ids.item(k), n)
        stamp = records.timestamps.item(k)
        raise errors.NonPositiveAmount(amounts.item(k), f"timestamp {stamp}")

    # a NaN timestamp is both extremes, as argmin and argmax take the first NaN
    stamps = records.timestamps
    lo, hi = stamps.item(stamps.argmin()), stamps.item(stamps.argmax())
    # the step of a record is monotone in its timestamp, so the extremes bound it
    for ts in (lo, hi):
        if not math.isfinite((ts - lo) / resolution):
            raise errors.TimestampSpanOverflow(
                f"timestamps {lo!r} and {ts!r} are too far apart to bin at {resolution!r}"
            )
    steps = np.floor((stamps - lo) / resolution)
    n_steps = int(steps.max()) + 1
    if n_steps * n - 1 > _INT64_MAX:
        raise errors.TimestampSpanOverflow(
            f"timestamps {lo!r} and {hi!r} span {n_steps:.4g} steps at {resolution!r}, "
            "too many to number in int64"
        )
    keys = steps.astype(np.int64) * n + np.asarray(ids, np.int64) - 1
    keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=amounts)
    if sums.max() == math.inf:
        step, process = divmod(int(keys[sums.argmax()]), n)
        raise errors.NonPositiveAmount(math.inf, f"sum of step {step + 1}, process {process + 1}")
    step, process = np.divmod(keys, n)
    return LossEvents(tuple(step[process == i] for i in range(n)), n_steps)


def _write_csv(path, header, n_rows: int, rows: int, block) -> None:
    """Write a header line, then rows 0 .. n_rows - 1 in blocks of ``rows``,
    each ``block(a, b)`` of rows a .. b - 1 with one join.

    A block is an object array of the texts of its cells in row-major order,
    each text ending in its separator: ``,`` after a cell inside a row,
    ``\\r\\n`` after a row's last cell. One ``"".join`` of the flattened block
    writes all its rows, so no string is built per row. The text of a value
    is its ``repr``, as ``_cell_texts`` spells it, so floats round-trip
    exactly, and these are the bytes ``csv.writer`` writes for such plain
    cells. Only one block's texts are held at once.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for a in range(0, n_rows, rows):
            handle.write("".join(block(a, min(a + rows, n_rows)).ravel().tolist()))


def _cell_texts(column, end: str, prefix: str = "") -> np.ndarray:
    """The cell text ``prefix + repr(value) + end`` of each value of a float64
    column or one of integers in [0, 2**63), as an object array.

    A float is spelt once per run of equal values, then repeated along the
    run. A run ends where the bit pattern changes, so -0.0 and 0.0 stay apart,
    and no sort is made. An integer is spelt from its decimal digits, with no
    ``str`` per value: the k values of d digits fill one (k, d) byte matrix,
    framed by the bytes of ``prefix`` and of ``end`` and a NUL per row, which
    is decoded once and split once at the NULs.
    """
    if column.dtype == np.float64:
        bits = column.view(np.int64)
        new_run = np.empty(column.size, dtype=bool)
        new_run[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        texts = [f"{prefix}{value!r}{end}" for value in column[starts].tolist()]
        return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=column.size))
    values = np.asarray(column, dtype=np.int64)
    head, tail = (np.frombuffer(text.encode(), dtype=np.uint8) for text in (prefix, f"{end}\0"))
    # a value has one digit more than the powers 10, 100, ..., 10**18 it reaches
    powers = 10 ** np.arange(1, 19, dtype=np.int64)
    n_digits = 1 + np.searchsorted(powers[powers <= values.max(initial=0)], values, side="right")
    texts = np.empty(values.size, dtype=object)
    for d in np.flatnonzero(np.bincount(n_digits)).tolist():
        rows = n_digits == d
        k = np.count_nonzero(rows)
        cells = np.empty((k, head.size + d + tail.size), dtype=np.uint8)
        cells[:, :head.size] = head
        cells[:, head.size + d:] = tail
        rest = values[rows]
        for j in reversed(range(head.size, head.size + d)):
            quotient = rest // 10
            cells[:, j] = rest - quotient * 10 + ord("0")
            rest = quotient
        texts[rows] = np.fromiter(cells.tobytes().decode()[:-1].split("\0"), dtype=object, count=k)
    return texts


def write_table(path, header, *columns) -> None:
    """Write equal-length columns under ``header``, one CSV row per index.

    A column is float64 or integers in [0, 2**63), and each cell is its
    value's ``repr``. Every line ends in CR LF, as ``csv.writer`` ends it.
    """
    columns = [np.asarray(c) for c in columns]
    if not columns or len(header) != len(columns) or not all(
        c.shape == columns[0].shape and c.ndim == 1
        and (c.dtype == np.float64 or (
            c.dtype.kind in "iu" and c.min(initial=0) >= 0 and int(c.max(initial=0)) <= _INT64_MAX
        ))
        for c in columns
    ):
        raise ValueError("write_table takes one column per header field, all of one length, "
                         "each float64 or integers in [0, 2**63)")
    ends = [","] * (len(columns) - 1) + ["\r\n"]

    def block(a: int, b: int) -> np.ndarray:
        return np.stack([_cell_texts(c[a:b], e) for c, e in zip(columns, ends)], axis=1)

    _write_csv(path, header, columns[0].size, _CSV_BLOCK_ROWS, block)


def write_loss_database(path, losses) -> None:
    """Write nonzero losses as ``t,process,amount`` records, steps 1-based,
    from a LossMatrix or a (T, N) array that passes its rules."""
    arr = (losses if isinstance(losses, LossMatrix) else LossMatrix(losses)).losses
    t, i = np.nonzero(arr)
    write_table(path, _DB_HEADER, t + 1, i + 1, arr[t, i])


def write_series(path, values) -> None:
    """Write a (T, N) table as the full ``t,process,value`` grid, 1-based.

    A block is a (steps, N, 2) table: the text ``t,`` of each step, made once
    per step, beside the text ``i,value\\r\\n`` of each process's value.
    """
    arr = np.asarray(values, dtype=np.float64)
    n_steps, n = arr.shape

    def block(a: int, b: int) -> np.ndarray:
        table = np.empty((b - a, n, 2), dtype=object)
        table[:, :, 0] = _cell_texts(np.arange(a + 1, b + 1), ",")[:, None]
        for i in range(n):
            table[:, i, 1] = _cell_texts(arr[a:b, i], "\r\n", prefix=f"{i + 1},")
        return table

    _write_csv(path, _SERIES_HEADER, n_steps, max(1, _CSV_BLOCK_ROWS // max(n, 1)), block)


def write_histogram(path, samples, n_bins: int = 60) -> None:
    """Histogram a sample vector into ``bin_left,bin_right,count`` rows."""
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0:
        raise errors.EmptySample("cannot histogram an empty sample")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    counts, edges = np.histogram(s, bins=n_bins)
    write_table(path, _HIST_HEADER, edges[:-1], edges[1:], counts)


def write_samples(path, samples) -> None:
    """Write one sample per line as its ``repr``, which ``read_samples`` reads
    back bit for bit."""
    texts = [f"{value!r}\n" for value in np.asarray(samples, dtype=np.float64).ravel().tolist()]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("".join(texts))


def write_json(path, doc: dict) -> None:
    """Write a JSON document with sorted keys, indented by 2, and a final LF."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_samples(path) -> np.ndarray:
    """Read one finite float per line (blank lines and # comments skipped).

    Raises:
        MalformedRecord: a line that is no finite number, a byte that is not
            UTF-8.
    """
    values = []
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, line in enumerate(_utf8_lines(handle), start=1):
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
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise errors.ConfigError("output.out_dir", "must be a nonempty string path")
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
        except errors.UsageError as exc:
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
    first = {}  # (i, j) -> the key of the triple that set it
    for k, triple in enumerate(model.get("couplings", [])):
        where = f"model.couplings[{k + 1}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            raise errors.ConfigError(where, "must be an [i, j, value] triple")
        i, j, value = triple
        if not all(_is_number(index, kind=int) and 1 <= index <= n for index in (i, j)):
            raise errors.ConfigError(where, f"indices must be integers in [1, {n}]")
        if not _is_number(value):
            raise errors.ConfigError(where, "value must be a number")
        if (i, j) in first:
            raise errors.ConfigError(where, f"repeats the pair ({i}, {j}) of {first[i, j]}")
        first[i, j] = where
        couplings[i - 1, j - 1] = float(value)

    horizons_raw = model.get("horizons", 0)
    if _is_number(horizons_raw, np.int64):
        # scalar applies to every declared coupling; ModelParameters rejects a fraction
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
        return ModelParameters(theta=theta, lam=lam, couplings=couplings, horizons=horizons)
    except errors.OpriskError as exc:
        raise errors.ConfigError("model", str(exc)) from exc


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Schema (1-based indices everywhere):

    * ``model``: ``theta`` (list), ``noise`` (per-process, exactly one of
      ``{"p": x}``, ``{"lambda": x}``, ``{"quantile": {"value": q,
      "alpha": a}}``), ``couplings`` ([i, j, value] triples, one per pair),
      ``horizons`` (scalar for every coupling, or an NxN matrix).
    * ``simulation``: ``n_steps``; optional ``seed``, ``m_trajectories``.
    * ``estimation``: optional ``fraction`` (default 1.0), ``collapse``
      ("mean" or "sample-per-run", default "sample-per-run").
    * ``output``: optional ``confidences``, ``resolution``,
      ``histogram_bins``, ``out_dir``.

    Raises:
        ConfigError: always names the offending key, or the file when it is
            unreadable, not UTF-8 or not JSON.
    """
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            doc = json.loads("".join(_utf8_lines(handle)))
    except OSError as exc:
        raise errors.ConfigError(str(path), f"cannot read config: {exc}") from exc
    except errors.MalformedRecord as exc:
        raise errors.ConfigError(str(path), str(exc)) from None
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
