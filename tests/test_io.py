"""File formats, ingestion binning, and configuration validation."""

import csv
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oprisk_dynamics import errors, io
from oprisk_dynamics.io import (
    LossRecords,
    RawLossRecord,
    ingest,
    load_config,
    read_loss_records,
    read_samples,
    reference_config_path,
    write_histogram,
    write_json,
    write_loss_database,
    write_samples,
    write_series,
    write_table,
)
from oprisk_dynamics.estimate import LossEvents
from oprisk_dynamics.model import LossMatrix, NoiseSpec
from oprisk_dynamics.simulate import simulate

from conftest import build_reference_parameters


def naive_read(lines):
    """Row-at-a-time parse of a loss database: the reference the columnar
    ``read_loss_records`` is checked against."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["t", "process", "amount"]:
        raise errors.MalformedRecord(1, "expected header 't,process,amount'")
    records, line_no = [], 1
    rows = enumerate(reader, start=2)
    while True:
        try:
            line_no, row = next(rows)
        except StopIteration:
            return records
        except csv.Error as exc:
            raise errors.MalformedRecord(line_no + 1, f"not a CSV row: {exc}") from None
        if not row:
            continue
        if len(row) != 3:
            raise errors.MalformedRecord(line_no, f"expected 3 fields, got {len(row)}")
        text = row[0].strip()
        try:
            ts = float(text)
        except ValueError:
            try:
                stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
            except ValueError:
                raise errors.MalformedRecord(
                    line_no, f"timestamp {text!r} is neither a number nor ISO-8601"
                ) from None
            ts = stamp.replace(tzinfo=stamp.tzinfo or timezone.utc).timestamp()
        if not math.isfinite(ts):
            raise errors.MalformedRecord(line_no, f"timestamp {text!r} is not finite")
        try:
            process_id = int(row[1])
        except ValueError:
            raise errors.MalformedRecord(
                line_no, f"process id {row[1]!r} is not an integer"
            ) from None
        try:
            amount = float(row[2])
        except ValueError:
            raise errors.MalformedRecord(line_no, f"amount {row[2]!r} is not a number") from None
        records.append(RawLossRecord(ts, process_id, amount))


def naive_ingest(records, resolution, n):
    """One record at a time, in Python arithmetic, into a dense (T, N) loss
    matrix: the reference ``ingest`` is checked against, through
    LossEvents.of, for spans of steps small enough to hold."""
    if not resolution > 0:
        raise ValueError(f"resolution must be > 0, got {resolution!r}")
    records = list(records)
    if not records:
        raise errors.EmptyDatabase("no loss records to ingest")
    for r in records:
        if not 1 <= r.process_id <= n:
            raise errors.UnknownProcess(r.process_id, n)
        if not (np.isfinite(r.amount) and r.amount > 0):
            raise errors.NonPositiveAmount(r.amount, f"timestamp {r.timestamp}")
    lo = min(r.timestamp for r in records)
    hi = max(r.timestamp for r in records)
    for ts in (lo, hi):
        if not math.isfinite((ts - lo) / resolution):
            raise errors.TimestampSpanOverflow(
                f"timestamps {lo!r} and {ts!r} are too far apart to bin at {resolution!r}"
            )
    steps = [math.floor((r.timestamp - lo) / resolution) for r in records]
    losses = np.zeros((max(steps) + 1, n))
    with np.errstate(over="ignore"):
        for r, step in zip(records, steps):
            losses[step, r.process_id - 1] += r.amount
    overflowed = np.argwhere(losses == math.inf)
    if overflowed.size:
        step, process = overflowed[0].tolist()
        raise errors.NonPositiveAmount(math.inf, f"sum of step {step + 1}, process {process + 1}")
    return losses


def written_losses(records, n_steps, n):
    """The (T, N) loss matrix that ``write_loss_database`` wrote as
    ``records``, whose timestamps are its 1-based steps."""
    losses = np.zeros((n_steps, n))
    for r in records:
        losses[int(r.timestamp) - 1, r.process_id - 1] += r.amount
    return losses


def plain(events):
    """LossEvents as Python lists, with the dtype of each step array."""
    return [(s.dtype.str, s.tolist()) for s in events.steps], events.n_steps


def events_outcomes(records, resolution, n):
    """The outcomes of ``ingest`` and of its oracle, ``naive_ingest`` then
    LossEvents.of."""
    got = outcome(lambda: plain(ingest(records, resolution, n)))
    want = outcome(lambda: plain(LossEvents.of(naive_ingest(records, resolution, n))))
    return got, want


def outcome(call):
    """What ``call()`` returns, or the type, message and line of what it raises."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the comparison is of any outcome
        return (type(exc), str(exc), getattr(exc, "line_no", None))


def same(a, b) -> bool:
    """Outcomes equal, NaNs and the bits of float arrays included."""
    if isinstance(a[1], np.ndarray) and isinstance(b[1], np.ndarray):
        return a[1].shape == b[1].shape and a[1].tobytes() == b[1].tobytes()
    return repr(a) == repr(b)


# 2026-01-01T00:00:00Z, so numeric and ISO timestamps of one file lie close
_EPOCH = 1767225600


def random_database_text(rng) -> str:
    """A valid database: LF and CRLF lines, blank lines, quoted fields,
    numeric and ISO timestamps, several records per bin."""
    iso = rng.random() < 0.5
    lines = ["t,process,amount"]
    for _ in range(int(rng.integers(1, 60))):
        if rng.random() < 0.1:
            lines.append("")
        step = int(rng.integers(0, 25))
        kinds = ["int", "float", "iso", "iso-z", "iso-offset"] if iso else ["int", "float"]
        stamp = rng.choice(kinds)
        moment = datetime.fromtimestamp(_EPOCH + step, timezone.utc)
        t = {
            "int": str(step + (_EPOCH if iso else 0)),
            "float": repr(step + (_EPOCH if iso else 0) + float(rng.uniform(0, 1))),
            "iso": moment.strftime("%Y-%m-%dT%H:%M:%S"),
            "iso-z": moment.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "iso-offset": (moment + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S+02:00"),
        }[stamp]
        fields = [t, str(int(rng.integers(1, 4))), repr(float(rng.uniform(0.01, 5.0)))]
        if rng.random() < 0.1:
            fields[1] = f" {fields[1]} "
        fields = [f'"{f}"' if rng.random() < 0.1 else f for f in fields]
        lines.append(",".join(fields))
    return "".join(line + ("\r\n" if rng.random() < 0.5 else "\n") for line in lines)


def random_numeric_text(rng) -> str:
    """A valid database of unquoted numeric fields, the files the NumPy pass
    reads: LF and CRLF lines, blank lines, signs, leading zeros, exponents,
    spaces and tabs around fields, maybe no final line end, several records
    per bin."""
    lines = ["t,process,amount"]
    for _ in range(int(rng.integers(1, 60))):
        if rng.random() < 0.1:
            lines.append("")
        step = int(rng.integers(0, 25))
        fraction = float(rng.uniform(0, 1))
        forms = [str(step), repr(step + fraction), f"{step:+04d}", f"{step * 10}E-1"]
        fields = [
            str(rng.choice(forms)),
            str(rng.choice(["{}", "0{}", "+{}"])).format(int(rng.integers(1, 4))),
            repr(float(rng.uniform(0.01, 5.0))),
        ]
        if rng.random() < 0.1:
            fields = [f"{rng.choice(['', ' ', chr(9)])}{f}{rng.choice(['', ' '])}" for f in fields]
        lines.append(",".join(fields))
    text = "".join(line + ("\r\n" if rng.random() < 0.5 else "\n") for line in lines)
    return text.rstrip("\r\n") if rng.random() < 0.2 else text


@pytest.fixture(params=["either-path", "row-parser"])
def read_path(request, monkeypatch):
    """Read files as read_loss_records does, or with the NumPy pass declining
    every file, so that the row parser reads valid files too."""
    if request.param == "row-parser":
        monkeypatch.setattr(io, "_read_columns", lambda handle: None)
    return request.param


class TestReadPathsMatchRowOracle:
    @pytest.mark.parametrize("make_text", [random_database_text, random_numeric_text])
    @pytest.mark.parametrize("case_seed", range(40))
    def test_read_and_ingest_bit_for_bit(self, tmp_path, read_path, make_text, case_seed):
        rng = np.random.default_rng(7000 + case_seed)
        path = tmp_path / "db.csv"
        path.write_bytes(make_text(rng).encode())
        with open(path, newline="", encoding="utf-8") as handle:
            expected = naive_read(handle)
        resolution = float(rng.choice([1.0, 2.5, 0.5, 3600.0]))
        records = read_loss_records(path)
        assert isinstance(records, LossRecords)
        assert repr(list(records)) == repr(expected)
        want = outcome(lambda: plain(LossEvents.of(naive_ingest(expected, resolution, 3))))
        got = outcome(lambda: plain(ingest(records, resolution, 3)))
        assert same(got, want)

    # one fault per entry, each in the field the row loop checks it in
    FAULTS = [
        "2,1",
        "2,1,1.0,4",
        "x,1,1.0",
        "nan,1,1.0",
        "-inf,1,1.0",
        "2026-13-01T00:00:00,1,1.0",
        "2,one,1.0",
        "2,1.0,1.0",
        "2,1,lots",
        "2,99999999999999999999999,1.0",
        "2,0,1.0",
        "2,4,1.0",
        "2,1,0.0",
        "2,1,-1.5",
        "2,1,nan",
        "2,1,inf",
        "2026-01-01T00:00:00,1,1.0",
        '"2",1,"1.5"',
        "",
        "2,1," + "9" * 131_073,  # a field over the csv module's limit
    ]

    @pytest.mark.parametrize("case_seed", range(30))
    def test_faulty_files_fail_alike(self, tmp_path, read_path, case_seed):
        rng = np.random.default_rng(7500 + case_seed)
        lines = random_database_text(rng).splitlines(keepends=True)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(1, len(lines) + 1))
            lines.insert(at, self.FAULTS[int(rng.integers(len(self.FAULTS)))] + "\n")
        path = tmp_path / "db.csv"
        path.write_text("".join(lines), newline="")
        with open(path, newline="", encoding="utf-8") as handle:
            text_lines = handle.readlines()
        want = outcome(lambda: plain(LossEvents.of(naive_ingest(naive_read(text_lines), 1.0, 3))))
        got = outcome(lambda: plain(ingest(read_loss_records(path), 1.0, 3)))
        assert same(got, want)

    @pytest.mark.parametrize("fault", [None] + FAULTS)
    def test_events_equal_ingest_then_nonzero(self, tmp_path, fault):
        # a file of 40 or more records puts several in many (step, process)
        # bins; numeric steps keep the oracle's dense matrix small, unless
        # the fault is an ISO timestamp, whose span only the hour bins keep
        # small
        seed = 7800
        while "T" in (text := random_database_text(np.random.default_rng(seed))) or (
            text.count("\n") < 40
        ):
            seed += 1
        rng = np.random.default_rng(seed)
        lines = text.splitlines(keepends=True)
        if fault is not None:
            lines.insert(int(rng.integers(1, len(lines) + 1)), fault + "\n")
        path = tmp_path / "db.csv"
        path.write_text("".join(lines), newline="")
        try:
            records = read_loss_records(path)
        except errors.MalformedRecord:
            return  # a file ingest never sees
        lo, hi = min(records.timestamps), max(records.timestamps)
        for resolution in (1.0, 2.5, 3600.0):
            if (hi - lo) / resolution > 1e6:
                continue
            got, want = events_outcomes(records, resolution, 3)
            assert same(got, want), resolution

    def test_first_faulty_line_is_reported(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,1,1.0\n2,one,1.0\n3,1,1.0\nx,1,1.0\n")
        with pytest.raises(errors.MalformedRecord, match="process id") as exc:
            read_loss_records(path)
        assert exc.value.line_no == 3

    # a quoted field may hold line breaks, so a row's line is the file's
    # line, not the row's count
    @pytest.mark.parametrize(
        "text,line_no,reason_part",
        [
            pytest.param('t,process,amount\n1,1,"1.0\n"\n2,1,x\n', 4, "amount", id="after"),
            pytest.param(
                't,process,amount\r\n1,1,"1.0\r\n"\r\n\r\n2,"1\r",1.0\n3,1,x\n', 7, "amount",
                id="crlf-cr-and-blank-before",
            ),
            pytest.param(
                't,process,amount\n1,1,"1.0\n"\n2,1,"x\ny"\n3,1,1.0\n', 4, "amount",
                id="faulty-row-spans-two",
            ),
            pytest.param(
                't,process,amount\n1,1,"1.0\n"\n2,1,' + "9" * 131_073 + "\n", 4, "not a CSV row",
                id="row-the-csv-module-rejects",
            ),
        ],
    )
    def test_line_numbers_count_file_lines(self, tmp_path, read_path, text, line_no, reason_part):
        path = tmp_path / "db.csv"
        path.write_text(text, newline="")
        with pytest.raises(errors.MalformedRecord) as exc:
            read_loss_records(path)
        assert exc.value.line_no == line_no
        assert reason_part in exc.value.reason

    @pytest.mark.parametrize("case_seed", range(20))
    def test_faulty_row_starts_where_the_reader_says(self, tmp_path, read_path, case_seed):
        # quoted amounts span lines ending in LF, CR LF or a lone CR; the
        # csv module's own line count places the faulty row
        rng = np.random.default_rng(7700 + case_seed)
        ends = ["\n", "\r\n", "\r"]
        rows = [
            f'{k},1,"{k + 1}.0' + "".join(rng.choice(ends, int(rng.integers(0, 3)))) + '"'
            for k in range(int(rng.integers(1, 30)))
        ]
        rows.insert(int(rng.integers(0, len(rows) + 1)), '"x' + str(rng.choice(ends)) + '",1,1.0')
        text = "t,process,amount" + "".join(rng.choice(ends) + row for row in rows) + "\n"
        path = tmp_path / "db.csv"
        path.write_text(text, newline="")
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            line_no = 1
            for row in reader:
                if row[0].strip() == "x":
                    break
                line_no = reader.line_num + 1
        with pytest.raises(errors.MalformedRecord, match="timestamp") as exc:
            read_loss_records(path)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "lines,line_no,reason_part",
        [
            (["t,process,amount", "1,1,1.0", "2,1," + "9" * 131_073], 3, "not a CSV row"),
            (["t,process,amount", "2,one,1.0", "2,1," + "9" * 131_073], 2, "process id"),
            (["t,process," + "9" * 131_073, "1,1,1.0"], 1, "not a CSV row"),
        ],
    )
    def test_row_the_csv_module_rejects_is_malformed(self, tmp_path, lines, line_no, reason_part):
        path = tmp_path / "db.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.MalformedRecord) as exc:
            read_loss_records(path)
        assert exc.value.line_no == line_no
        assert reason_part in exc.value.reason

    @pytest.mark.parametrize(
        "line,reason_part",
        [
            ("x,one", "3 fields"),
            ("x,one,lots", "timestamp"),
            ("1,one,lots", "process id"),
            ("1,1,lots", "amount"),
        ],
    )
    def test_fields_are_checked_in_row_order(self, tmp_path, line, reason_part):
        path = tmp_path / "db.csv"
        path.write_text(f"t,process,amount\n1,1,1.0\n{line}\n")
        with pytest.raises(errors.MalformedRecord) as exc:
            read_loss_records(path)
        assert exc.value.line_no == 3
        assert reason_part in exc.value.reason

    @pytest.mark.parametrize(
        "columns",
        [
            pytest.param(([0], [2**63], [1.0]), id="process-id-beyond-int64"),
            pytest.param(([0, 1], [1, -(2**70)], [1.0, 1.0]), id="process-id-below-int64"),
            pytest.param(([0.0, -0.0, 2.0], [1, 1, 1], [1.0, 2.0, 1.0]), id="signed-zeros"),
            pytest.param(([0], [1], [0]), id="int-amount"),
            pytest.param(([1.5], [True], [1.0]), id="bool-process-id"),
            pytest.param(
                ([np.float64(1.5)], [np.int64(1)], [np.float64(2.0)]), id="numpy-scalars"
            ),
            pytest.param(([1, 2], [1, 0], [-1.0, 1.0]), id="first-bad-record-wins"),
        ],
    )
    def test_records_no_column_holds_exactly_bin_or_fail_alike(self, columns):
        assert same(*events_outcomes(LossRecords.of(*columns), 1.0, 2))

    def test_listed_timestamps_bin_as_float64_like_a_file(self, tmp_path):
        # LossRecords.of takes a list's 2**53 + 1 as float64, as a file's
        stamps = [2**53, 2**53 + 1, 2**53 + 4]
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n" + "".join(f"{t},1,1.0\n" for t in stamps))
        listed = ingest(LossRecords.of(stamps, [1, 1, 1], [1.0, 1.0, 1.0]), 1.0, 1)
        assert plain(listed) == ([("<i8", [0, 4])], 5)
        assert plain(listed) == plain(ingest(read_loss_records(path), 1.0, 1))

    def test_file_timestamps_bin_as_float64(self, tmp_path):
        # 2**53 + 1 is no float64: in a file it joins 2**53's bin
        stamps = [2**53, 2**53 + 1, 2**53 + 4]
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n" + "".join(f"{t},1,1.0\n" for t in stamps))
        records = read_loss_records(path)
        assert np.array_equal(naive_ingest(records, 1.0, 1), [[2.0], [0.0], [0.0], [0.0], [1.0]])
        assert plain(ingest(records, 1.0, 1)) == ([("<i8", [0, 4])], 5)
        for nan_stamps in ([0.0, math.nan], [math.nan]):
            ones = [1] * len(nan_stamps)
            records = LossRecords.of(nan_stamps, ones, [1.0] * len(nan_stamps))
            with pytest.raises(errors.TimestampSpanOverflow, match="nan"):
                ingest(records, 1.0, 1)

    def test_process_id_beyond_int64_is_unknown(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,1,1.0\n2,99999999999999999999999,1.0\n")
        records = read_loss_records(path)
        assert list(records)[1].process_id == 99999999999999999999999
        with pytest.raises(errors.UnknownProcess, match="99999999999999999999999"):
            ingest(records, 1.0, 2)


def assert_declines_or_matches(path):
    """The NumPy pass declines ``path`` or returns the row parser's columns,
    bit for bit and in the same dtypes; returns what the pass returned."""
    with open(path, "rb") as handle:
        columns = io._read_columns(handle)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_read_columns", lambda handle: None)
        rows = outcome(lambda: read_loss_records(path))
    if columns is not None:
        assert rows[0] == "ok", rows
        for got, want in zip(
            (columns.timestamps, columns.process_ids, columns.amounts),
            (rows[1].timestamps, rows[1].process_ids, rows[1].amounts),
        ):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    return columns


# the characters of numbers, and those that Python's int and float, the csv
# module or NumPy read otherwise: whitespace NumPy skips (\x1c-\x1f) or
# Python strips (\x0b, \x0c, \xa0), digit separators, quotes
_HOSTILE = "0123456789.+-eE \t\x0b\x0c\x1c\x1d\x1e\x1f\xa0_\"'"
_odd_numbers = st.sampled_from(
    ["nan", "inf", "-inf", "2.0", "1e3", "-0", "007", "+5", ".5", "5.", "1e999", "", "-", "e5"]
)
_numbers = st.one_of(st.integers(-(2**64), 2**64).map(str), st.floats().map(repr), _odd_numbers)


def _padded(numbers):
    return st.tuples(st.text(" \t", max_size=2), numbers, st.text(" \t", max_size=2)).map("".join)


def _mostly(good, other):
    """``good`` nine times in ten, else ``other``."""
    return st.tuples(st.integers(0, 9), good, other).map(lambda t: t[2] if t[0] == 9 else t[1])


# lines of numbers, most of which the NumPy pass reads, and lines of
# anything, most of which it declines
_finite = st.one_of(
    st.integers(-(2**60), 2**60).map(str),
    st.floats(allow_infinity=False, allow_nan=False).map(repr),
)
_number_lines = st.tuples(
    _mostly(_padded(_finite), _padded(_numbers)),
    _mostly(_padded(st.integers(1, 9).map(str)), _padded(_numbers)),
    _mostly(_padded(_finite), _padded(_numbers)),
).map(",".join)
_any_lines = st.lists(
    st.one_of(_numbers, st.text(_HOSTILE, max_size=6)), max_size=4
).map(",".join)


class TestNumpyPassMatchesRowParser:
    """``io._read_columns``, the NumPy pass, on any file either declines or
    gives the row parser's columns, bit for bit and in the same dtypes."""

    @given(
        header=st.sampled_from(
            ["t,process,amount", "\ufefft,process,amount", " t,process,amount"]
        ),
        lines=st.lists(st.tuples(st.sampled_from(["\n", "\r\n"]), _number_lines), max_size=8),
        odd_line=st.none() | st.none() | st.tuples(
            st.integers(0, 8), st.sampled_from(["\n", "\r\n", "\r", ""]), _any_lines
        ),
        final_end=st.sampled_from(["", "\n", "\r\n", "\r", "\n\n"]),
    )
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_hostile_text(self, tmp_path, header, lines, odd_line, final_end):
        if odd_line is not None:
            lines.insert(odd_line[0], odd_line[1:])
        text = header + "".join(end + line for end, line in lines) + final_end
        path = tmp_path / "db.csv"
        path.write_bytes(text.encode())
        assert_declines_or_matches(path)

    @pytest.mark.parametrize("case_seed", range(20))
    def test_numeric_files_take_the_pass(self, tmp_path, case_seed):
        path = tmp_path / "db.csv"
        path.write_bytes(random_numeric_text(np.random.default_rng(7900 + case_seed)).encode())
        assert assert_declines_or_matches(path) is not None

    LIMIT = csv.field_size_limit()
    # 0 where the interpreter puts no limit on int's digits: Python before
    # 3.10.7 has no sys.get_int_max_str_digits, and 0 switches the limit off
    DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    AT_DIGIT_LIMIT = pytest.mark.skipif(not DIGITS, reason="the interpreter has no int digit limit")

    @pytest.mark.parametrize(
        "body,takes_pass",
        [
            pytest.param("1,2.0,3\n", False, id="id-2.0"),
            pytest.param("1,9223372036854775808,3\n", False, id="id-beyond-int64"),
            pytest.param("1,-9223372036854775809,3\n", False, id="id-below-int64"),
            pytest.param("1,9223372036854775807,3\n-1,-9223372036854775808,3\n", True,
                         id="ids-at-int64-edges"),
            pytest.param("1,1," + "0" * (LIMIT - 1) + "1\n", False, id="field-at-csv-limit"),
            pytest.param("1,1," + "0" * LIMIT + "1\n", False, id="field-over-csv-limit"),
            pytest.param("1," + "0" * (DIGITS - 1) + "1,1\n", False, id="id-at-int-digit-limit",
                         marks=AT_DIGIT_LIMIT),
            pytest.param("1," + "0" * DIGITS + "1,1\n", False, id="id-over-int-digit-limit",
                         marks=AT_DIGIT_LIMIT),
            pytest.param("1," + "0" * (DIGITS - 6) + "1,1\n", True, id="id-on-longest-line",
                         marks=AT_DIGIT_LIMIT),
            pytest.param("1,1,1\n \n", False, id="space-only-line"),
            pytest.param("1,1,1\n\t\r\n", False, id="tab-only-line"),
            pytest.param("\n\r\n1,1,1\n\n2,1,1\r\n\r\n", True, id="blank-lines"),
            pytest.param("\n\r\n", False, id="blank-lines-only"),
            pytest.param("", True, id="header-only"),
            pytest.param("1,1,1\n2,1,1", True, id="no-final-line-end"),
            pytest.param("1,1,1\r2,1,1\r", False, id="cr-line-ends"),
            pytest.param("1,1\r,1\n", False, id="cr-in-a-line"),
            pytest.param("1,1,1\r", False, id="cr-at-the-end"),
            pytest.param("1,2\x1f,3\n", False, id="unit-separator"),
            pytest.param("1,2\x1c,3\n", False, id="file-separator"),
            pytest.param("1,2\x0b,3\n", False, id="vertical-tab"),
            pytest.param("1,2\xa0,3\n", False, id="no-break-space"),
            pytest.param("1_0,1,1\n", False, id="digit-separator"),
            pytest.param('"1",1,1\n', False, id="quoted"),
            pytest.param("nan,1,1\n", False, id="nan-timestamp"),
            pytest.param("1e999,1,1\n", False, id="overflowing-timestamp"),
            pytest.param("1,1,1e999\n1,1,nan\n", False, id="non-finite-amounts"),
            pytest.param("1,1,1e999\n", True, id="overflowing-amount"),
            pytest.param("2026-01-01T00:00:00,1,1\n", False, id="iso"),
            pytest.param(
                "-0,1,-0.0\n0.1000000000000000055511151231257827021181583404541015625,2,"
                "4.9e-324\n2.4703282292062327e-324,1,1.7976931348623158e308\n"
                "2.4703282292062328e-324,1,1.7976931348623159e308\n", True,
                id="signed-zeros-rounding-and-subnormals",
            ),
            pytest.param(" 1 ,\t2\t, +3e0 \n+.5,+0,5.\n", True, id="padding-and-signs"),
        ],
    )
    @pytest.mark.parametrize("header", ["t,process,amount\n", "\ufefft,process,amount\r\n"])
    def test_fixed_cases(self, tmp_path, header, body, takes_pass):
        path = tmp_path / "db.csv"
        path.write_bytes((header + body).encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns = assert_declines_or_matches(path)
        assert not caught
        assert (columns is not None) == takes_pass

    def test_interpreter_without_an_int_digit_limit(self, tmp_path, monkeypatch):
        # Python before 3.10.7 has no sys.get_int_max_str_digits and parses an
        # int of any length, so only the csv field limit bounds a line; on
        # an interpreter with a limit, the limit is lifted and the function
        # deleted for the test
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        try:
            path = tmp_path / "db.csv"
            path.write_text("t,process,amount\n1," + "0" * 4999 + "1,1\n")
            columns = assert_declines_or_matches(path)
            assert columns is not None
            assert columns.process_ids.tolist() == [1]
            path.write_text("t,process,amount\n1,1," + "0" * self.LIMIT + "1\n")
            assert assert_declines_or_matches(path) is None
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_module_collects_on_an_interpreter_without_an_int_digit_limit(self):
        # the class body reads the limit, so a read that fails there fails
        # the collection of every test in this module
        code = (
            "import sys, pytest; vars(sys).pop('get_int_max_str_digits', None); "
            "sys.exit(pytest.main(['--co', '-q', '-p', 'no:cacheprovider', sys.argv[1]]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, __file__], cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr

    def test_header_only_file_without_a_line_end_takes_the_pass(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_bytes(b"t,process,amount")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns = assert_declines_or_matches(path)
        assert not caught
        assert columns is not None and len(columns) == 0

    @pytest.mark.parametrize("block_bytes", [io._TEXT_BLOCK_BYTES, 4096, 64, 30, 1])
    def test_written_database_takes_the_pass(self, tmp_path, monkeypatch, block_bytes):
        # with the row parser gone only the pass can read the file; a block of
        # 30 bytes or more reaches each line end, one of a byte ends within a
        # line and declines
        rng = np.random.default_rng(8100)
        losses = np.where(rng.random((500, 3)) < 0.3, rng.exponential(size=(500, 3)), 0.0)
        path = tmp_path / "db.csv"
        write_loss_database(path, losses)

        def row_parser(handle):
            raise AssertionError("the row parser read the file")

        monkeypatch.setattr(io, "_TEXT_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(io, "_parse_rows", row_parser)
        if block_bytes == 1:
            with pytest.raises(AssertionError, match="row parser"):
                read_loss_records(path)
            return
        back = written_losses(read_loss_records(path), 500, 3)
        assert np.array_equal(back, losses)


class CountingReader:
    """A binary file handle that counts the bytes read through it and keeps
    the size of each ``read``."""

    def __init__(self, handle):
        self.handle, self.bytes_read, self.read_sizes = handle, 0, []

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def read(self, size=-1):
        self.read_sizes.append(size)
        return self._counted(self.handle.read(size))

    def readline(self, size=-1):
        return self._counted(self.handle.readline(size))

    def _counted(self, data):
        self.bytes_read += len(data)
        return data


class TestPassReadsWhatItNeeds:
    HEAD = "t,process,amount\n"

    def test_file_declined_on_its_first_record_is_read_no_further(self, tmp_path):
        # the row parser reads this file again, so the pass reads one line
        first = "2026-01-01T00:00:00,1,0.5\n"
        path = tmp_path / "db.csv"
        path.write_text(self.HEAD + first + "1,1,0.5\n" * 20_000)
        with open(path, "rb") as handle:
            reader = CountingReader(handle)
            assert io._read_columns(reader) is None
        assert reader.bytes_read == len(self.HEAD + first)

    def test_numeric_file_is_read_once_in_whole_blocks(self, tmp_path, monkeypatch):
        # the first record is read to be checked, then again in its block;
        # each read asks for a whole block but the last, which asks for the
        # bytes left in the file and no more
        first = "1,1,0.5\n"
        path = tmp_path / "db.csv"
        path.write_text(self.HEAD + first + "2,2,0.25\n" * 500)
        monkeypatch.setattr(io, "_TEXT_BLOCK_BYTES", 1000)
        with open(path, "rb") as handle:
            reader = CountingReader(handle)
            records = io._read_columns(reader)
            assert handle.read() == b""
        assert len(records) == 501
        *whole, last = reader.read_sizes
        assert set(whole) == {1000} and 0 < last < 1000
        assert reader.bytes_read == path.stat().st_size + len(first)

    @pytest.mark.parametrize("block_bytes", [io._TEXT_BLOCK_BYTES, 2**16])
    def test_numeric_file_peaks_at_a_few_times_its_size(self, tmp_path, monkeypatch, block_bytes):
        # a read asks for no more than the bytes left in the file, and the
        # columns of one block's table are views of it, not copies; parsed in
        # blocks, the file's peak holds the tables and their joined copy
        rng = np.random.default_rng(8300)
        losses = np.where(rng.random((40_000, 5)) < 0.06, rng.exponential(size=(40_000, 5)), 0.0)
        path = tmp_path / "db.csv"
        write_loss_database(path, losses)
        size = path.stat().st_size
        assert size > 2 * 2**16
        monkeypatch.setattr(io, "_TEXT_BLOCK_BYTES", block_bytes)
        # with the row parser gone only the pass can read the file
        monkeypatch.setattr(io, "_parse_rows", None)
        read_loss_records(path)  # the first read also allocates what stays cached
        tracemalloc.start()
        try:
            records = read_loss_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == np.count_nonzero(losses)
        assert peak < 3 * size

    def test_declined_file_peaks_as_the_row_parser_alone(self, tmp_path, monkeypatch):
        # the pass's block of up to 1 MiB is never read for a file its first
        # record declines, so its peak is about that of the row parser alone
        stamps = (np.datetime64("2026-01-01T00:00:00") + np.arange(5000)).astype(str)
        path = tmp_path / "db.csv"
        path.write_text(self.HEAD + "".join(f"{t},1,0.5\n" for t in stamps))

        def peak():
            tracemalloc.start()
            try:
                assert len(read_loss_records(path)) == 5000
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # the first read also allocates what stays cached
        with_pass = peak()
        monkeypatch.setattr(io, "_read_columns", lambda handle: None)
        assert with_pass < 1.1 * peak()


class TestNonUtf8Files:
    # the byte 0xe9, which Latin-1 and cp1252 write for "é"
    @pytest.mark.parametrize(
        "text,line_no",
        [
            pytest.param(b"t,process,amount\n1,1,0.5\n2,2,0.3\xe9\n", 3, id="numeric"),
            pytest.param(b"t,process,amount\r\n2026-01-01T00:00:00,1,0.5\r\n\xe9\r\n", 3, id="iso"),
            pytest.param(b"t,process,amount\n1,1,\"0.5\r\n\"\r\r\n2,2,0.3\n3,1,\xe90.3\n", 6,
                         id="after-cr-lf-and-a-quoted-line-end"),
            pytest.param(b"t,process,amount\n" + b"1,1,0.5\n" * 3000 + b"2,2,0.3\xe9\n", 3002,
                         id="past-the-first-read"),
            pytest.param(b"t,process,am\xe9ount\n1,1,0.5\n", 1, id="header"),
        ],
    )
    def test_database_names_the_line_of_the_byte(self, tmp_path, read_path, text, line_no):
        path = tmp_path / "db.csv"
        path.write_bytes(text)
        with pytest.raises(errors.MalformedRecord, match="byte 0xe9 is not UTF-8") as exc:
            read_loss_records(path)
        assert exc.value.line_no == line_no

    def test_fault_in_rows_read_before_the_byte_comes_first(self, tmp_path, read_path):
        # the byte lies past the text layer's first read of the file
        path = tmp_path / "db.csv"
        head = b"t,process,amount\n1,1,0.5\n2,one,0.5\n"
        path.write_bytes(head + b"1,1,0.5\n" * 2000 + b"\xe9\n")
        with pytest.raises(errors.MalformedRecord, match="process id") as exc:
            read_loss_records(path)
        assert exc.value.line_no == 3

    # each line is checked as it is read, so a fault in a line before the
    # byte comes first, however near the byte it lies
    @pytest.mark.parametrize(
        "text,line_no,reason_part",
        [
            pytest.param(b"t,process,amount\n2,one,0.5\n1,1,\xe9\n", 2, "process id",
                         id="row-before"),
            pytest.param(b"t,proces,amount\n1,1,\xe9\n", 1, "expected header", id="header"),
        ],
    )
    def test_fault_on_a_line_near_the_byte_comes_first(
        self, tmp_path, read_path, text, line_no, reason_part
    ):
        path = tmp_path / "db.csv"
        path.write_bytes(text)
        with pytest.raises(errors.MalformedRecord, match=reason_part) as exc:
            read_loss_records(path)
        assert exc.value.line_no == line_no

    def test_samples_fault_before_the_byte_comes_first(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_bytes(b"1.0\nx\n# caf\xe9\n")
        with pytest.raises(errors.MalformedRecord, match="sample 'x'") as exc:
            read_samples(path)
        assert exc.value.line_no == 2

    def test_samples_name_the_line_of_the_byte(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_bytes(b"# terminal z\r\n1.0\r2.0\n" + b"3.0\n" * 3000 + b"# caf\xe9\n")
        with pytest.raises(errors.MalformedRecord, match="byte 0xe9 is not UTF-8") as exc:
            read_samples(path)
        assert exc.value.line_no == 3004

    def test_config_is_a_config_error(self, tmp_path):
        path = Path(write_config(tmp_path))
        path.write_bytes(path.read_bytes().replace(b"{", b'{"note": "caf\xe9", ', 1))
        with pytest.raises(errors.ConfigError, match="byte 0xe9 is not UTF-8"):
            load_config(path)


class TestLossRecords:
    def test_iterates_as_raw_records(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,2,0.5\n\n4.5,1,1e-05\n2,3,7\n")
        with open(path, newline="", encoding="utf-8") as handle:
            expected = naive_read(handle)
        records = read_loss_records(path)
        assert len(records) == len(expected) == 3
        assert list(records) == expected
        assert [type(r) for r in records] == [RawLossRecord] * 3
        assert [tuple(map(type, r)) for r in records] == [(float, int, float)] * 3

    def test_amounts_sum_to_the_written_column_totals(self, tmp_path):
        rng = np.random.default_rng(8200)
        losses = np.where(rng.random((300, 3)) < 0.3, rng.exponential(size=(300, 3)), 0.0)
        path = tmp_path / "db.csv"
        write_loss_database(path, losses)
        records = read_loss_records(path)
        totals = np.zeros(3)
        for record in records:
            totals[record.process_id - 1] += record.amount
        assert len(records) == np.count_nonzero(losses)
        assert np.array_equal(totals, losses.sum(axis=0))

    def test_columns_are_read_only(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,2,0.5\n")
        records = read_loss_records(path)
        assert records.timestamps.dtype == np.float64
        assert records.process_ids.dtype == np.int64
        assert records.amounts.dtype == np.float64
        with pytest.raises(ValueError):
            records.amounts[0] = 1.0


class TestIngest:
    def test_records_sharing_a_bin_are_one_event(self):
        events = ingest(LossRecords.of([0, 0.5], [1, 1], [3.0, 2.0]), 1.0, 1)
        assert plain(events) == ([("<i8", [0])], 1)

    def test_same_bin_amounts_are_summed(self):
        # the sum of a bin is what overflows, not any one amount
        apart = ingest(LossRecords.of([0, 1], [1, 1], [1e308, 1e308]), 1.0, 1)
        assert plain(apart) == ([("<i8", [0, 1])], 2)
        with pytest.raises(errors.NonPositiveAmount, match=r"inf .*step 1, process 1"):
            ingest(LossRecords.of([0, 0.5], [1, 1], [1e308, 1e308]), 1.0, 1)

    def test_gaps_hold_no_events(self):
        records = LossRecords.of([0, 3], [1, 2], [1.0, 2.0])
        want = naive_ingest(records, 1.0, 2)
        assert np.count_nonzero(want[1:3]) == 0
        assert plain(ingest(records, 1.0, 2)) == plain(LossEvents.of(want))
        assert plain(ingest(records, 1.0, 2)) == ([("<i8", [0]), ("<i8", [3])], 4)

    def test_positive_bins_per_process_in_step_order(self):
        records = LossRecords.of([4, 0, 4, 2, 1], [2, 1, 2, 1, 2], [1.0, 3.0, 2.0, 1.0, 1.0])
        events = ingest(records, 1.0, 3)
        assert plain(events) == ([("<i8", [0, 2]), ("<i8", [1, 4]), ("<i8", [])], 5)
        assert plain(events.head(2)) == ([("<i8", [0]), ("<i8", [1]), ("<i8", [])], 2)

    def test_resolution_widens_bins(self):
        events = ingest(LossRecords.of([0, 1, 2], [1, 1, 1], [1.0, 1.0, 4.0]), 2.0, 1)
        assert plain(events) == ([("<i8", [0, 1])], 2)

    def test_origin_is_earliest_timestamp_by_default(self):
        events = ingest(LossRecords.of([100, 102], [1, 1], [1.0, 2.0]), 1.0, 1)
        assert plain(events) == ([("<i8", [0, 2])], 3)

    def test_iso_timestamps(self):
        stamps = [_ts("2026-01-01T00:00:00"), _ts("2026-01-01T00:00:05")]
        events = ingest(LossRecords.of(stamps, [1, 1], [1.0, 2.0]), 1.0, 1)
        assert plain(events) == ([("<i8", [0, 5])], 6)

    def test_rejections(self):
        with pytest.raises(errors.EmptyDatabase):
            ingest(LossRecords.of([], [], []), 1.0, 1)
        with pytest.raises(errors.UnknownProcess):
            ingest(LossRecords.of([0], [0], [1.0]), 1.0, 1)
        with pytest.raises(errors.UnknownProcess):
            ingest(LossRecords.of([0], [3], [1.0]), 1.0, 2)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(errors.NonPositiveAmount):
                ingest(LossRecords.of([0], [1], [bad]), 1.0, 1)
        with pytest.raises(ValueError):
            ingest(LossRecords.of([0], [1], [1.0]), 0.0, 1)

    def test_overflowing_bin_sum_names_step_and_process(self):
        records = LossRecords.of([0, 1, 1, 1], [1, 2, 1, 2], [1.0, 1e308, 1e308, 1e308])
        got, want = events_outcomes(records, 1.0, 2)
        assert same(got, want)
        assert got[0] is errors.NonPositiveAmount
        assert re.fullmatch(r"loss amount inf .*step 2, process 2\)", got[1])

    def test_overflowing_step_span_names_both_timestamps(self):
        records = LossRecords.of([-1e308, 1e308], [1, 2], [0.5, 0.3])
        got, want = events_outcomes(records, 1.0, 2)
        assert same(got, want)
        assert got[0] is errors.TimestampSpanOverflow and "-1e+308 and 1e+308" in got[1]
        with pytest.raises(errors.TimestampSpanOverflow):
            ingest(LossRecords.of([0.0, 1.0], [1, 1], [0.5, 0.3]), 1e-320, 1)

    def test_step_numbers_beyond_int64_are_a_span_overflow(self):
        message = re.escape("0.0 and 1e+300 span 1e+300 steps at 1.0, too many to number in int64")
        with pytest.raises(errors.TimestampSpanOverflow, match=message):
            ingest(LossRecords.of([0.0, 1e300], [1, 2], [0.5, 0.3]), 1.0, 2)
        # the last bin of 2**53 steps of 1024 processes, step 2**53 - 1 of
        # process 1024, is bin number 2**63 - 1; a 1025th process overflows
        records = LossRecords.of([0.0, 2.0**53 - 1], [1, 1024], [0.5, 0.3])
        events = ingest(records, 1.0, 1024)
        assert events.n_steps == 2**53
        assert events.steps[1023].tolist() == [2**53 - 1]
        with pytest.raises(errors.TimestampSpanOverflow, match="int64"):
            ingest(records, 1.0, 1025)

    def test_span_too_large_for_a_matrix_is_no_error(self):
        records = LossRecords.of([0.0, 1e17], [1, 2], [0.5, 0.3])
        assert plain(ingest(records, 1.0, 2)) == ([("<i8", [0]), ("<i8", [10**17])], 10**17 + 1)


def _ts(text):
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc).timestamp()


class TestDatabaseFiles:
    def test_round_trip_is_lossless(self, tmp_path, small_parameters):
        p = small_parameters
        traj = simulate(p, None, 64, NoiseSpec(rates=p.lam, seed=9))
        path = tmp_path / "db.csv"
        write_loss_database(path, traj.losses)
        back = written_losses(read_loss_records(path), 64, p.n)
        assert np.array_equal(back, traj.losses.losses)

    def test_round_trip_preserves_silent_edges(self, tmp_path):
        losses = np.zeros((5, 2))
        losses[2, 1] = 1.25
        path = tmp_path / "db.csv"
        write_loss_database(path, LossMatrix(losses))
        back = written_losses(read_loss_records(path), 5, 2)
        assert np.array_equal(back, losses)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_an_amount_its_reader_would_reject_is_not_written(self, tmp_path, bad):
        losses = np.zeros((4, 3))
        losses[0, 0] = 1.0
        losses[2, 1] = bad
        path = tmp_path / "db.csv"
        with pytest.raises(ValueError, match=r"at \(t, process\) = \(2, 1\)"):
            write_loss_database(path, losses)
        assert not path.exists()

    def test_database_file_shape(self, tmp_path):
        losses = np.array([[0.0, 2.5], [1.5, 0.0]])
        path = tmp_path / "db.csv"
        write_loss_database(path, losses)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["t", "process", "amount"]
        assert rows[1] == ["1", "2", "2.5"]
        assert rows[2] == ["2", "1", "1.5"]

    # Central European time as a POSIX rule, so no zoneinfo files are needed;
    # its clocks move forward on 2021-03-28, between the two rows
    @pytest.mark.parametrize("tz", ["UTC0", "CET-1CEST,M3.5.0,M10.5.0/3"])
    def test_naive_timestamps_are_utc_in_every_time_zone(self, tmp_path, monkeypatch, tz):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n2021-03-27T12:00,1,1.0\n2021-03-28T12:00,1,2.0\n")
        monkeypatch.setenv("TZ", tz)
        time.tzset()
        try:
            records = read_loss_records(path)
        finally:
            monkeypatch.undo()
            time.tzset()
        assert list(records)[0].timestamp == _ts("2021-03-27T12:00")
        assert ingest(records, 3600.0, 1).n_steps == 25

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("time,proc,amt\n1,1,1.0\n")
        with pytest.raises(errors.MalformedRecord) as exc:
            read_loss_records(path)
        assert exc.value.line_no == 1

    @pytest.mark.parametrize(
        "line,reason_part",
        [
            ("2,1", "3 fields"),
            ("x,1,1.0", "timestamp"),
            ("nan,2,0.3", "timestamp 'nan' is not finite"),
            ("inf,2,0.3", "timestamp 'inf' is not finite"),
            ("2,one,1.0", "process id"),
            ("2,1,lots", "amount"),
        ],
    )
    def test_malformed_lines_carry_line_numbers(self, tmp_path, line, reason_part):
        path = tmp_path / "db.csv"
        path.write_text(f"t,process,amount\n1,1,1.0\n{line}\n")
        with pytest.raises(errors.MalformedRecord) as exc:
            read_loss_records(path)
        assert exc.value.line_no == 3
        assert reason_part in str(exc.value)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "t,process,amount\r\n1,2,0.5\r\n3,1,1.5\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert list(read_loss_records(marked)) == list(read_loss_records(plain))
        assert len(read_loss_records(marked)) == 2

    def test_iso_and_blank_lines_parse(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text(
            "t,process,amount\n2026-01-01T00:00:00,1,1.0\n\n2026-01-01T00:00:02Z,1,2.0\n"
            "2026-01-01T02:00:03+02:00,1,3.0\n"
        )
        records = list(read_loss_records(path))
        assert len(records) == 3
        assert records[0].amount == 1.0
        # a naive timestamp is UTC, and an explicit offset is kept
        assert [r.timestamp - records[0].timestamp for r in records] == [0.0, 2.0, 3.0]

    def test_row_parser_holds_float64_columns_not_python_floats(self, tmp_path):
        # ISO timestamps send the file to the row parser. It gathers timestamps
        # and amounts as float64 in array("d"), which become the records'
        # columns without a copy: about 33 bytes per row at the peak, where
        # lists of Python floats hold about 96
        n_rows = 100_000
        stamps = (np.datetime64("2026-01-01T00:00:00") + np.arange(n_rows)).astype(str)
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n" + "".join(
            f"{t},{k % 5 + 1},{k % 97 + 0.25}\n" for k, t in enumerate(stamps)
        ))
        tracemalloc.start()
        try:
            records = read_loss_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == n_rows
        assert list(records)[-1] == (_ts(str(stamps[-1])), 5, (n_rows - 1) % 97 + 0.25)
        assert peak / n_rows < 64


class TestWriteJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_number_json_cannot_spell_writes_no_file(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            write_json(path, {"x": [1.0, value]})
        assert not path.exists()

    def test_a_refused_document_leaves_the_old_file_as_it_was(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"x": [1.0, 2.0]})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_json(path, {"x": [1.0, math.inf]})
        assert path.read_bytes() == before


class TestSeriesAndHistograms:
    def test_series_grid_round_trip(self, tmp_path):
        values = np.arange(12.0).reshape(4, 3) / 7.0
        path = tmp_path / "series.csv"
        write_series(path, values)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["t", "process", "value"]
        assert len(rows) == 1 + 12
        back = np.zeros((4, 3))
        for t, i, v in rows[1:]:
            back[int(t) - 1, int(i) - 1] = float(v)
        assert np.array_equal(back, values)

    def test_histogram_counts_cover_all_samples(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.exponential(size=500)
        path = tmp_path / "hist.csv"
        write_histogram(path, samples, n_bins=20)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert len(rows) == 21
        assert sum(int(r[2]) for r in rows[1:]) == 500
        lefts = [float(r[0]) for r in rows[1:]]
        rights = [float(r[1]) for r in rows[1:]]
        assert all(l < r for l, r in zip(lefts, rights))
        assert lefts[1:] == rights[:-1]

    def test_exact_bytes_of_each_file(self, tmp_path):
        # every cell is its Python repr and every line ends in \r\n
        db = tmp_path / "db.csv"
        write_loss_database(db, np.array([[0.0, 1e-05], [0.1, 0.0], [0.0, 123456.789]]))
        assert db.read_bytes() == (
            b"t,process,amount\r\n1,2,1e-05\r\n2,1,0.1\r\n3,2,123456.789\r\n"
        )
        series = tmp_path / "series.csv"
        write_series(series, np.array([[1e-05, 0.1], [123456.789, 0.0]]))
        assert series.read_bytes() == (
            b"t,process,value\r\n1,1,1e-05\r\n1,2,0.1\r\n2,1,123456.789\r\n2,2,0.0\r\n"
        )
        hist = tmp_path / "hist.csv"
        write_histogram(hist, [0.0, 0.25, 1.0], n_bins=4)
        assert hist.read_bytes() == (
            b"bin_left,bin_right,count\r\n0.0,0.25,1\r\n0.25,0.5,1\r\n"
            b"0.5,0.75,0\r\n0.75,1.0,1\r\n"
        )
        empty = tmp_path / "empty.csv"
        write_loss_database(empty, np.zeros((3, 2)))
        assert empty.read_bytes() == b"t,process,amount\r\n"

    def test_exact_bytes_of_repeated_values_and_signed_zeros(self, tmp_path):
        # each distinct value is formatted once per block: repeats must come
        # back in place, and -0.0 must not collapse into 0.0
        series = tmp_path / "series.csv"
        write_series(series, np.array([[0.5, -0.0, 0.0], [0.0, 0.5, -0.0], [2.5, 2.5, 0.5]]))
        assert series.read_bytes() == (
            b"t,process,value\r\n"
            b"1,1,0.5\r\n1,2,-0.0\r\n1,3,0.0\r\n"
            b"2,1,0.0\r\n2,2,0.5\r\n2,3,-0.0\r\n"
            b"3,1,2.5\r\n3,2,2.5\r\n3,3,0.5\r\n"
        )

    def test_histogram_rejects_empty(self, tmp_path):
        with pytest.raises(errors.EmptySample):
            write_histogram(tmp_path / "h.csv", [])

    def test_histogram_rejects_no_bins(self, tmp_path):
        with pytest.raises(ValueError, match="n_bins must be >= 1, got 0"):
            write_histogram(tmp_path / "h.csv", [1.0, 2.0], n_bins=0)
        assert not (tmp_path / "h.csv").exists()

    def test_read_samples(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("# terminal z\n1.5\n\n2.5\n-3.0\n")
        assert np.array_equal(read_samples(path), [1.5, 2.5, -3.0])
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\noops\n")
        with pytest.raises(errors.MalformedRecord) as exc:
            read_samples(bad)
        assert exc.value.line_no == 2
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        with pytest.raises(errors.EmptySample):
            read_samples(empty)

    def test_write_samples_round_trips_bit_for_bit(self, tmp_path):
        values = np.array([5e-324, 1e-310, 1e300, 0.1, -0.0, 0.0, 2.5, -7.125])
        path = tmp_path / "samples.txt"
        write_samples(path, values)
        assert read_samples(path).tobytes() == values.tobytes()
        # the bytes of the loop that wrote a forecast's terminal samples before
        loop = tmp_path / "loop.txt"
        with open(loop, "w", encoding="utf-8") as handle:
            for value in values:
                handle.write(f"{float(value)!r}\n")
        assert path.read_bytes() == loop.read_bytes()

    def test_read_samples_ignores_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_bytes(b"\xef\xbb\xbf0.5\n1.5\n")
        assert np.array_equal(read_samples(path), [0.5, 1.5])

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_read_samples_rejects_non_finite_values(self, tmp_path, text):
        path = tmp_path / "samples.txt"
        path.write_text(f"# terminal z\n1.0\n{text}\n2.0\n")
        with pytest.raises(errors.MalformedRecord, match="not finite") as exc:
            read_samples(path)
        assert exc.value.line_no == 3


def oracle_csv(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for ``header`` and the ``repr`` of
    each cell of ``rows``: the reference the CSV writers are checked against."""
    buffer = StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([repr(cell) for cell in row] for row in rows)
    return buffer.getvalue().encode()


# values whose text is easy to get wrong: signed zeros, subnormals, extremes,
# NaNs of both signs, integer-valued floats; drawn with repeats
_AWKWARD = np.array([
    -0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e-300, -1e300, 1e300, math.nan, -math.nan,
    1.0, -2.0, 1e16, 1e22, 0.1, 123456.789,
])


def awkward_values(rng, shape, nan=True):
    """Values drawn half from _AWKWARD, with repeats, and half from a wide
    random spread of magnitudes."""
    pool = _AWKWARD if nan else _AWKWARD[~np.isnan(_AWKWARD)]
    spread = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), spread)


def block_sizes(rows: int, n: int):
    """Numbers of items at 1 and around the block boundary that ``rows`` rows
    of ``n`` processes make."""
    size = max(1, rows // n)
    return sorted({1, max(1, size - 1), size, size + 1})


class TestWritersMatchCsvOracle:
    """The CSV writers write, byte for byte, what ``csv.writer`` writes for
    the ``repr`` of each cell, with blocks cut anywhere."""

    @pytest.fixture(params=[None, 1, 7], ids=["default-block", "block-1", "block-7"])
    def block_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", request.param)
        return io._CSV_BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, 64])
    def test_series_and_database(self, tmp_path, block_rows, n):
        rng = np.random.default_rng(8400 + n + block_rows)
        for n_steps in block_sizes(block_rows, n):
            values = awkward_values(rng, (n_steps, n))
            cells = values.tolist()
            series = tmp_path / "series.csv"
            write_series(series, values)
            assert series.read_bytes() == oracle_csv(
                ["t", "process", "value"],
                [(t + 1, i + 1, cells[t][i]) for t in range(n_steps) for i in range(n)],
            )
            # a loss database holds only finite, nonnegative amounts
            losses = np.abs(np.where(np.isnan(values), 0.0, values))
            amounts = losses.tolist()
            db = tmp_path / "db.csv"
            write_loss_database(db, losses)
            assert db.read_bytes() == oracle_csv(
                ["t", "process", "amount"],
                [(t + 1, i + 1, amounts[t][i]) for t in range(n_steps) for i in range(n)
                 if amounts[t][i] != 0.0],
            )

    def test_database_records_around_a_block(self, tmp_path, block_rows):
        rng = np.random.default_rng(8500 + block_rows)
        for n_records in block_sizes(block_rows, 1):
            values = np.abs(awkward_values(rng, (n_records, 1), nan=False))
            values[values == 0.0] = 0.5
            db = tmp_path / "db.csv"
            write_loss_database(db, values)
            assert db.read_bytes() == oracle_csv(
                ["t", "process", "amount"],
                [(t + 1, 1, v) for t, v in enumerate(values[:, 0].tolist())],
            )

    def test_histogram(self, tmp_path, block_rows):
        rng = np.random.default_rng(8600 + block_rows)
        samples = awkward_values(rng, 500, nan=False)
        for n_bins in block_sizes(block_rows, 1):
            hist = tmp_path / "hist.csv"
            write_histogram(hist, samples, n_bins)
            counts, edges = np.histogram(samples, bins=n_bins)
            assert hist.read_bytes() == oracle_csv(
                ["bin_left", "bin_right", "count"],
                zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()),
            )

    def test_table_of_mixed_columns(self, tmp_path, block_rows):
        # the VaR table's kinds of column: integers, floats, and Python lists
        rng = np.random.default_rng(8450 + block_rows)
        for n_rows in sorted({0, *block_sizes(block_rows, 1)}):
            ids = rng.integers(0, 2**40, n_rows)
            a, b = awkward_values(rng, n_rows), awkward_values(rng, n_rows)
            table = tmp_path / "table.csv"
            write_table(table, ["id", "a", "b"], ids, a.tolist(), b)
            assert table.read_bytes() == oracle_csv(
                ["id", "a", "b"], zip(ids.tolist(), a.tolist(), b.tolist())
            )

    @pytest.mark.parametrize("header,columns", [
        (["a", "b"], [np.arange(3), np.zeros(2)]),
        (["a", "b"], [np.arange(3), np.zeros(3, dtype=np.float32)]),
        (["a", "b"], [np.arange(3) - 1, np.zeros(3)]),
        (["a", "b"], [np.zeros((3, 1)), np.zeros((3, 1))]),
        (["a", "b"], [np.zeros(3)]),
        ([], []),
        # an int64 cast would wrap 2**63 round to -2**63
        (["a"], [np.array([2**63, 5], dtype=np.uint64)]),
    ], ids=["lengths", "float32", "negative", "2-d", "header", "none", "over-int64"])
    def test_table_rejects_what_it_cannot_spell(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_table(tmp_path / "table.csv", header, *columns)
        assert not (tmp_path / "table.csv").exists()

    def test_table_spells_unsigned_integers_up_to_int64_max(self, tmp_path):
        table = tmp_path / "table.csv"
        write_table(table, ["a"], np.array([2**63 - 1, 5], dtype=np.uint64))
        assert table.read_bytes() == oracle_csv(["a"], [(2**63 - 1,), (5,)])

    def test_empty_tables(self, tmp_path, block_rows):
        db = tmp_path / "db.csv"
        write_loss_database(db, np.array([[0.0, -0.0]] * 3))
        assert db.read_bytes() == oracle_csv(["t", "process", "amount"], [])
        series = tmp_path / "series.csv"
        write_series(series, np.zeros((0, 3)))
        assert series.read_bytes() == oracle_csv(["t", "process", "value"], [])

    @pytest.mark.parametrize("size", [1, 7])
    def test_blocks_follow_the_block_size_at_call_time(self, tmp_path, monkeypatch, size):
        # every write after the header is one block; a block size bound at
        # import would write each table in one block of the default size
        monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", size)
        writes = []

        class Counting:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

            def write(self, text):
                writes.append(text)
                return self.handle.write(text)

        monkeypatch.setattr(io, "open", lambda *a, **k: Counting(open(*a, **k)), raising=False)

        def blocks_written(write, *args):
            writes.clear()
            write(tmp_path / "table.csv", *args)
            return len(writes) - 1

        rng = np.random.default_rng(8800 + size)
        losses = np.where(rng.random((25, 3)) < 0.6, 0.5, 0.0)
        rows = np.count_nonzero(losses)
        assert blocks_written(write_loss_database, losses) == -(-rows // size)
        assert blocks_written(write_histogram, rng.random(100), 20) == -(-20 // size)
        assert blocks_written(write_series, losses) == -(-25 // max(1, size // 3))

    @pytest.mark.parametrize("end,prefix", [(",", ""), ("\r\n", ""), ("\r\n", "7,")])
    def test_integers_at_every_digit_count(self, end, prefix):
        # each digit count is spelt as a group of its own: shuffled, the
        # groups interleave, and each text must land back on its own row
        values = [0, 2**63 - 1] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
        for order in (values, np.random.default_rng(8700).permutation(values).tolist()):
            got = io._cell_texts(np.array(order, dtype=np.int64), end, prefix=prefix)
            assert got.tolist() == [f"{prefix}{v!r}{end}" for v in order]

    def test_histogram_with_zero_counts(self, tmp_path, block_rows):
        # counts of 0, 3 and 12 000 in one column
        samples = np.concatenate([np.zeros(12_000), np.ones(3)])
        for n_bins in sorted({3, *block_sizes(block_rows, 1)}):
            hist = tmp_path / "hist.csv"
            write_histogram(hist, samples, n_bins)
            counts, edges = np.histogram(samples, bins=n_bins)
            assert hist.read_bytes() == oracle_csv(
                ["bin_left", "bin_right", "count"],
                zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()),
            )

    def test_database_steps_across_digit_counts(self, tmp_path, block_rows):
        # steps 9 999 -> 10 000 and 99 999 -> 100 000, in and out of one block
        losses = np.zeros((100_001, 2))
        for t in (1, 9, 10, 99, 100, 999, 1000, 9998, 9999, 10_000, 99_999, 100_000, 100_001):
            losses[t - 1, t % 2] = 0.5
            losses[t - 1, 1 - t % 2] = 0.25 if t % 3 else 0.0
        db = tmp_path / "db.csv"
        write_loss_database(db, losses)
        amounts = losses.tolist()
        assert db.read_bytes() == oracle_csv(
            ["t", "process", "amount"],
            [(t + 1, i + 1, amounts[t][i]) for t, i in zip(*(a.tolist() for a in np.nonzero(losses)))],
        )

    def test_equal_values_apart(self, tmp_path, block_rows):
        # equal values that are not neighbours, each pattern in a column of
        # its own: no run may be merged with a value of other bits
        nan_a, nan_b = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(np.float64).tolist()
        patterns = [[0.1, 2.5], [-0.0, 0.0], [nan_a, nan_b], [1e300, 5e-324]]
        for n_steps in block_sizes(block_rows, len(patterns)):
            values = np.array([[p[t % 2] for p in patterns] for t in range(n_steps)])
            # both payloads survive into the array
            assert len(set(values[:2, 2].view(np.int64).tolist())) == min(n_steps, 2)
            cells = values.tolist()
            series = tmp_path / "series.csv"
            write_series(series, values)
            assert series.read_bytes() == oracle_csv(
                ["t", "process", "value"],
                [(t + 1, i + 1, cells[t][i]) for t in range(n_steps) for i in range(len(patterns))],
            )
            # the positive, finite patterns as loss amounts, one column each
            losses = values[:, [0, 3]]
            amounts = losses.tolist()
            db = tmp_path / "db.csv"
            write_loss_database(db, losses)
            assert db.read_bytes() == oracle_csv(
                ["t", "process", "amount"],
                [(t + 1, i + 1, amounts[t][i]) for t in range(n_steps) for i in range(2)],
            )


def write_config(tmp_path, mutate=None):
    doc = json.loads(Path(reference_config_path()).read_text())
    if mutate:
        mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_reference_config_matches_builtin_scenario(self):
        config = load_config(reference_config_path())
        expected = build_reference_parameters()
        assert config.parameters.n == 5
        assert np.array_equal(config.parameters.theta, expected.theta)
        np.testing.assert_allclose(config.parameters.lam, expected.lam, rtol=1e-15)
        assert np.array_equal(config.parameters.couplings, expected.couplings)
        assert np.array_equal(config.parameters.horizons, expected.horizons)
        assert config.n_steps == 200000
        assert config.master_seed == 1
        assert config.m_trajectories == 1000
        assert config.fraction == 1.0
        assert config.collapse == "sample-per-run"
        assert config.confidences == (0.999,)

    def test_noise_specs_lambda_and_quantile(self, tmp_path):
        def mutate(doc):
            doc["model"]["theta"] = [-1.0, -2.0]
            doc["model"]["noise"] = [
                {"lambda": 4.0},
                {"quantile": {"value": 2.0, "alpha": 0.5}},
            ]
            doc["model"]["couplings"] = []
            doc["model"]["horizons"] = 0

        config = load_config(write_config(tmp_path, mutate))
        assert config.parameters.lam[0] == 4.0
        assert config.parameters.lam[1] == pytest.approx(np.log(2.0) / 2.0, rel=1e-12)

    def test_horizons_matrix_form(self, tmp_path):
        def mutate(doc):
            doc["model"]["theta"] = [-1.0, -1.0]
            doc["model"]["noise"] = [{"p": 0.1}, {"p": 0.1}]
            doc["model"]["couplings"] = [[1, 2, 0.3]]
            doc["model"]["horizons"] = [[0, 4], [0, 0]]

        config = load_config(write_config(tmp_path, mutate))
        assert config.parameters.horizons[0, 1] == 4

    @pytest.mark.parametrize(
        "block,value",
        [("model", 5), ("simulation", 5), ("estimation", 5), ("output", [1])],
    )
    def test_blocks_must_be_objects(self, tmp_path, block, value):
        path = write_config(tmp_path, lambda d: d.update({block: value}))
        with pytest.raises(errors.ConfigError) as exc:
            load_config(path)
        assert exc.value.key == block

    @pytest.mark.parametrize(
        "key_part,mutate",
        [
            ("model.theta", lambda d: d["model"].pop("theta")),
            ("model.theta", lambda d: d["model"].update(theta=[])),
            ("model.noise", lambda d: d["model"].update(noise=[{"p": 0.5}])),
            ("model.noise[2]", lambda d: d["model"]["noise"].__setitem__(1, {})),
            ("model.noise[2]': must be an object",
             lambda d: d["model"]["noise"].__setitem__(1, 0.1)),
            (
                "model.noise[2].quantile",
                lambda d: d["model"]["noise"].__setitem__(1, {"quantile": {"value": 2.0}}),
            ),
            (
                "model.noise[2].quantile",
                lambda d: d["model"]["noise"].__setitem__(
                    1, {"quantile": {"value": 2.0, "alpha": 0.5, "beta": 1.0}}
                ),
            ),
            (
                "model.noise[2].quantile",
                lambda d: d["model"]["noise"].__setitem__(1, {"quantile": 2.0}),
            ),
            (
                "model.noise[1]",
                lambda d: d["model"]["noise"].__setitem__(0, {"p": 0.1, "lambda": 1.0}),
            ),
            ("model.noise[1]", lambda d: d["model"]["noise"].__setitem__(0, {"p": 1.5})),
            (
                "model.couplings[2]",
                lambda d: d["model"]["couplings"].__setitem__(1, [0, 9, 0.1]),
            ),
            ("model.couplings[1]", lambda d: d["model"]["couplings"].__setitem__(0, [1, 2])),
            ("model.horizons", lambda d: d["model"].update(horizons=[[1]])),
            ("simulation.n_steps", lambda d: d["simulation"].pop("n_steps")),
            ("simulation.n_steps", lambda d: d["simulation"].update(n_steps=0)),
            ("simulation.seed", lambda d: d["simulation"].update(seed=-1)),
            pytest.param(
                "simulation.seed",
                lambda d: d["simulation"].update(seed=2**64),
                id="simulation.seed-2**64",
            ),
            ("simulation.m_trajectories", lambda d: d["simulation"].update(m_trajectories=1)),
            ("estimation.fraction", lambda d: d["estimation"].update(fraction=0.0)),
            ("estimation.collapse", lambda d: d["estimation"].update(collapse="median")),
            ("output.confidences", lambda d: d["output"].update(confidences=[2.0])),
            ("output.resolution", lambda d: d["output"].update(resolution=0)),
            ("output.histogram_bins", lambda d: d["output"].update(histogram_bins=0)),
            # JSON booleans are not numbers, though Python's bool is an int
            pytest.param(
                "model.theta",
                lambda d: d["model"]["theta"].__setitem__(0, True),
                id="model.theta-bool",
            ),
            pytest.param(
                "model.noise[1]",
                lambda d: d["model"]["noise"].__setitem__(0, {"lambda": True}),
                id="model.noise[1]-bool",
            ),
            pytest.param(
                "model.noise[2]",
                lambda d: d["model"]["noise"].__setitem__(
                    1, {"quantile": {"value": True, "alpha": 0.5}}
                ),
                id="model.noise[2]-quantile-bool",
            ),
            pytest.param(
                "model.couplings[1]",
                lambda d: d["model"]["couplings"].__setitem__(0, [True, 2, 0.1]),
                id="model.couplings[1]-index-bool",
            ),
            pytest.param(
                "model.couplings[1]",
                lambda d: d["model"]["couplings"].__setitem__(0, [1, 2, True]),
                id="model.couplings[1]-value-bool",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=True),
                id="model.horizons-bool",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=[[True] * 5] * 5),
                id="model.horizons-matrix-bool",
            ),
            pytest.param(
                "horizons[1][2]",
                lambda d: d["model"].update(horizons=2.5),
                id="model.horizons-fraction",
            ),
            pytest.param(
                "simulation.n_steps",
                lambda d: d["simulation"].update(n_steps=True),
                id="simulation.n_steps-bool",
            ),
            pytest.param(
                "simulation.seed",
                lambda d: d["simulation"].update(seed=True),
                id="simulation.seed-bool",
            ),
            pytest.param(
                "estimation.fraction",
                lambda d: d["estimation"].update(fraction=True),
                id="estimation.fraction-bool",
            ),
            pytest.param(
                "output.resolution",
                lambda d: d["output"].update(resolution=True),
                id="output.resolution-bool",
            ),
            pytest.param(
                "output.histogram_bins",
                lambda d: d["output"].update(histogram_bins=True),
                id="output.histogram_bins-bool",
            ),
            # a number must fit what its field becomes: a finite float, or
            # an int64 for a horizon
            pytest.param(
                "model.noise[1]",
                lambda d: d["model"]["noise"].__setitem__(0, {"lambda": 10**400}),
                id="model.noise[1]-lambda-401-digits",
            ),
            pytest.param(
                "model.noise[1]",
                lambda d: d["model"]["noise"].__setitem__(0, {"p": 10**400}),
                id="model.noise[1]-p-401-digits",
            ),
            pytest.param(
                "model.noise[2]",
                lambda d: d["model"]["noise"].__setitem__(
                    1, {"quantile": {"value": 10**400, "alpha": 0.5}}
                ),
                id="model.noise[2]-quantile-401-digits",
            ),
            pytest.param(
                "model.theta",
                lambda d: d["model"]["theta"].__setitem__(0, -(10**400)),
                id="model.theta-401-digits",
            ),
            pytest.param(
                "model.couplings[1]",
                lambda d: d["model"]["couplings"].__setitem__(0, [1, 2, 10**400]),
                id="model.couplings[1]-value-401-digits",
            ),
            pytest.param(
                "output.resolution",
                lambda d: d["output"].update(resolution=10**400),
                id="output.resolution-401-digits",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=10**400),
                id="model.horizons-401-digits",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=[[0] * 5] * 4 + [[0, 0, 0, 0, 10**400]]),
                id="model.horizons-matrix-401-digits",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=[[0] * 5] * 4 + [[0, 0, 0, 0, 2**63]]),
                id="model.horizons-matrix-beyond-int64",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=[[1, 2], [3]]),
                id="model.horizons-ragged",
            ),
            pytest.param(
                "model.horizons",
                lambda d: d["model"].update(horizons=[[5] * 5] * 4 + [[5] * 4]),
                id="model.horizons-ragged-last-row",
            ),
        ],
    )
    def test_rejections_name_the_key(self, tmp_path, key_part, mutate):
        path = write_config(tmp_path, mutate)
        with pytest.raises(errors.ConfigError) as exc:
            load_config(path)
        assert key_part in str(exc.value)

    def test_repeated_coupling_pair_names_both_triples(self, tmp_path):
        # a later triple for a pair would silently overwrite the earlier one
        path = write_config(tmp_path, lambda d: d["model"]["couplings"].append([3, 3, 0.2]))
        with pytest.raises(errors.ConfigError) as exc:
            load_config(path)
        assert exc.value.key == "model.couplings[7]"
        assert "repeats the pair (3, 3) of model.couplings[2]" in str(exc.value)

    def test_theta_zero_with_p_spec_is_a_config_error(self, tmp_path):
        def mutate(doc):
            doc["model"]["theta"][0] = 0.0

        with pytest.raises(errors.ConfigError) as exc:
            load_config(write_config(tmp_path, mutate))
        assert "model.noise[1]" in str(exc.value)

    def test_model_level_inconsistency_is_wrapped(self, tmp_path):
        def mutate(doc):
            doc["model"]["horizons"] = 0  # nonzero couplings need a horizon

        with pytest.raises(errors.ConfigError) as exc:
            load_config(write_config(tmp_path, mutate))
        assert "model" in str(exc.value)

    def test_fractional_horizon_message_shows_a_plain_number(self, tmp_path):
        def mutate(doc):
            doc["model"]["horizons"] = [[5.0] * 5 for _ in range(5)]
            doc["model"]["horizons"][0][1] = 1.5

        with pytest.raises(errors.ConfigError) as exc:
            load_config(write_config(tmp_path, mutate))
        assert str(exc.value) == (
            "config key 'model': horizons[1][2] = 1.5 must be an integer >= 0"
        )

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        with pytest.raises(errors.ConfigError) as exc:
            load_config(path)
        assert (exc.value.key, exc.value.reason) == (str(path), "top level must be an object")

    def test_invalid_json_and_missing_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(errors.ConfigError):
            load_config(path)
        with pytest.raises(errors.ConfigError):
            load_config(tmp_path / "absent.json")

    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        # editors on Windows save JSON with a leading UTF-8 BOM
        path = write_config(tmp_path)
        plain = load_config(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_config(path)
        for name in ("theta", "lam", "couplings", "horizons"):
            got, want = getattr(marked.parameters, name), getattr(plain.parameters, name)
            assert got.tobytes() == want.tobytes()
        assert (marked.n_steps, marked.master_seed) == (plain.n_steps, plain.master_seed)

    def test_seed_may_be_omitted(self, tmp_path):
        def mutate(doc):
            doc["simulation"].pop("seed")

        config = load_config(write_config(tmp_path, mutate))
        assert config.master_seed is None
