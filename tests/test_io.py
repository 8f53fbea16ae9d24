"""File formats, ingestion binning, and configuration validation."""

import csv
import json
import math
import re
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

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
    write_loss_database,
    write_series,
)
from oprisk_dynamics.model import LossMatrix, NoiseSpec
from oprisk_dynamics.simulate import simulate

from conftest import build_reference_parameters


def rec(t, p, a):
    return RawLossRecord(t, p, a)


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


def naive_ingest(records, resolution, n, origin=None, n_steps=None):
    """One record at a time, in Python arithmetic: the reference the
    columnar ``ingest`` is checked against."""
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
    t_min = lo if origin is None else origin
    for ts in (lo, hi):
        if not math.isfinite((ts - t_min) / resolution):
            raise errors.TimestampSpanOverflow(
                f"timestamps {t_min!r} and {ts!r} are too far apart to bin at {resolution!r}"
            )
    steps = [math.floor((r.timestamp - t_min) / resolution) for r in records]
    last = max(steps)
    if min(steps) < 0:
        raise ValueError(f"record at {min(steps)} steps before the origin {t_min}")
    if n_steps is None:
        n_steps = last + 1
    elif last >= n_steps:
        raise ValueError(f"record in step {last + 1} beyond the pinned {n_steps} steps")
    try:
        losses = np.zeros((n_steps, n))
    except (ValueError, MemoryError) as exc:
        raise errors.TimestampSpanOverflow(
            f"timestamps {t_min!r} and {hi!r} span "
            f"{n_steps:.4g} steps at {resolution!r}, too many to hold: {exc}"
        ) from exc
    for r, step in zip(records, steps):
        losses[step, r.process_id - 1] += r.amount
    return losses


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


class TestColumnarPathMatchesRowOracle:
    # a second run in blocks of 7 rows puts blank lines, ISO rows and faults
    # in later blocks, so line numbers must carry across block boundaries
    BLOCK_ROWS = (io._CSV_BLOCK_ROWS, 7)

    @pytest.mark.parametrize("case_seed", range(40))
    def test_read_and_ingest_bit_for_bit(self, tmp_path, monkeypatch, case_seed):
        rng = np.random.default_rng(7000 + case_seed)
        path = tmp_path / "db.csv"
        path.write_bytes(random_database_text(rng).encode())
        with open(path, newline="", encoding="utf-8") as handle:
            expected = naive_read(handle)
        resolution = float(rng.choice([1.0, 2.5, 0.5, 3600.0]))
        pins = [{}]
        if case_seed % 4 == 0:
            lo = min(r.timestamp for r in expected)
            pins += [{"origin": lo - 2 * resolution, "n_steps": 40}, {"origin": lo + resolution}]
        for block_rows in self.BLOCK_ROWS:
            monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", block_rows)
            records = read_loss_records(path)
            assert isinstance(records, LossRecords)
            assert repr(list(records)) == repr(expected)
            for pin in pins:
                want = outcome(lambda: naive_ingest(expected, resolution, 3, **pin))
                got = outcome(lambda: ingest(records, resolution, 3, **pin).losses)
                assert same(got, want), (block_rows, pin)

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
    def test_faulty_files_fail_alike(self, tmp_path, monkeypatch, case_seed):
        rng = np.random.default_rng(7500 + case_seed)
        lines = random_database_text(rng).splitlines(keepends=True)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(1, len(lines) + 1))
            lines.insert(at, self.FAULTS[int(rng.integers(len(self.FAULTS)))] + "\n")
        path = tmp_path / "db.csv"
        path.write_text("".join(lines), newline="")
        with open(path, newline="", encoding="utf-8") as handle:
            text_lines = handle.readlines()
        want = outcome(lambda: naive_ingest(naive_read(text_lines), 1.0, 3))
        for block_rows in self.BLOCK_ROWS:
            monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", block_rows)
            got = outcome(lambda: ingest(read_loss_records(path), 1.0, 3).losses)
            assert same(got, want), block_rows

    def test_first_faulty_line_is_reported(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,1,1.0\n2,one,1.0\n3,1,1.0\nx,1,1.0\n")
        with pytest.raises(errors.MalformedRecord, match="process id") as exc:
            read_loss_records(path)
        assert exc.value.line_no == 3

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
        "records",
        [
            pytest.param([rec(0, 2**63, 1.0)], id="process-id-beyond-int64"),
            pytest.param([rec(0, 1, 1.0), rec(1, -(2**70), 1.0)], id="process-id-below-int64"),
            pytest.param(
                [rec(0.0, 1, 1.0), rec(-0.0, 1, 2.0), rec(2.0, 1, 1.0)], id="signed-zeros"
            ),
            pytest.param([rec(0, 1, 0)], id="int-amount"),
            pytest.param([rec(1.5, True, 1.0)], id="bool-process-id"),
            pytest.param([rec(np.float64(1.5), np.int64(1), np.float64(2.0))], id="numpy-scalars"),
            pytest.param([rec(1, 1, -1.0), rec(2, 0, 1.0)], id="first-bad-record-wins"),
        ],
    )
    def test_records_no_column_holds_exactly_bin_or_fail_alike(self, records):
        for pin in ({}, {"origin": 0, "n_steps": 10}, {"origin": -0.0}):
            want = outcome(lambda: naive_ingest(records, 1.0, 2, **pin))
            got = outcome(lambda: ingest(records, 1.0, 2, **pin).losses)
            assert same(got, want), pin

    def test_listed_timestamps_bin_as_float64_like_a_file(self, tmp_path):
        # 2**53 + 1 is no float64: in a list as in a file it joins 2**53's bin
        stamps = [2**53, 2**53 + 1, 2**53 + 4]
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n" + "".join(f"{t},1,1.0\n" for t in stamps))
        listed = ingest([rec(t, 1, 1.0) for t in stamps], 1.0, 1)
        assert np.array_equal(listed.losses, [[2.0], [0.0], [0.0], [0.0], [1.0]])
        assert np.array_equal(listed.losses, ingest(read_loss_records(path), 1.0, 1).losses)
        for records in ([rec(0.0, 1, 1.0), rec(math.nan, 1, 1.0)], [rec(math.nan, 1, 1.0)]):
            for pin in ({}, {"origin": 0.0, "n_steps": 10}):
                with pytest.raises(errors.TimestampSpanOverflow, match="nan"):
                    ingest(records, 1.0, 1, **pin)

    def test_process_id_beyond_int64_is_unknown(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,1,1.0\n2,99999999999999999999999,1.0\n")
        records = read_loss_records(path)
        assert records[1].process_id == 99999999999999999999999
        with pytest.raises(errors.UnknownProcess, match="99999999999999999999999"):
            ingest(records, 1.0, 2)


class TestLossRecords:
    def test_sequence_of_raw_records(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("t,process,amount\n1,2,0.5\n\n4.5,1,1e-05\n2,3,7\n")
        with open(path, newline="", encoding="utf-8") as handle:
            expected = naive_read(handle)
        records = read_loss_records(path)
        assert len(records) == len(expected) == 3
        assert [records[k] for k in range(3)] == expected
        assert records[-1] == expected[-1]
        assert list(records) == expected
        assert [tuple(map(type, r)) for r in records] == [(float, int, float)] * 3
        assert type(records[0]) is RawLossRecord
        with pytest.raises(IndexError):
            records[3]

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
    def test_same_bin_amounts_are_summed(self):
        m = ingest([rec(0, 1, 3.0), rec(0, 1, 2.0)], 1.0, 1)
        assert np.array_equal(m.losses, [[5.0]])

    def test_gaps_fill_with_zeros(self):
        m = ingest([rec(0, 1, 1.0), rec(3, 2, 2.0)], 1.0, 2)
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[3, 1] = 2.0
        assert np.array_equal(m.losses, expected)

    def test_resolution_widens_bins(self):
        m = ingest([rec(0, 1, 1.0), rec(1, 1, 1.0), rec(2, 1, 4.0)], 2.0, 1)
        assert np.array_equal(m.losses, [[2.0], [4.0]])

    def test_origin_is_earliest_timestamp_by_default(self):
        m = ingest([rec(100, 1, 1.0), rec(102, 1, 2.0)], 1.0, 1)
        assert m.n_steps == 3
        assert m.losses[0, 0] == 1.0

    def test_iso_timestamps(self):
        records = [
            rec(_ts("2026-01-01T00:00:00"), 1, 1.0),
            rec(_ts("2026-01-01T00:00:05"), 1, 2.0),
        ]
        m = ingest(records, 1.0, 1)
        assert m.n_steps == 6
        assert m.losses[5, 0] == 2.0

    def test_pinned_origin_and_length(self):
        m = ingest([rec(5, 1, 1.0)], 1.0, 1, origin=1, n_steps=10)
        assert m.n_steps == 10
        assert m.losses[4, 0] == 1.0
        with pytest.raises(ValueError):
            ingest([rec(5, 1, 1.0)], 1.0, 1, origin=1, n_steps=4)
        with pytest.raises(ValueError):
            ingest([rec(0, 1, 1.0)], 1.0, 1, origin=1)

    def test_rejections(self):
        with pytest.raises(errors.EmptyDatabase):
            ingest([], 1.0, 1)
        with pytest.raises(errors.UnknownProcess):
            ingest([rec(0, 0, 1.0)], 1.0, 1)
        with pytest.raises(errors.UnknownProcess):
            ingest([rec(0, 3, 1.0)], 1.0, 2)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(errors.NonPositiveAmount):
                ingest([rec(0, 1, bad)], 1.0, 1)
        with pytest.raises(ValueError):
            ingest([rec(0, 1, 1.0)], 0.0, 1)

    def test_overflowing_bin_sum_names_step_and_process(self):
        records = [rec(0, 1, 1.0), rec(1, 2, 1e308), rec(1, 1, 1e308), rec(1, 2, 1e308)]
        with pytest.raises(errors.NonPositiveAmount, match=r"inf .*step 2, process 2"):
            ingest(records, 1.0, 2)

    def test_overflowing_step_span_names_both_timestamps(self):
        with pytest.raises(errors.TimestampSpanOverflow, match=r"-1e\+308 and 1e\+308"):
            ingest([rec(-1e308, 1, 0.5), rec(1e308, 2, 0.3)], 1.0, 2)
        with pytest.raises(errors.TimestampSpanOverflow):
            ingest([rec(0.0, 1, 0.5), rec(1.0, 1, 0.3)], 1e-320, 1)

    @pytest.mark.parametrize(
        "last",
        [
            pytest.param(1e300, id="beyond-the-largest-array-dimension"),
            # 1.6e18 bytes: more than any 64-bit address space maps, so the
            # allocation fails on every machine (3e9 steps would fit on some)
            pytest.param(1e17, id="beyond-the-address-space"),
        ],
    )
    def test_unallocatable_step_span_names_timestamps_and_steps(self, last):
        message = re.escape(f"0.0 and {last!r} span {last:.4g} steps")
        with pytest.raises(errors.TimestampSpanOverflow, match=message):
            ingest([rec(0.0, 1, 0.5), rec(last, 2, 0.3)], 1.0, 2)


def _ts(text):
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc).timestamp()


class TestDatabaseFiles:
    def test_round_trip_is_lossless(self, tmp_path, small_parameters):
        p = small_parameters
        traj = simulate(p, None, 64, NoiseSpec(rates=p.lam, seed=9))
        path = tmp_path / "db.csv"
        write_loss_database(path, traj.losses)
        records = read_loss_records(path)
        back = ingest(records, 1.0, p.n, origin=1, n_steps=64)
        assert np.array_equal(back.losses, traj.losses.losses)

    def test_round_trip_preserves_silent_edges(self, tmp_path):
        losses = np.zeros((5, 2))
        losses[2, 1] = 1.25
        path = tmp_path / "db.csv"
        write_loss_database(path, LossMatrix(losses))
        back = ingest(read_loss_records(path), 1.0, 2, origin=1, n_steps=5)
        assert np.array_equal(back.losses, losses)

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
        assert records[0].timestamp == _ts("2021-03-27T12:00")
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
        records = read_loss_records(path)
        assert len(records) == 3
        assert records[0].amount == 1.0
        # a naive timestamp is UTC, and an explicit offset is kept
        assert [r.timestamp - records[0].timestamp for r in records] == [0.0, 2.0, 3.0]


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

    def test_invalid_json_and_missing_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(errors.ConfigError):
            load_config(path)
        with pytest.raises(errors.ConfigError):
            load_config(tmp_path / "absent.json")

    def test_seed_may_be_omitted(self, tmp_path):
        def mutate(doc):
            doc["simulation"].pop("seed")

        config = load_config(write_config(tmp_path, mutate))
        assert config.master_seed is None
