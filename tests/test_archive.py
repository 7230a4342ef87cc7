import csv
import hashlib
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceRecord,
    archive_from_records,
    assert_same_rows,
    oracle_pearson,
    reference_load_archive,
    reference_synthesize_archive,
    reference_write_archive_csv,
    rows_from_records,
)
from tables import SYNTH_MEANS, SYNTH_SPREADS, TABLE1_ROWS, table1_csv_text
from test_cli_fuzz import csv_texts, json_texts
from tripace import archive as archive_module
from tripace.archive import (
    CSV_COLUMNS,
    MAX_PLACE,
    OVERALL_SLACK,
    TIME_COLUMNS,
    Archive,
    ArchiveError,
    ResultRows,
    SplitVector,
    SynthesisError,
    extend_archive,
    load_archive,
    select_group,
    synthesize_archive,
    write_archive_csv,
)


def make_record(place=1, category="M25-29", swim=30.0, t1=3.0, bike=160.0, t2=3.0, run=95.0):
    return ReferenceRecord(
        athlete_name=f"A{place}",
        nation="SLO",
        category=category,
        finish_place=place,
        swim=swim,
        t1=t1,
        bike=bike,
        t2=t2,
        run=run,
        overall=swim + t1 + bike + t2 + run,
    )


def one_row_skip(tmp_path, place, *times):
    """The skip message of one result record, a row of a result file with
    ``place`` and ``times`` (numbers or cells), loaded below the reference rows."""
    path = tmp_path / "record.csv"
    cells = ",".join(map(str, (place, *times)))
    path.write_text(table1_csv_text() + f"X,-,PRO-M,{cells}\n")
    rows, skipped = load_archive(path)
    assert len(rows) == len(TABLE1_ROWS) and len(skipped) == 1
    return skipped[0].removeprefix("record.csv row 7: ")


class TestResultRecord:
    """The row rules on one record of a result file, as loading applies them."""

    def test_overall_must_match_split_sum(self, tmp_path):
        assert one_row_skip(tmp_path, 1, 30.0, 3.0, 160.0, 3.0, 95.0, 292.0) == (
            "overall 292.0000 differs from split sum 291.0000 by more than 0.05 min"
        )

    def test_infinite_split_and_overall_rejected(self, tmp_path):
        # no time reads as infinite, but five huge splits sum to infinity
        huge = "1" + "0" * 308
        assert one_row_skip(tmp_path, 1, huge, huge, huge, huge, huge, huge).startswith(
            f"overall {1e308:.4f} differs from split sum inf"
        )

    def test_splits_strictly_positive(self, tmp_path):
        assert one_row_skip(tmp_path, 1, 30.0, 0.0, 160.0, 3.0, 95.0, 288.0) == (
            "split 't1' must be strictly positive"
        )

    def test_place_positive(self, tmp_path):
        assert one_row_skip(tmp_path, 0, 30.0, 3.0, 160.0, 3.0, 95.0, 291.0) == (
            "finish place must be positive, got 0"
        )


def assert_same_archive(a, b):
    """Every field of two archives equal, every column element for element."""
    assert (a.label, a.group, a.names, a.nations) == (b.label, b.group, b.names, b.nations)
    assert np.array_equal(a.places, b.places)
    assert np.array_equal(a.times, b.times)


def column_archive(times, places=None):
    """An archive built from columns directly, as ``select_group`` builds one."""
    times = np.asarray(times, dtype=float)
    n = times.shape[1]
    places = np.arange(1, n + 1) if places is None else places
    return Archive("x", "g", places, ("A",) * n, ("-",) * n, times)


def row_times(*splits):
    """(6, n) times whose overall row is each row's split sum."""
    rows = [(*s, s[0] + s[1] + s[2] + s[3] + s[4]) for s in splits]
    return np.array(rows, dtype=float).T


class TestArchiveInvariants:
    def test_non_empty(self):
        with pytest.raises(ArchiveError, match="at least one"):
            column_archive(np.empty((6, 0)))

    def test_places_never_decrease(self):
        times = row_times(*[(30.0 + i, 3.0, 160.0, 3.0, 95.0) for i in range(3)])
        tied = column_archive(times, places=[2, 2, 3])  # finishers tied on a place
        assert tied.places.tolist() == [2, 2, 3]
        with pytest.raises(ArchiveError, match="^finish places must not decrease$"):
            column_archive(times, places=[2, 3, 2])

    def test_place_beyond_int64_named(self):
        times = row_times(*[(30.0 + i, 3.0, 160.0, 3.0, 95.0) for i in range(3)])
        with pytest.raises(ArchiveError, match=f"^finish place {2**63} does not fit int64$"):
            column_archive(times, places=[1, 2, 2**63])

    @pytest.mark.parametrize(
        "places, message",
        [
            (np.array([1, 2, 2**63], dtype=np.uint64), f"finish place {2**63} does not fit int64"),
            (np.array([1.0, 1.5, 2.0]), r"finish place 1\.5 is not an integer"),
            ([1, 2, float("nan")], "finish place nan is not an integer"),
        ],
        ids=["uint64-beyond-int64", "fraction", "nan"],
    )
    def test_place_cast_named(self, places, message):
        times = row_times(*[(30.0 + i, 3.0, 160.0, 3.0, 95.0) for i in range(3)])
        with pytest.raises(ArchiveError, match=f"^{message}$"):
            column_archive(times, places=places)

    def test_integral_float_places_kept(self):
        times = row_times(*[(30.0 + i, 3.0, 160.0, 3.0, 95.0) for i in range(3)])
        archive = column_archive(times, places=np.array([1.0, 2.0, 2.0]))
        assert archive.places.dtype == np.int64
        assert archive.places.tolist() == [1, 2, 2]

    # the row rules, as a result file's rows keep them too
    def test_place_positive(self):
        times = row_times((30.0, 3.0, 160.0, 3.0, 95.0), (31.0, 3.0, 160.0, 3.0, 95.0))
        with pytest.raises(ArchiveError, match="^finish place must be positive, got 0$"):
            column_archive(times, places=[0, 1])

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_splits_strictly_positive(self, value):
        times = row_times((30.0, 3.0, 160.0, 3.0, 95.0), (31.0, 3.0, 160.0, 3.0, 95.0))
        times[3, 1] = value
        with pytest.raises(ArchiveError, match="^split 't2' must be strictly positive$"):
            column_archive(times)

    def test_overall_must_match_split_sum(self):
        times = row_times((30.0, 3.0, 160.0, 3.0, 95.0), (31.0, 3.0, 160.0, 3.0, 95.0))
        times[5, 1] = 300.0
        with pytest.raises(ArchiveError, match="^overall 300.0000 differs from split sum 292.0000"):
            column_archive(times)

    def test_infinite_split_and_overall_rejected(self):
        times = row_times((30.0, 3.0, 160.0, 3.0, 95.0), (float("inf"), 3.0, 160.0, 3.0, 95.0))
        with pytest.raises(ArchiveError, match="^overall inf differs"):
            column_archive(times)

    def test_columns_of_unequal_length(self):
        times = row_times((30.0, 3.0, 160.0, 3.0, 95.0), (31.0, 3.0, 160.0, 3.0, 95.0))
        with pytest.raises(ArchiveError, match="unequal length"):
            column_archive(times, places=[1, 2, 3])

    def test_columns_are_read_only(self, high_corr_archive):
        with pytest.raises(ValueError, match="read-only"):
            high_corr_archive.swim_column()[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            high_corr_archive.places[0] = 7


class TestLoadCsv:
    def test_reference_rows(self, table1_csv):
        rows, skipped = load_archive(table1_csv)
        assert len(rows) == 5
        assert skipped == []
        assert rows.names == tuple(row[0] for row in TABLE1_ROWS)
        assert rows.categories == ("PRO-M",) * 5
        assert rows.places.tolist() == [1, 2, 3, 4, 5]
        assert rows.times[TIME_COLUMNS.index("bike"), 0] == 102.63
        assert rows.times[TIME_COLUMNS.index("overall"), 0] == 211.93
        assert rows.times.shape == (6, 5)

    def test_byte_order_mark_accepted(self, tmp_path, table1_rows):
        path = tmp_path / "bom.csv"
        path.write_text(table1_csv_text(), encoding="utf-8-sig")
        rows, skipped = load_archive(path)
        assert skipped == []
        assert_same_rows(rows, table1_rows)

    def test_place_beyond_the_largest_skipped(self, tmp_path, table1_rows):
        # an archive keeps places as int64, which cannot hold this one
        path = tmp_path / "far.csv"
        path.write_text(table1_csv_text() + f"Far,-,PRO-M,{10**20},1,1,1,1,1,5\n")
        rows, skipped = load_archive(path)
        assert_same_rows(rows, table1_rows)
        assert skipped == [f"far.csv row 7: finish place must be at most {MAX_PLACE}, got {10**20}"]
        assert len(select_group(rows, "PRO-M", 30)) == 5

    def test_header_only_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("name,nation,category,place,swim,t1,bike,t2,run,overall\n")
        with pytest.raises(ArchiveError, match="zero parseable rows"):
            load_archive(path)

    def test_bad_overall_row_skipped(self, tmp_path):
        path = tmp_path / "one_bad.csv"
        text = table1_csv_text() + "Bad Row,SLO,PRO-M,6,24.00,2.00,100.00,2.00,80.00,300.00\n"
        path.write_text(text)
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert len(skipped) == 1
        assert "row 7" in skipped[0]

    def test_skipped_row_named_by_file_line(self, tmp_path):
        # a blank line and an all-empty line sit above the bad row: it is
        # the 6th row with a value but on line 9 of the file
        path = tmp_path / "gaps.csv"
        lines = table1_csv_text().splitlines()
        lines[3:3] = ["", ",,,,,,,,,"]
        lines.append("Bad Row,SLO,PRO-M,6,24.00,2.00,100.00,2.00,80.00,300.00")
        path.write_text("\n".join(lines) + "\n")
        assert path.read_text().splitlines()[8].startswith("Bad Row")
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert skipped == [
            "gaps.csv row 9: overall 300.0000 differs from split sum 208.0000 "
            "by more than 0.05 min"
        ]

    def test_quoted_multiline_field_counts_its_lines(self, tmp_path):
        path = tmp_path / "multiline.csv"
        text = table1_csv_text() + '"Two\nLines",SLO,PRO-M,6,24.00,2.00,100.00,2.00,80.00,300.00\n'
        path.write_text(text)
        _, skipped = load_archive(path)
        assert len(skipped) == 1 and skipped[0].startswith("multiline.csv row 8:")

    def test_malformed_time_row_skipped(self, tmp_path):
        path = tmp_path / "dnf.csv"
        text = table1_csv_text() + "DNF Guy,SLO,PRO-M,6,24.00,--:--,100.00,2.00,80.00,206.00\n"
        path.write_text(text)
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert len(skipped) == 1
        assert "t1" in skipped[0]

    def test_field_over_the_size_limit_skipped(self, tmp_path):
        # the csv module refuses the field, then reads on from the next line
        path = tmp_path / "wide.csv"
        lines = table1_csv_text().splitlines()
        lines.insert(3, "Wide," + "x" * (csv.field_size_limit() + 1) + ",PRO-M,6,1,1,1,1,1,5")
        path.write_text("\n".join(lines) + "\n")
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert len(skipped) == 1
        assert skipped[0].startswith("wide.csv row 4: field larger than field limit")

    def test_header_field_over_the_size_limit(self, tmp_path):
        path = tmp_path / "wide_header.csv"
        path.write_text("x" * (csv.field_size_limit() + 1) + "," + table1_csv_text())
        with pytest.raises(ArchiveError, match="header: field larger than field limit"):
            load_archive(path)

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("name,nation,category,place,swim,t1,bike,t2,run,overall,pace\n")
        with pytest.raises(ArchiveError, match="unknown column"):
            load_archive(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("name,nation,category,place,swim,t1,bike,t2,run\nx,-,M,1,1,1,1,1,1\n")
        with pytest.raises(ArchiveError, match="missing column"):
            load_archive(path)

    def test_duplicate_column(self, tmp_path):
        # without the check, the later of the two columns fills every record
        path = tmp_path / "twice.csv"
        path.write_text(
            "name,nation,category,place,swim,t1,bike,t2,run,overall,category\n"
            "x,-,M,1,1,1,1,1,1,5,Z\n"
        )
        with pytest.raises(ArchiveError, match=r"duplicate column\(s\) \['category'\]"):
            load_archive(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ArchiveError, match="cannot read"):
            load_archive(tmp_path / "nope.csv")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "table1.csv"
        path.write_text(table1_csv_text())
        with pytest.raises(ValueError, match=r"^unknown archive format 'xml'$"):
            load_archive(path, "xml")

    def test_short_row_skipped(self, tmp_path):
        path = tmp_path / "short_row.csv"
        path.write_text(table1_csv_text() + "Cut Off,SLO,PRO-M,6,24.00,2.00,100.00\n")
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert len(skipped) == 1
        assert "row 7" in skipped[0] and "too short" in skipped[0]
        assert "['t2', 'run', 'overall']" in skipped[0]

    def test_row_with_extra_fields_skipped(self, tmp_path):
        path = tmp_path / "long_row.csv"
        text = table1_csv_text() + "Long Row,SLO,PRO-M,6,24.00,2.00,100.00,2.00,80.00,208.00,x,y\n"
        path.write_text(text)
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert len(skipped) == 1
        assert "row 7" in skipped[0] and "2 field(s) beyond" in skipped[0]

    def test_extra_fields_after_empty_columns_skipped(self, tmp_path):
        path = tmp_path / "stray.csv"
        path.write_text(table1_csv_text() + ",,,,,,,,,,stray\n")
        records, skipped = load_archive(path)
        assert len(records) == 5
        assert len(skipped) == 1 and "beyond" in skipped[0]


class TestLoadJson:
    def test_equivalent_to_csv(self, tmp_path, table1_rows):
        payload = [
            dict(zip(("name", "nation", "category", "place", "swim", "t1", "bike", "t2", "run", "overall"), row))
            for row in TABLE1_ROWS
        ]
        path = tmp_path / "taiwan.json"
        path.write_text(json.dumps(payload))
        rows, skipped = load_archive(path)
        assert skipped == []
        assert_same_rows(rows, table1_rows)

    def test_byte_order_mark_accepted(self, tmp_path, table1_rows):
        payload = [dict(zip(CSV_COLUMNS, row)) for row in TABLE1_ROWS]
        path = tmp_path / "bom.json"
        path.write_text(json.dumps(payload), encoding="utf-8-sig")
        rows, skipped = load_archive(path)
        assert skipped == []
        assert_same_rows(rows, table1_rows)

    def test_blank_entry_skipped_with_message(self, tmp_path, table1_rows):
        # unlike a blank CSV line, an entry of blank values is a row
        payload = [dict(zip(CSV_COLUMNS, row)) for row in TABLE1_ROWS]
        payload.insert(2, dict.fromkeys(CSV_COLUMNS, " "))
        path = tmp_path / "blank.json"
        path.write_text(json.dumps(payload))
        rows, skipped = load_archive(path)
        assert_same_rows(rows, table1_rows)
        assert skipped == ["blank.json row 3: column 'swim': empty time string"]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArchiveError, match="invalid JSON"):
            load_archive(path)

    def test_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ArchiveError, match="invalid JSON: nested too deeply"):
            load_archive(path)

    def test_non_array(self, tmp_path):
        path = tmp_path / "object.json"
        path.write_text("{}")
        with pytest.raises(ArchiveError, match="JSON array"):
            load_archive(path)

    @pytest.mark.parametrize(
        "payload, entry",
        [
            ([1, 2], "entry 1"),
            ([dict(zip(CSV_COLUMNS, TABLE1_ROWS[0])), "row"], "entry 2"),
            ([[]], "entry 1"),
        ],
    )
    def test_non_object_entry(self, tmp_path, payload, entry):
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArchiveError, match=f"{entry} is not a result object"):
            load_archive(path)


class TestWriteBack:
    def test_round_trip_identity(self, tmp_path, table1_archive):
        path = tmp_path / "back.csv"
        write_archive_csv(table1_archive, path)
        reloaded, skipped = load_archive(path)
        assert skipped == []
        assert reloaded.names == table1_archive.names
        assert reloaded.nations == table1_archive.nations
        assert reloaded.categories == (table1_archive.group,) * len(table1_archive)
        assert np.array_equal(reloaded.places, table1_archive.places)
        assert np.abs(reloaded.times - table1_archive.times).max() <= 5e-7

    def test_writes_the_columns_as_rows(self, tmp_path, table1_archive):
        path = tmp_path / "back.csv"
        write_archive_csv(table1_archive, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == (
            "Guy Crawford,NZL,PRO-M,1,24.000000,2.100000,102.630000,1.800000,81.400000,211.930000"
        )
        assert len(lines) == 6


def archive_rows(archive, order=slice(None)):
    """The rows of ``archive`` as ``load_archive`` returns rows, in ``order``,
    its group as every row's category."""
    return ResultRows(
        (archive.group,) * len(archive),
        archive.places[order],
        archive.names[order],
        archive.nations[order],
        archive.times[:, order],
    )


class TestSelectGroup:
    def test_reference_selection(self, table1_rows):
        archive = select_group(table1_rows, "PRO-M", 5, label="taiwan2015")
        assert len(archive) == 5
        assert archive.names == tuple(row[0] for row in TABLE1_ROWS)
        assert np.array_equal(archive.times, table1_rows.times)

    def test_top_n_below_minimum(self, table1_rows):
        with pytest.raises(ArchiveError, match="top_n"):
            select_group(table1_rows, "PRO-M", 2)

    def test_too_few_matches(self, table1_rows):
        with pytest.raises(ArchiveError, match="PRO-W"):
            select_group(table1_rows, "PRO-W", 5)

    def test_truncation_noop_when_group_smaller(self):
        records = [make_record(place=i, category="A" if i % 3 == 0 else "B") for i in range(1, 31)]
        archive = select_group(rows_from_records(records), "A", 30)
        assert len(archive) == 10
        assert archive.places.tolist() == list(range(3, 31, 3))

    def test_idempotent(self, table1_rows):
        once = select_group(table1_rows, "PRO-M", 4)
        twice = select_group(archive_rows(once), "PRO-M", 4)
        assert_same_archive(once, twice)

    def test_sorts_by_place(self, table1_archive):
        shuffled = archive_rows(table1_archive, order=slice(None, None, -1))
        archive = select_group(shuffled, "PRO-M", 5)
        assert archive.places.tolist() == [1, 2, 3, 4, 5]
        assert archive.names == tuple(row[0] for row in TABLE1_ROWS)

    def test_equal_places_keep_file_order(self):
        # the sort is stable: of two rows placed 3rd, the top 3 keep the one read first
        for first, second in ((30.0, 31.0), (31.0, 30.0)):
            records = [
                make_record(3, "A", swim=first),
                make_record(1, "A"),
                make_record(3, "A", swim=second),
                make_record(2, "A"),
            ]
            archive = select_group(rows_from_records(records), "A", 3)
            assert archive.places.tolist() == [1, 2, 3]
            assert archive.swim_column()[2] == first


class TestExtendArchive:
    prediction = SplitVector(swim=33.0, t1=3.0, bike=165.0, t2=3.5, run=93.0)

    def test_size_grows_by_one(self, high_corr_archive):
        extended = extend_archive(high_corr_archive, self.prediction)
        assert len(extended) == len(high_corr_archive) + 1

    def test_base_not_mutated(self, high_corr_archive):
        base = high_corr_archive
        snapshot = Archive(
            base.label, base.group, base.places.copy(), base.names, base.nations, base.times.copy()
        )
        extend_archive(high_corr_archive, self.prediction)
        assert_same_archive(high_corr_archive, snapshot)

    def test_existing_order_kept(self, high_corr_archive):
        extended = extend_archive(high_corr_archive, self.prediction)
        assert extended.names[:-1] == high_corr_archive.names
        assert extended.nations[:-1] == high_corr_archive.nations
        assert np.array_equal(extended.places[:-1], high_corr_archive.places)
        assert np.array_equal(extended.times[:, :-1], high_corr_archive.times)

    def test_appended_overall_is_prediction_total(self, high_corr_archive):
        extended = extend_archive(high_corr_archive, self.prediction)
        assert extended.times[5, -1] == self.prediction.total()
        assert extended.times[:5, -1].tolist() == list(self.prediction)
        assert extended.names[-1] == "PREDICTION"
        assert extended.places[-1] == len(high_corr_archive) + 1

    def test_place_stays_increasing_with_sparse_places(self):
        splits = (30.0, 3.0, 160.0, 3.0, 95.0)
        base = column_archive(row_times(splits, splits, splits), places=[5, 9, 14])
        extended = extend_archive(base, self.prediction)
        assert extended.places[-1] == 15

    def test_extends_an_archive_at_the_largest_place(self):
        # a result file's places stop at MAX_PLACE so that one more fits
        splits = (30.0, 3.0, 160.0, 3.0, 95.0)
        base = column_archive(row_times(splits, splits, splits), places=[1, 2, MAX_PLACE])
        assert extend_archive(base, self.prediction).places[-1] == MAX_PLACE + 1

    def test_next_place_beyond_int64_named(self):
        splits = (30.0, 3.0, 160.0, 3.0, 95.0)
        base = column_archive(row_times(splits, splits, splits), places=[1, 2, 2**63 - 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(ArchiveError, match=f"^finish place {2**63} does not fit int64$"):
                extend_archive(base, self.prediction)


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_archive(1, 30, 0.73, 0.0, SYNTH_MEANS, SYNTH_SPREADS)
        b = synthesize_archive(1, 30, 0.73, 0.0, SYNTH_MEANS, SYNTH_SPREADS)
        assert_same_archive(a, b)

    def test_hits_targets_within_tolerance(self, high_corr_archive):
        swim = high_corr_archive.swim_column().tolist()
        bike = high_corr_archive.bike_column().tolist()
        run = high_corr_archive.run_column().tolist()
        assert oracle_pearson(swim, bike) == pytest.approx(0.73, abs=0.02)
        assert oracle_pearson(bike, run) == pytest.approx(0.0, abs=0.02)

    def test_collinear_targets(self):
        archive = synthesize_archive(1, 10, 1.0, 1.0, SYNTH_MEANS, SYNTH_SPREADS)
        swim = archive.swim_column().tolist()
        bike = archive.bike_column().tolist()
        run = archive.run_column().tolist()
        assert oracle_pearson(swim, bike) == pytest.approx(1.0, abs=1e-12)
        assert oracle_pearson(bike, run) == pytest.approx(1.0, abs=1e-12)

    def test_places_follow_totals(self):
        archive = synthesize_archive(7, 12, 0.5, 0.1, SYNTH_MEANS, SYNTH_SPREADS)
        totals = archive.times[5].tolist()
        assert totals == sorted(totals)
        assert archive.places.tolist() == list(range(1, 13))

    def test_thousand_rows_pinned(self):
        archive = synthesize_archive(1, 1_000, 0.73, 0.0, SYNTH_MEANS, SYNTH_SPREADS)
        rows = zip(
            archive.names, archive.nations, archive.places.tolist(), archive.times.T.tolist()
        )
        # each row as the pinned text spells it: the repr of a record of the row
        fields = ("athlete_name", "nation", "category", "finish_place", *TIME_COLUMNS)
        lines = []
        for name, nation, place, times in rows:
            assert all(type(value) is float for value in times)
            values = (name, nation, archive.group, place, *times)
            pairs = ", ".join(f"{key}={value!r}" for key, value in zip(fields, values))
            lines.append(f"ResultRecord({pairs})")
        text = "\n".join(lines)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "a3d232ed8c914d0ad19c604b12387d64a6ec8307b32e744adf271de7d400ddfe"

    def test_size_too_small(self):
        with pytest.raises(ArchiveError, match="at least 5"):
            synthesize_archive(1, 4, 0.5, 0.1, SYNTH_MEANS, SYNTH_SPREADS)

    def test_target_out_of_range(self):
        with pytest.raises(ArchiveError, match="swim-bike"):
            synthesize_archive(1, 10, 1.5, 0.0, SYNTH_MEANS, SYNTH_SPREADS)

    def test_unattainable_reports_achieved(self):
        with pytest.raises(SynthesisError, match="achieved"):
            synthesize_archive(
                1, 30, 0.73, 0.0, SYNTH_MEANS, SYNTH_SPREADS, tolerance=1e-9, max_tries=3
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", None),
            ("seed", True),
            ("size", 30.5),
            ("means", [str(v) for v in SYNTH_MEANS]),
            ("means", SYNTH_MEANS[:4]),
            ("tolerance", float("nan")),
            ("seed", -1),
            ("tolerance", -1.0),
            ("max_tries", 0),
        ],
    )
    def test_mistyped_argument_names_its_key(self, key, value):
        arguments = dict(
            seed=1, size=30, r_swim_bike=0.73, r_bike_run=0.0,
            means=SYNTH_MEANS, spreads=SYNTH_SPREADS,
        )
        arguments[key] = value
        with pytest.raises(ArchiveError, match=f"^synthesis spec key {key!r} must be "):
            synthesize_archive(**arguments)

    def test_integral_float_seed_is_that_seed(self):
        a = synthesize_archive(1.0, 30.0, 0.73, 0.0, SYNTH_MEANS, SYNTH_SPREADS)
        assert_same_archive(a, synthesize_archive(1, 30, 0.73, 0.0, SYNTH_MEANS, SYNTH_SPREADS))

    def test_impossible_positivity(self):
        with pytest.raises(SynthesisError):
            synthesize_archive(
                1, 30, 0.5, 0.0, (1.0, 1.0, 1.0, 1.0, 1.0), (5.0, 5.0, 5.0, 5.0, 5.0), max_tries=10
            )


def synthesis_outcome(synthesize, *args, **kwargs):
    """What a synthesizer gives: the archive's places, names, nations and
    time bytes, or the type and text of what it raises."""
    try:
        archive = synthesize(*args, **kwargs)
    except Exception as error:
        return type(error), str(error)
    return archive.places.tolist(), archive.names, archive.nations, archive.times.tobytes()


@st.composite
def synthesis_specs(draw):
    """Arguments of synthesize_archive: plain specs, collinear targets, and
    columns whose variances overflow, underflow or are exactly zero in every
    try or in some."""
    kind = draw(
        st.sampled_from(["plain", "collinear", "overflow", "underflow", "flat", "grainy", "edge"])
    )
    size = draw(st.integers(5, 40))
    targets = st.floats(min_value=-1.0, max_value=1.0)
    r_swim_bike, r_bike_run = (1.0, 1.0) if kind == "collinear" else (draw(targets), draw(targets))
    means = draw(st.lists(st.floats(min_value=1.0, max_value=200.0), min_size=5, max_size=5))
    # a spread up to a third of its mean, so that most tries are positive
    shares = draw(st.lists(st.floats(min_value=0.01, max_value=0.33), min_size=5, max_size=5))
    spreads = [m * share for m, share in zip(means, shares)]
    if kind in ("overflow", "underflow"):  # means and spreads scaled alike
        exponent = draw(st.integers(150, 170))
        scale = 10.0 ** (exponent if kind == "overflow" else -exponent)
        means = [m * scale for m in means]
        spreads = [s * scale for s in spreads]
    elif kind == "flat":  # spreads too small to move a value off its mean
        spreads = [s * 10.0 ** -draw(st.integers(20, 300)) for s in spreads]
    elif kind == "grainy":  # a column constant in some tries and not in others
        column = draw(st.sampled_from([0, 2, 4]))
        grain = draw(st.floats(min_value=0.1, max_value=0.6))
        spreads[column] = math.ulp(means[column]) * grain
    elif kind == "edge":  # a variance below the normal floats, or overflowing, in some tries
        column = draw(st.sampled_from([0, 2, 4]))
        end = draw(st.sampled_from([sys.float_info.min, sys.float_info.max]))
        spreads[column] = math.sqrt(end / (size - 1)) * draw(st.floats(min_value=0.5, max_value=2.0))
        means[column] = spreads[column] / shares[column]
    tolerance = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)))
    return dict(
        seed=draw(st.integers(0, 2**32)), size=size,
        r_swim_bike=r_swim_bike, r_bike_run=r_bike_run, means=means, spreads=spreads,
        tolerance=tolerance, max_tries=draw(st.integers(1, 20)),
    )


REFERENCE_SYNTHESIS = dict(
    seed=1, size=30, r_swim_bike=0.73, r_bike_run=0.0,
    means=list(SYNTH_MEANS), spreads=list(SYNTH_SPREADS), tolerance=0.02, max_tries=500,
)


@given(spec=synthesis_specs())
@example(spec=REFERENCE_SYNTHESIS)
@example(spec=dict(REFERENCE_SYNTHESIS, tolerance=1e-9, max_tries=3))
# at 30 rows the chunks hold 16, 32, 64 and then 109 tries: found at try 60,
# in the third chunk; at try 119, in the fourth; and not found in seven
@example(spec=dict(REFERENCE_SYNTHESIS, seed=7))
@example(spec=dict(REFERENCE_SYNTHESIS, tolerance=0.002))
@example(spec=dict(REFERENCE_SYNTHESIS, tolerance=0.001))
# at 20 rows the chunks hold 16, 32, 64, 128 and then 163 tries; with 407
# tries the last chunk, of 4, has no positive try: the last achieved pair
# is that of a try in the chunk before
@example(spec=dict(
    seed=19, size=20, r_swim_bike=0.5, r_bike_run=0.2, means=[2.2] * 5, spreads=[1.0] * 5,
    tolerance=1e-6, max_tries=500,
))
@example(spec=dict(
    seed=19, size=20, r_swim_bike=0.5, r_bike_run=0.2, means=[2.2] * 5, spreads=[1.0] * 5,
    tolerance=1e-6, max_tries=407,
))
# the run column is constant in the first positive try, which raises, and
# not in a later one that would hit the targets
@example(spec=dict(
    seed=571762917, size=5, r_swim_bike=-0.6497065538081306, r_bike_run=-0.5699535623605274,
    means=[121.62591401874799, 174.20661216188134, 81.62743368091827, 136.12153563463804,
           124.50679513327394],
    spreads=[21.75580946791919, 33.20740254053021, 14.810794538662813, 18.513431357257826,
             3.5716954303451835e-15],
    tolerance=0.43461226876448, max_tries=18,
))
# the bike column's variances underflow in the first positive try, which
# raises, and not in a later one that would hit the targets
@example(spec=dict(
    seed=1688277367, size=8, r_swim_bike=0.21222254416162745, r_bike_run=-0.041618390294467345,
    means=[199.0300109446162, 137.22632859253824, 3.252221464475111e-154, 161.21898916261853,
           141.12846495741348],
    spreads=[5.026709835433643, 10.779175144298662, 7.0302290156369425e-155, 46.30968454113329,
             7.001702302790892],
    tolerance=0.14913352121684276, max_tries=20,
))
@settings(max_examples=300, deadline=None)
def test_synthesis_matches_the_per_try_oracle(spec):
    """Chunked draws and the screen change nothing that a caller sees: the
    archive, or the error and its text, is the per-try loop's."""
    assert synthesis_outcome(synthesize_archive, **spec) == synthesis_outcome(
        reference_synthesize_archive, **spec
    )


@pytest.mark.parametrize(
    "tolerance, max_tries", [(0.02, 500), (1e-6, 3)], ids=["found", "not-found"]
)
def test_ten_thousand_row_synthesis_matches_the_per_try_oracle(tolerance, max_tries):
    # one try per chunk at this size
    spec = dict(REFERENCE_SYNTHESIS, size=10_000, tolerance=tolerance, max_tries=max_tries)
    outcome = synthesis_outcome(synthesize_archive, **spec)
    assert outcome == synthesis_outcome(reference_synthesize_archive, **spec)
    assert (outcome[0] is SynthesisError) == (tolerance == 1e-6)


times = st.floats(min_value=0.5, max_value=400.0, allow_nan=False)


@st.composite
def record_batches(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    records = []
    for place in range(1, n + 1):
        swim, t1, bike, t2, run = (draw(times) for _ in range(5))
        records.append(
            ReferenceRecord(
                athlete_name=f"R{place}",
                nation="SLO",
                category="M25-29",
                finish_place=place,
                swim=swim,
                t1=t1,
                bike=bike,
                t2=t2,
                run=run,
                overall=swim + t1 + bike + t2 + run,
            )
        )
    return records


@given(records=record_batches())
@settings(max_examples=60, deadline=None)
def test_write_back_identity_property(records, tmp_path_factory):
    folder = tmp_path_factory.mktemp("wb")
    path, expected = folder / "archive.csv", folder / "records.csv"
    write_archive_csv(archive_from_records("prop", "M25-29", records), path)
    reference_write_archive_csv(records, expected)
    assert path.read_bytes() == expected.read_bytes()
    reloaded, skipped = load_archive(path)
    assert skipped == []
    assert len(reloaded) == len(records)
    assert reloaded.names == tuple(r.athlete_name for r in records)
    assert reloaded.places.tolist() == [r.finish_place for r in records]
    for before, after in zip(records, reloaded.times.T.tolist()):
        for name, value in zip(TIME_COLUMNS, after):
            assert abs(value - getattr(before, name)) <= 5e-7


@given(records=record_batches(), prediction=st.tuples(*[times] * 5))
@settings(max_examples=60, deadline=None)
def test_columnar_layout_property(records, prediction):
    archive = archive_from_records("prop", "M25-29", records)
    for row, name in enumerate(TIME_COLUMNS):
        expected = np.array([getattr(r, name) for r in records])
        assert np.array_equal(archive.times[row], expected)
    assert np.array_equal(archive.swim_column(), np.array([r.swim for r in records]))
    assert np.array_equal(archive.bike_column(), np.array([r.bike for r in records]))
    assert np.array_equal(archive.run_column(), np.array([r.run for r in records]))
    assert np.array_equal(archive.places, [r.finish_place for r in records])
    assert archive.names == tuple(r.athlete_name for r in records)
    assert archive.nations == tuple(r.nation for r in records)
    assert (archive.label, archive.group) == ("prop", "M25-29")
    for column in (*archive.times, archive.places):
        assert column.flags.c_contiguous and not column.flags.writeable
    places, columns = archive.places.copy(), archive.times.copy()
    extended = extend_archive(archive, SplitVector(*prediction))
    assert np.array_equal(archive.places, places) and np.array_equal(archive.times, columns)
    assert np.array_equal(extended.times[:, :-1], columns)
    for column in extended.times:
        assert column.flags.c_contiguous and not column.flags.writeable


# Cells a per-row load reads differently from the common case: padded and
# signed places, places past either end of int64, digit separators and
# non-ASCII digits, huge hours, seconds just below 60, zero times, and quoted
# cells spanning lines.
EDGE_PLACES = [
    " 1 ", "+5", "1_000", "\u0661", "\uff17", "0", "-3", str(10**20), str(-10**20), "07", "",
]
EDGE_TIMES = [
    " 24.00", "24.00 ", "\u0662\u0664.00", "0:24:00", "24:00", "1:59:59.999", "59.999",
    "9" * 400 + ":00:00", "9" * 400, "0", "0:00", "60:00", "1:60:00", "DNF", "", '"24\n.00"',
]
# The edge cells with no quote, which a line split on its commas reads too.
PLAIN_TIMES = [t for t in EDGE_TIMES if '"' not in t]

# Rows whose every time reads, so that only the record rules decide: a zero
# split, overalls at the slack's edge, tiny splits with a zero overall, and
# splits near the largest float.
EDGE_ROWS = [
    "Zero Split,SLO,PRO-M,6,24.00,0:00,100.00,2.00,80.00,206.00",
    "Slack Out,SLO,PRO-M,7,24.00,2.00,100.00,2.00,80.00,208.05",
    "Slack In,SLO,PRO-M,8,24.00,2.00,100.00,2.00,80.00,208.04",
    "Tiny,SLO,PRO-M,9,0.001,0.001,0.001,0.001,0.001,0",
    "Huge,SLO,PRO-M,10," + ",".join(["3" + "0" * 307] * 5) + ",15" + "0" * 307,
]

# A row with a field the csv module refuses to read, which ends its block.
OVERSIZED = "x" * (csv.field_size_limit() + 1)

# Lines between rows: a blank row of empty fields, which splits on its
# commas as any row does, and blank, ragged and oversized lines, which the
# csv module reads.
PLAIN_EXTRAS = [None, None, None, ",,,,,,,,,", *EDGE_ROWS]
EXTRAS = [*PLAIN_EXTRAS, "", "x,y", ",,,,,,,,,,stray", OVERSIZED]


@st.composite
def edge_csv_texts(draw):
    """The reference rows with edge cells put in, ragged, blank, multi-line
    and unreadable rows between them, and a row repeated so that it spans
    several blocks.  The rows before a drawn one have only lines that split
    on their commas, so the first quoted or misshapen line may sit after
    several blocks; a later name may hold a NUL, and the lines end in LF,
    CRLF or a lone CR, the last one or not, which a block's split reads as
    the csv module does."""
    lines = [",".join(CSV_COLUMNS)]
    records = draw(st.permutations(TABLE1_ROWS)) * draw(st.integers(1, 3))
    plain = draw(st.integers(0, len(records)))
    for index, fields in enumerate(records):
        late = index >= plain
        cells = [str(f) for f in fields]
        for _ in range(draw(st.integers(0, 2))):
            column = draw(st.integers(3, 9))
            times = EDGE_TIMES if late else PLAIN_TIMES
            cells[column] = draw(st.sampled_from(EDGE_PLACES if column == 3 else times))
        if late and draw(st.booleans()):
            cells[0] = draw(st.sampled_from(["Nul\x00Name", '"Two\nLines"', '" padded "', '"a,b"']))
        lines.append(",".join(cells))
        extra = draw(st.sampled_from(EXTRAS if late else PLAIN_EXTRAS))
        if extra is not None:
            lines.append(extra)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def load_outcome(load, path):
    """What ``load`` gives for ``path``: its rows as columns and the skipped
    list, or the type and message of what it raised."""
    try:
        rows, skipped = load(path)
    except Exception as exc:  # compared across the two loaders, never swallowed
        return type(exc), str(exc)
    if isinstance(rows, list):
        rows = rows_from_records(rows)
    return rows, skipped


@given(
    archive=st.one_of(
        st.tuples(st.just(".csv"), csv_texts() | edge_csv_texts()),
        st.tuples(st.just(".json"), json_texts()),
    ),
    block=st.sampled_from([1, 2, 3, 7, 1024]),
)
@settings(max_examples=300, deadline=None)
def test_load_archive_matches_the_per_row_loader(archive, block):
    suffix, text = archive
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"results{suffix}"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(archive_module, "_BLOCK_ROWS", block):
            got = load_outcome(load_archive, path)
        expected = load_outcome(reference_load_archive, path)
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert not isinstance(got[0], type), got
        assert_same_rows(got[0], expected[0])
        assert got[1] == expected[1]


def read_paths(path, block):
    """Load ``path`` in blocks of ``block`` rows, and say how its lines were
    read: what each block's split gave (its columns, or None where the csv
    module takes over) and the lines each csv reader read."""
    splits, feeds = [], []

    def split_spy(lines, width):
        splits.append(split_columns(lines, width))
        return splits[-1]

    def reader_spy(lines):
        fed = []
        feeds.append(fed)

        def feeding():
            for line in lines:
                fed.append(line)
                yield line

        return csv_reader(feeding())

    split_columns, csv_reader = archive_module._split_columns, csv.reader
    with (
        mock.patch.object(archive_module, "_BLOCK_ROWS", block),
        mock.patch.object(archive_module, "_split_columns", split_spy),
        mock.patch.object(archive_module.csv, "reader", reader_spy),
    ):
        got = load_archive(path)
    return got, splits, feeds


class TestReadPaths:
    """A block of lines that split on their commas as the csv module reads
    them is split, and the csv module reads from the first block that is not."""

    # 10 rows, read in blocks of 3, 3, 3 and 1; the last row is a DNF
    ROWS = [",".join(map(str, fields)) for fields in TABLE1_ROWS] * 2
    ROWS[-1] = ROWS[-1].rsplit(",", 1)[0] + ",DNF"

    def load(self, tmp_path, rows, end="\n", last_end="\n"):
        """``split is None`` for each block, and the number of file lines
        each csv reader read, after checking the load against the per-row
        loader."""
        path = tmp_path / "paths.csv"
        path.write_bytes((end.join([",".join(CSV_COLUMNS), *rows]) + last_end).encode())
        (loaded, skipped), splits, feeds = read_paths(path, 3)
        records, expected = reference_load_archive(path)
        assert_same_rows(loaded, rows_from_records(records))
        assert skipped == expected and skipped[-1].startswith("paths.csv row 11: column 'overall'")
        # A reader that takes over is first fed the first line of the block
        # that was not split, after the header's and the split blocks' lines,
        # and no blank line, since these files have none.
        with path.open(newline="") as fh:
            lines = fh.readlines()
        before = 1 + 3 * sum(split is not None for split in splits)
        for fed in feeds[1:]:
            assert fed[0] == lines[before] and "\n" not in fed
        return [split is None for split in splits], [len(fed) for fed in feeds]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("last_end", ["\n", "\r\n", "\r", ""])
    def test_quote_free_rows_never_reach_the_csv_module(self, tmp_path, end, last_end):
        assert self.load(tmp_path, self.ROWS, end, last_end) == ([False] * 4, [1])

    def test_csv_module_reads_from_the_block_with_a_quote(self, tmp_path):
        rows = list(self.ROWS)
        # in the third block, with no comma, so that only its quotes tell it apart
        rows[7] = '"Quoted Name",' + rows[7].split(",", 1)[1]
        # the header's line, then lines 8 to 11 of the file
        assert self.load(tmp_path, rows) == ([False, False, True], [1, 4])

    def test_block_with_a_nul_is_split(self, tmp_path):
        rows = list(self.ROWS)
        rows[4] = "Nul\x00" + rows[4]  # in the second block
        assert self.load(tmp_path, rows) == ([False] * 4, [1])

    def test_csv_module_reads_ragged_rows_whose_commas_add_up(self, tmp_path):
        rows = list(self.ROWS)
        rows[3] = rows[3].replace(",PRO-M", "")  # a field short, and one too many
        rows[4] = rows[4].replace(",PRO-M", ",PRO-M,")
        assert self.load(tmp_path, rows) == ([False, True], [1, 7])

    def test_last_line_ending_in_a_lone_cr_is_split(self, tmp_path):
        assert self.load(tmp_path, self.ROWS, last_end="\r") == ([False] * 4, [1])

    def test_every_block_of_lines_ending_in_a_lone_cr_is_split(self, tmp_path):
        assert self.load(tmp_path, self.ROWS, "\r", "\r") == ([False] * 4, [1])


# Times a row's values can take: ordinary ones, zero, a tiny one, one that
# overflows a sum of five, and NaN and infinity, which no cell reads as.
rule_times = st.one_of(
    st.floats(min_value=0.5, max_value=400.0),
    st.sampled_from([0.0, 1e-300, 1e308, math.nan, math.inf]),
)


def slack_edges(split_sum, side):
    """On ``side`` (+1 or -1) of ``split_sum``, the overall furthest from it
    that is within ``OVERALL_SLACK``, and the next float past it."""
    beyond = side * math.inf
    at = split_sum + side * OVERALL_SLACK
    while abs(at - split_sum) > OVERALL_SLACK:
        at = math.nextafter(at, split_sum)
    while abs(math.nextafter(at, beyond) - split_sum) <= OVERALL_SLACK:
        at = math.nextafter(at, beyond)
    return at, math.nextafter(at, beyond)


@st.composite
def rule_rows(draw):
    """A place in [1, MAX_PLACE] and six times, the overall often on the
    edge of the slack or just past it."""
    splits = [draw(rule_times) for _ in range(5)]
    split_sum = splits[0] + splits[1] + splits[2] + splits[3] + splits[4]
    # a negative overall is no time a cell holds, though an archive may accept it
    edges = [v for v in (*slack_edges(split_sum, 1), *slack_edges(split_sum, -1)) if not v < 0]
    overall = draw(st.sampled_from([split_sum, *edges]) | rule_times)
    return draw(st.integers(1, MAX_PLACE)), (*splits, overall)


def cell(value):
    """``value`` as a decimal-minutes cell that reads back bit for bit, or,
    for NaN and infinity, a cell that does not read."""
    if not math.isfinite(value):
        return str(value)
    return np.format_float_positional(value, unique=True, trim="-")


@given(row=rule_rows())
@settings(max_examples=300, deadline=None)
def test_load_keeps_a_row_exactly_when_an_archive_of_it_is_accepted(row):
    place, times = row
    try:
        Archive("x", "g", [place], ("X",), ("-",), np.array(times)[:, None])
    except ArchiveError as exc:
        verdict = str(exc)
    else:
        verdict = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "row.csv"
        path.write_text(table1_csv_text() + f"X,-,PRO-M,{place},{','.join(map(cell, times))}\n")
        rows, skipped = load_archive(path)
    kept = len(rows) == len(TABLE1_ROWS) + 1
    assert kept == (verdict is None)
    if kept:
        assert skipped == []
        assert rows.places[-1] == place and rows.times[:, -1].tolist() == list(times)
    elif all(map(math.isfinite, times)):  # every cell reads
        assert skipped == [f"row.csv row 7: {verdict}"]
    else:
        unread = TIME_COLUMNS[[math.isfinite(v) for v in times].index(False)]
        assert len(skipped) == 1
        assert skipped[0].startswith(f"row.csv row 7: column {unread!r}: ")
