import csv
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tables import SYNTH_MEANS, SYNTH_SPREADS, TABLE1_ROWS, table1_csv_text
from tripace.archive import synthesize_archive
from tripace.cli import main
from tripace.experiment import (
    _SPEC_OPTIONAL,
    _SPEC_REQUIRED,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    RunOutcome,
    emit_report,
    run_experiment,
)
from tripace.preference import ModelConfig, PredictionResult, SplitVector
from tripace.timekit import parse_duration

HIGH_SPEC = {
    "seed": 1,
    "size": 30,
    "r_swim_bike": 0.73,
    "r_bike_run": 0.0,
    "means": list(SYNTH_MEANS),
    "spreads": list(SYNTH_SPREADS),
}

COLLINEAR_SPEC = dict(HIGH_SPEC, r_swim_bike=1.0, r_bike_run=1.0)

NEGATIVE_SEED_MESSAGE = "base_seed must be at least -1, as run i uses seed base_seed + i, got -3"


def high_spec_json() -> str:
    return json.dumps(HIGH_SPEC)


# JSON nested far past the interpreter's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


# ModelConfig's error for lower bounds that sum above the largest ceiling
# whose infeasibility penalty (twice the ceiling) is finite
FLOOR_ABOVE_THE_CAP = (
    "lower bounds sum to {}, above the largest reachable ceiling "
    f"{sys.float_info.max / 2}: the feasible set is empty"
)

# PsoConfig's error for a box and learning factors whose swarm step would
# leave the floats, with the same cap of half the largest float
STEP_OVERFLOW = (
    "a swarm step could overflow: bounds [{}] with c1={}, c2={} reach inf, "
    f"above {sys.float_info.max / 2}"
)


LIMIT = sys.get_int_max_str_digits()

# Malformed JSON option values: where each is given (inline, or in a file
# whose path is the value), its text (bytes for a file that is not UTF-8),
# and the one error line it gives, as a template.  Inline text that is not
# JSON is taken for a path.
JSON_FORMS = {
    "inline": ("inline", DEEP_JSON, "{source}: invalid JSON: nested too deeply"),
    "file": ("file", DEEP_JSON, "{source}: invalid JSON: nested too deeply"),
    "inline-syntax": ("inline", "[1, 2", "{what} is neither JSON nor a readable file: {value!r}"),
    "file-syntax": (
        "file", "[1, 2", "{source}: invalid JSON: Expecting ',' delimiter: line 1 column 6 (char 5)"
    ),
    "inline-long-integer": (
        "inline", "[1" + "0" * LIMIT + "]", f"{{source}}: an integer of more than {LIMIT} digits"
    ),
    "file-long-integer": (
        "file", "[1" + "0" * LIMIT + "]", f"{{source}}: an integer of more than {LIMIT} digits"
    ),
    "inline-not-an-object": ("inline", "[1, 2]", "{what} must be a JSON object"),
    "file-not-an-object": ("file", "[1, 2]", "{what} must be a JSON object"),
    "file-not-utf8": (
        "file", '["M\u00fcller"]'.encode("latin-1"), "{source}: not UTF-8 text (invalid start byte)"
    ),
}


def json_arg(tmp_path: Path, form: str, what: str) -> tuple[str, str]:
    """The option value of a ``JSON_FORMS`` entry, and its error line after
    ``error: `` for the option whose messages name ``what``."""
    where, text, line = JSON_FORMS[form]
    value, source = text, what
    if where == "file":
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        value = str(path)
        source = f"{what} file {value!r}"
    return value, line.format(what=what, source=source, value=value)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m tripace`` in a separate interpreter, so stderr holds all it prints.

    In-process pytest captures logging records and warnings, and would hide
    a line printed through either.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tripace", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def assert_one_error_line(err: str, ending: str) -> None:
    """``err`` is exactly one line, which starts ``error: `` and ends with ``ending``."""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err.endswith(ending + "\n")


class TestRunExperiment:
    def make_config(self, **overrides):
        kwargs = dict(
            synth_spec=HIGH_SPEC,
            runs=2,
            base_seed=10,
            max_evaluations=2_000,
            model=ModelConfig(),
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def test_runs_are_seeded_from_base(self):
        report = run_experiment(self.make_config())
        assert [o.seed for o in report.per_run] == [11, 12]
        assert [o.index for o in report.per_run] == [1, 2]

    def test_mean_total_consistency(self):
        report = run_experiment(self.make_config(runs=3))
        totals = [o.minutes[5] for o in report.per_run if o.feasible]
        assert report.mean_row[5] == pytest.approx(sum(totals) / len(totals), abs=1e-9)
        assert report.mean_row[5] == pytest.approx(sum(report.mean_row[:5]), abs=1e-9)

    def test_single_run_stdev_is_zero(self):
        report = run_experiment(self.make_config(runs=1))
        assert report.stdev_row == (0.0,) * 6

    def test_all_infeasible_raises(self):
        cfg = self.make_config(synth_spec=COLLINEAR_SPEC, runs=2, max_evaluations=1_000)
        with pytest.raises(ExperimentError, match="infeasible"):
            run_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="group"):
            ExperimentConfig(archive_path="x.csv")
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig(synth_spec=HIGH_SPEC, runs=0)

    @pytest.mark.parametrize("runs", [True, 2.5, float("nan"), "2"])
    def test_runs_must_be_an_integer(self, runs):
        with pytest.raises(ValueError, match="runs must be an integer"):
            ExperimentConfig(synth_spec=HIGH_SPEC, runs=runs)

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("swarm_size", 0, "swarm_size must be positive, got 0"),
            ("swarm_size", 10.5, "swarm_size must be an integer, got 10.5"),
            (
                "max_evaluations", 10,
                "max_evaluations must cover at least one evaluation per particle, "
                "got 10 for swarm_size 50",
            ),
            ("base_seed", -3, NEGATIVE_SEED_MESSAGE),
            ("base_seed", True, "base_seed must be an integer, got True"),
            ("c1", -1.0, "learning factors must be non-negative, got c1=-1.0, c2=2.0"),
            ("c2", float("nan"), "learning factors must be finite, got c1=2.0, c2=nan"),
            ("top_n", 2, "top_n must be at least 3, got 2"),
            ("top_n", 2.5, "top_n must be an integer, got 2.5"),
        ],
    )
    def test_swarm_settings_checked_at_construction(self, setting, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(synth_spec=HIGH_SPEC, **{setting: value})

    def test_base_seed_minus_one_gives_run_seed_zero(self):
        report = run_experiment(self.make_config(runs=1, base_seed=-1))
        assert [o.seed for o in report.per_run] == [0]


class TestEmitReport:
    # every report has a Mean and a Stdev row: with no feasible run, there is no report
    mean_row = (33.0, 3.0, 165.0, 3.5, 93.0, 297.5)

    def make_report(self, outcomes, mean_row=mean_row, stdev_row=(0.0,) * 6):
        return ExperimentReport(
            archive_label="demo",
            archive_group="M25-29",
            archive_size=30,
            archive_correlation_sum=0.7010,
            per_run=tuple(outcomes),
            mean_row=mean_row,
            stdev_row=stdev_row,
        )

    def test_text_mean_row_rendering(self):
        mean_row = (33.8525, 2.8145, 167.56316666666666, 3.807, 91.96133333333333, 299.9985)
        report = self.make_report([], mean_row=mean_row, stdev_row=(0.0,) * 6)
        text = emit_report(report, "text")
        assert "33:51.15 | 2:48.87 | 2:47:33.79 | 3:48.42 | 1:31:57.68" in text
        assert "Mean | " in text and "Stdev | " in text

    def test_infeasible_row_rendered(self):
        outcome = RunOutcome(index=1, seed=2, prediction=None, error="no feasible plan")
        text = emit_report(self.make_report([outcome]), "text")
        assert "1 | infeasible" in text
        assert "no feasible plan" in text

    def test_infeasible_row_pinned_in_csv_and_json(self):
        outcome = RunOutcome(index=1, seed=2, prediction=None, error="no feasible plan")
        report = self.make_report([outcome])
        assert emit_report(report, "csv") == (
            "row,swim_min,t1_min,bike_min,t2_min,run_min,total_min,"
            "swim,t1,bike,t2,run,total,r_before,r_after,status\n"
            "1,,,,,,,,,,,,,0.701,,infeasible\n"
            "mean,33.0,3.0,165.0,3.5,93.0,297.5,"
            "33:00.00,3:00.00,2:45:00.00,3:30.00,1:33:00.00,4:57:30.00,,,\n"
            "stdev,0.0,0.0,0.0,0.0,0.0,0.0,"
            "0:00.00,0:00.00,0:00.00,0:00.00,0:00.00,0:00.00,,,\n"
        )
        document = emit_report(report, "json")
        assert document.startswith(
            '{\n  "archive": {\n    "label": "demo",\n    "group": "M25-29",\n'
            '    "size": 30,\n    "correlation_sum": 0.701\n  },\n'
            '  "runs": [\n    {\n      "run": 1,\n      "seed": 2,\n'
            '      "error": "no feasible plan"\n    }\n  ],\n'
            '  "mean": {\n'
        )
        parsed = json.loads(document)
        assert parsed["mean"]["total_min"] == 297.5 and parsed["stdev"]["total"] == "0:00.00"

    def test_json_round_trip(self):
        splits = SplitVector(33.0, 3.0, 165.0, 3.5, 93.0)
        outcome = RunOutcome(
            index=1, seed=2, prediction=PredictionResult(splits=splits, correlation_after=0.71)
        )
        report = self.make_report(
            [outcome],
            mean_row=(33.0, 3.0, 165.0, 3.5, 93.0, splits.total()),
            stdev_row=(0.0,) * 6,
        )
        doc = json.loads(emit_report(report, "json"))
        assert doc["runs"][0]["splits_min"]["swim"] == 33.0
        assert doc["runs"][0]["total_min"] == splits.total()
        assert doc["runs"][0]["r_before"] == 0.7010
        assert doc["mean"]["total_min"] == splits.total()
        assert doc["archive"]["correlation_sum"] == 0.7010

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.make_report([]), "yaml")


class TestCorrelateCommand:
    def test_reference_values(self, table1_csv, capsys):
        code = main(["correlate", "--archive", table1_csv, "--group", "PRO-M", "--top-n", "5"])
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines()[1:]:
            parts = line.split()
            values[parts[0]] = float(parts[-1])
        assert values["swim-bike"] == pytest.approx(0.9938, abs=5e-4)
        assert values["bike-run"] == pytest.approx(0.1804, abs=5e-4)
        assert values["sum"] == pytest.approx(1.1742, abs=1e-3)

    def test_constant_column_names_it(self, tmp_path, capsys):
        rows = ["name,nation,category,place,swim,t1,bike,t2,run,overall"]
        for i, swim in enumerate((24.0, 25.0, 26.0), start=1):
            overall = swim + 2.0 + 100.0 + 2.0 + 80.0 + i
            rows.append(f"A{i},-,M,{i},{swim},2.0,100.0,2.0,{80.0 + i},{overall}")
        path = tmp_path / "flatbike.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["correlate", "--archive", str(path), "--group", "M", "--top-n", "3"])
        assert code == 2
        assert "bike" in capsys.readouterr().err

    def test_underflowing_variances_exit_2(self, tmp_path, capsys):
        # swim and bike splits near 1e-100 min, written as plain decimals:
        # both variances are positive, but their product underflows to 0.0
        rows = ["name,nation,category,place,swim,t1,bike,t2,run,overall"]
        for i in range(1, 5):
            swim, bike = f"{i * 1e-100:.120f}", f"{i * i * 1e-100:.120f}"
            rows.append(f"A{i},-,M,{i},{swim},2.0,{bike},2.0,{80.0 + i},{84.0 + i}")
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["correlate", "--archive", str(path), "--group", "M"])
        assert code == 2
        assert capsys.readouterr().err == "error: correlation undefined: variances underflow\n"

    def test_deeply_nested_json_archive_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        code = main(["correlate", "--archive", str(path), "--group", "M"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: invalid JSON: nested too deeply\n"

    def test_csv_archive_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        # a Latin-1 name far past the decoder's first chunk, whose position
        # Python's message counts from that chunk, not from the file's start
        filler = "".join(
            f"Filler {i},SLO,PRO-M,{i},24.00,2.00,100.00,2.00,80.00,208.00\n"
            for i in range(6, 1006)
        )
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            (table1_csv_text() + filler).encode()
            + "M\u00fcller,GER,PRO-M,1006,24.00,2.00,100.00,2.00,80.00,208.00\n".encode("latin-1")
        )
        code = main(["correlate", "--archive", str(path), "--group", "PRO-M"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_json_archive_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes('[{"name": "M\u00fcller"}]'.encode("latin-1"))
        code = main(["correlate", "--archive", str(path), "--group", "M"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_json_integer_past_the_digit_limit_exits_2_naming_the_file(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        entry = dict(zip(
            ("name", "nation", "category", "swim", "t1", "bike", "t2", "run", "overall"),
            ("A", "SLO", "M", "24.00", "2.00", "100.00", "2.00", "80.00", "208.00"),
        ))
        path = tmp_path / "long.json"
        path.write_text(json.dumps([entry])[:-2] + ', "place": 1' + "0" * limit + "}]")
        code = main(["correlate", "--archive", str(path), "--group", "M"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: an integer of more than {limit} digits\n"

    def test_json_entry_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "numbers.json"
        path.write_text("[1, 2]")
        code = main(["correlate", "--archive", str(path), "--group", "M"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "entry 1 is not a result object" in err

    def test_short_and_long_csv_rows_skipped_with_message(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text(
            table1_csv_text()
            + "Cut Off,SLO,PRO-M,6,24.00\n"
            + "Long Row,SLO,PRO-M,7,24.00,2.00,100.00,2.00,80.00,208.00,x\n"
        )
        code = main(["correlate", "--archive", str(path), "--group", "PRO-M", "--top-n", "5"])
        assert code == 0
        err = capsys.readouterr().err
        assert "skipped 2 row(s)" in err
        assert "row 7: row too short" in err and "row 8: 1 field(s) beyond" in err
        assert "Traceback" not in err

    def test_overflowing_time_rows_skipped(self, table1_csv, tmp_path, capsys):
        huge = "9" * 400
        path = tmp_path / "huge.csv"
        path.write_text(
            table1_csv_text()
            + f"Hours,SLO,PRO-M,6,{huge}:00:00,2.00,100.00,2.00,80.00,208.00\n"
            + f"Minutes,SLO,PRO-M,7,24.00,2.00,100.00,2.00,{huge},{huge}\n"
        )
        assert main(["correlate", "--archive", table1_csv, "--group", "PRO-M"]) == 0
        expected = capsys.readouterr().out
        code = main(["correlate", "--archive", str(path), "--group", "PRO-M"])
        assert code == 0
        captured = capsys.readouterr()
        # the header names the file; the r lines come from the five table rows
        assert captured.out.splitlines()[1:] == expected.splitlines()[1:]
        assert "skipped 2 row(s)" in captured.err
        assert "huge.csv row 7: column 'swim'" in captured.err
        assert "huge.csv row 8: column 'run'" in captured.err

    def test_skipped_row_reported_once(self, tmp_path):
        path = tmp_path / "dnf.csv"
        path.write_text(
            table1_csv_text() + "DNF Guy,SLO,PRO-M,6,24.00,--:--,100.00,2.00,80.00,206.00\n"
        )
        done = run_cli("correlate", "--archive", str(path), "--group", "PRO-M", "--top-n", "5")
        assert done.returncode == 0
        assert done.stderr.startswith("skipped 1 row(s) while loading:\n")
        assert done.stderr.count("dnf.csv row 7:") == 1

    def test_file_of_skipped_rows_says_why(self, tmp_path):
        # every row is skipped, so the error is the only line that can say why
        path = tmp_path / "a.csv"
        path.write_text("name,nation,category,place,swim,t1,bike,t2,run,overall\nx,y,cat\n")
        done = run_cli("correlate", "--archive", str(path), "--group", "cat")
        assert done.returncode == 2
        assert done.stderr == (
            f"error: {path}: zero parseable rows; 1 row(s) skipped, the first: a.csv row 2: "
            "row too short: no value for column(s) "
            "['place', 'swim', 't1', 'bike', 't2', 'run', 'overall']\n"
        )

    def test_overflowing_variances_exit_2(self, tmp_path):
        # Table 1 with its bike splits scaled to about 1e162 min, written as
        # plain decimals: the bike variance overflows to infinity
        rows = ["name,nation,category,place,swim,t1,bike,t2,run,overall"]
        for name, nation, group, place, swim, t1, bike, t2, run, _ in TABLE1_ROWS:
            huge = f"{float(bike) * 1e160:f}"
            rows.append(f"{name},{nation},{group},{place},{swim},{t1},{huge},{t2},{run},{huge}")
        path = tmp_path / "huge-bike.csv"
        path.write_text("\n".join(rows) + "\n")
        done = run_cli("correlate", "--archive", str(path), "--group", "PRO-M")
        assert done.returncode == 2
        assert done.stderr == "error: correlation undefined: variances overflow\n"

    def test_top_n_below_minimum_rejected_before_synthesis(self, capsys, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("the archive was synthesized before top_n was checked")

        monkeypatch.setattr("tripace.experiment.synthesize_archive", no_synthesis)
        code = main(["correlate", "--synth-spec", high_spec_json(), "--top-n", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: top_n must be at least 3, got 2\n"

    def test_synth_source_prints_values_near_targets(self, capsys):
        code = main(["correlate", "--synth-spec", high_spec_json()])
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines()[1:]:
            parts = line.split()
            values[parts[0]] = float(parts[-1])
        assert values["swim-bike"] == pytest.approx(HIGH_SPEC["r_swim_bike"], abs=0.02)
        assert values["bike-run"] == pytest.approx(HIGH_SPEC["r_bike_run"], abs=0.02)


# an age group whose 3rd place is tied: two finishers share it
TIED_ROWS = """name,nation,category,place,swim,t1,bike,t2,run,overall
A1,SLO,M40-44,1,32.0,3.0,160.0,3.0,88.0,286.0
A2,SLO,M40-44,2,33.0,3.5,163.0,3.0,90.0,292.5
A3,SLO,M40-44,3,34.0,3.0,166.0,3.5,91.0,297.5
A4,SLO,M40-44,3,33.5,4.0,165.0,3.0,93.0,298.5
A5,SLO,M40-44,5,35.0,3.5,168.0,4.0,92.0,302.5
A6,SLO,M40-44,6,36.0,3.0,170.0,3.5,95.0,307.5
"""


def test_tied_places_in_the_top_n_are_kept(tmp_path, capsys):
    path = tmp_path / "tied.csv"
    path.write_text(TIED_ROWS)
    source = ["--archive", str(path), "--group", "M40-44", "--top-n", "6"]
    assert main(["correlate", *source]) == 0
    assert "(n=6)" in capsys.readouterr().out
    assert main(["predict", *source, "--max-fes", "200", "--runs", "1", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["archive"]["size"] == 6


class TestPredictCommand:
    def predict_args(self, extra=()):
        return [
            "predict", "--synth-spec", high_spec_json(),
            "--runs", "2", "--seed", "10", "--max-fes", "2000",
        ] + list(extra)

    def test_text_output(self, capsys):
        code = main(self.predict_args())
        assert code == 0
        out = capsys.readouterr().out
        assert "Run | Swimming | T1 | Cycling | T2 | Running | Total" in out
        assert "Mean | " in out

    def test_json_output_totals_under_ceiling(self, capsys):
        code = main(self.predict_args(["--output", "json"]))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["runs"]) == 2
        for entry in doc["runs"]:
            assert entry["total_min"] <= 300.0
            assert entry["r_after"] > entry["r_before"]

    def test_csv_output_full_precision(self, capsys):
        code = main(self.predict_args(["--output", "csv"]))
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        header = rows[0]
        assert header[0] == "row" and "swim_min" in header and "r_after" in header
        run_row = rows[1]
        total_min = float(run_row[header.index("total_min")])
        rendered = run_row[header.index("total")]
        assert parse_duration(rendered) == pytest.approx(total_min, abs=1e-4)
        assert rows[-2][0] == "mean" and rows[-1][0] == "stdev"

    def test_deterministic_bytes(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(self.predict_args(["--output", "json", "--out", str(out_a)])) == 0
        assert main(self.predict_args(["--output", "json", "--out", str(out_b)])) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_personal_best_ceiling(self, capsys):
        code = main(self.predict_args(["--personal-best", "303", "--output", "json"]))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for entry in doc["runs"]:
            assert entry["total_min"] <= 0.95 * 303.0 + 1e-9

    def test_personal_best_is_a_five_percent_lower_kmax(self, capsys):
        assert main(self.predict_args(["--personal-best", "303", "--output", "json"])) == 0
        from_personal_best = capsys.readouterr().out
        assert main(self.predict_args(["--kmax", repr(0.95 * 303), "--output", "json"])) == 0
        assert capsys.readouterr().out == from_personal_best

    def test_bounds_override(self, capsys):
        code = main(
            self.predict_args(["--bounds", '{"swim": [30, 36]}', "--output", "json"])
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for entry in doc["runs"]:
            assert 30.0 <= entry["splits_min"]["swim"] <= 36.0

    def test_mean_row_that_breaks_the_model_is_noted(self, capsys):
        spec = json.dumps(dict(HIGH_SPEC, r_swim_bike=0.18, r_bike_run=0.03))
        assert main(["predict", "--synth-spec", spec, "--seed", "80"]) == 0
        note = "Mean row infeasible: correlation sum 0.237962 -> 0.234311\n"
        assert capsys.readouterr().err == note

    def test_mean_row_drop_below_six_decimals_is_shown(self, capsys):
        # the benchmark's predict_field call at seed 10: on 10 000 rows the
        # Mean row lowers the sum by 3.6e-7, which six decimals do not show
        spec = json.dumps({
            "seed": 1994872985, "size": 10_000, "r_swim_bike": 0.6, "r_bike_run": 0.2,
            "means": [34.0, 3.5, 167.0, 3.5, 92.0], "spreads": [2.0, 0.7, 4.0, 0.7, 5.0],
            "label": "field", "group": "ALL",
        })
        argv = ["predict", "--synth-spec", spec, "--runs", "2", "--seed", "10", "--output", "json"]
        assert main(argv) == 0
        note = "Mean row infeasible: correlation sum 0.7971750 -> 0.7971746\n"
        assert capsys.readouterr().err == note

    def test_reference_mean_row_is_not_noted(self, capsys):
        assert main(["predict", "--synth-spec", high_spec_json(), "--seed", "10"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_archive_exits_2(self, capsys):
        code = main(["predict", "--archive", "/nonexistent.csv", "--group", "M"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible_ceiling_exits_2(self, capsys):
        code = main(self.predict_args(["--kmax", "200"]))
        assert code == 2
        assert "feasible set is empty" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        code = main(self.predict_args(["--seed", "-3"]))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + NEGATIVE_SEED_MESSAGE + "\n"

    def test_negative_seed_named_on_a_readable_archive(self, table1_csv, capsys):
        argv = ["predict", "--archive", table1_csv, "--group", "PRO-M", "--top-n", "5"]
        assert main(argv + ["--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + NEGATIVE_SEED_MESSAGE + "\n"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--np", "0", "swarm_size must be positive, got 0"),
            ("--np", "1", "swarm_size must be at least 2, got 1"),
            ("--c2", "0", "c2 must be positive, or no particle ever moves, got 0.0"),
            ("--seed", "-3", NEGATIVE_SEED_MESSAGE),
            (
                "--max-fes", "10",
                "max_evaluations must cover at least one evaluation per particle, "
                "got 10 for swarm_size 50",
            ),
            ("--top-n", "2", "top_n must be at least 3, got 2"),
            (
                "--bounds", '{"bike": [140, 1.7e308]}',
                STEP_OVERFLOW.format("140.0, 1.7e+308", "2.0", "2.0"),
            ),
            # two options, each spelled as one "--option=value" token
            ("--c1=1e308", "--c2=1e308", STEP_OVERFLOW.format("25.0, 50.0", "1e+308", "1e+308")),
        ],
    )
    def test_swarm_setting_rejected_before_the_archive_is_read(self, capsys, option, value, message):
        code = main(["predict", "--archive", "/nonexistent.csv", "--group", "X", option, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_swarm_setting_rejected_before_synthesis(self, capsys, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("the archive was synthesized before the settings were checked")

        monkeypatch.setattr("tripace.experiment.synthesize_archive", no_synthesis)
        assert main(self.predict_args(["--np", "0"])) == 2
        assert capsys.readouterr().err == "error: swarm_size must be positive, got 0\n"

    def test_zero_c1_is_accepted(self, capsys):
        # the pull toward the global best alone moves the swarm
        assert main(self.predict_args(["--c1", "0"])) == 0
        assert capsys.readouterr().err == ""

    def test_wide_bounds_exit_0(self, capsys):
        # a box wider than the former fixed penalty of 1e6 minutes
        code = main(["predict", "--synth-spec", high_spec_json(), "--bounds", '{"bike": [140, 1000000]}'])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Run | Swimming | T1 | Cycling | T2 | Running | Total" in captured.out
        assert "Mean | " in captured.out

    @pytest.mark.parametrize("option", ["--c1", "--c2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_factor_exits_2(self, capsys, option, value):
        code = main(self.predict_args([option, value]))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: learning factors must be finite")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "bounds",
        [
            '{"swim": 5}',
            '{"swim": [1]}',
            '{"swim": [20, 30, 40]}',
            '{"swim": ["a", "b"]}',
            '{"swim": ["20", "40"]}',
            '{"swim": [true, 40]}',
            '{"swim": null}',
            '{"swim": {"low": 20, "high": 40}}',
            '{"swim": [20, NaN]}',
            '{"swim": [20, Infinity]}',
            '{"swim": [20, 1e400]}',
            pytest.param('{"swim": [20, 1' + "0" * 400 + "]}", id="integer-beyond-float"),
        ],
    )
    def test_malformed_bounds_exit_2(self, capsys, bounds):
        code = main(self.predict_args(["--bounds", bounds]))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bounds for 'swim' must be a [low, high] pair")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("form", JSON_FORMS)
    def test_deeply_nested_bounds_exit_2(self, tmp_path, capsys, form):
        """Deeply nested and every other malformed JSON: one error line from main."""
        value, ending = json_arg(tmp_path, form, "bounds")
        assert main(self.predict_args(["--bounds", value])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err, ending)

    def test_bounds_not_a_json_object_exit_2(self, capsys):
        assert main(self.predict_args(["--bounds", "[1, 2]"])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bounds must be a JSON object\n"

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ('{"swimm": [1, 2]}', "unknown discipline(s) in bounds: ['swimm']"),
            ('{"swim": [1e308, 1.7e308]}', FLOOR_ABOVE_THE_CAP.format("1e+308")),
            (
                '{"swim": [1.7e308, 1.79e308], "bike": [1.7e308, 1.79e308]}',
                FLOOR_ABOVE_THE_CAP.format("inf"),
            ),
        ],
        ids=["unknown-discipline", "floor-above-the-cap", "floor-overflows"],
    )
    def test_unusable_bounds_exit_2(self, capsys, bounds, message):
        code = main(self.predict_args(["--bounds", bounds]))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_all_runs_infeasible_exits_3(self, capsys):
        code = main([
            "predict", "--synth-spec", json.dumps(COLLINEAR_SPEC),
            "--runs", "1", "--seed", "1", "--max-fes", "1000",
        ])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_loadable_archive(self, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        code = main(["synth", "--synth-spec", high_spec_json(), "--out", str(out)])
        assert code == 0
        assert "wrote 30 records" in capsys.readouterr().out
        from tripace.archive import load_archive

        records, skipped = load_archive(out)
        assert len(records) == 30 and skipped == []

    def test_deterministic_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--synth-spec", high_spec_json(), "--out", str(a)])
        main(["synth", "--synth-spec", high_spec_json(), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_thousand_row_archive_bytes(self, tmp_path):
        out = tmp_path / "field.csv"
        spec = json.dumps(dict(HIGH_SPEC, size=1_000))
        assert main(["synth", "--synth-spec", spec, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "984e6975d693d778ed41893fa7b57d6336148debbebbcadc78b6dc7f4a06b756"

    def test_spec_from_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(high_spec_json())
        out = tmp_path / "from_file.csv"
        assert main(["synth", "--synth-spec", str(spec_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_spec_file_with_byte_order_mark(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(high_spec_json(), encoding="utf-8-sig")
        assert main(["correlate", "--synth-spec", high_spec_json()]) == 0
        inline = capsys.readouterr().out
        assert main(["correlate", "--synth-spec", str(spec_path)]) == 0
        assert capsys.readouterr().out == inline

    def test_bad_spec_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--synth-spec", "{not json", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: synthesis spec is neither JSON nor a readable file: '{not json'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", None),
            ("size", [30]),
            ("r_swim_bike", {"r": 0.7}),
            ("means", "34,3.5,167,3.5,92"),
            ("spreads", None),
            ("max_tries", "many"),
            ("tolerance", [0.1]),
            ("label", 7),
            ("seed", 1.9),
            ("size", 30.7),
            ("max_tries", True),
            ("seed", False),
            ("r_swim_bike", "0.73"),
            ("r_swim_bike", True),
            ("tolerance", "0.5"),
            ("means", [str(v) for v in SYNTH_MEANS]),
            ("tolerance", float("nan")),
            ("means", [float("inf")] + list(SYNTH_MEANS[1:])),
            ("means", list(SYNTH_MEANS[:4])),
        ],
    )
    def test_mistyped_spec_entry_exits_2(self, tmp_path, capsys, key, value):
        spec = json.dumps(dict(HIGH_SPEC, **{key: value}))
        code = main(["synth", "--synth-spec", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: synthesis spec key {key!r} must be")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "key, value, least", [("seed", -1, "0"), ("tolerance", -1.0, "0.0"), ("max_tries", 0, "1")]
    )
    def test_out_of_range_spec_entry_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, key, value, least
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was scored before the spec was checked")

        monkeypatch.setattr("tripace.archive.pearson", no_draw)
        spec = json.dumps(dict(HIGH_SPEC, size=10_000, **{key: value}))
        code = main(["synth", "--synth-spec", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: synthesis spec key {key!r} must be at least {least}, got {value!r}\n"
        )

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"colour": 1}, "unknown synthesis spec key(s): ['colour']"),
            ({"spreads": [0.0, *SYNTH_SPREADS[1:]]}, "split spreads must be positive"),
            ({"means": None, "seed": None}, "synthesis spec missing key(s): ['means', 'seed']"),
        ],
        ids=["unknown-key", "zero-spread", "missing-keys"],
    )
    def test_refused_spec_exits_2(self, tmp_path, capsys, entries, message):
        # an entry of None drops that key from the spec
        spec = {key: value for key, value in dict(HIGH_SPEC, **entries).items() if value is not None}
        spec = json.dumps(spec)
        code = main(["synth", "--synth-spec", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_spec_keys_are_the_parameters_of_the_generator(self):
        parameters = inspect.signature(synthesize_archive).parameters.values()
        assert _SPEC_REQUIRED == tuple(p.name for p in parameters if p.default is p.empty)
        assert _SPEC_OPTIONAL == tuple(p.name for p in parameters if p.default is not p.empty)

    def test_integral_float_entries_accepted(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        floats = json.dumps(dict(HIGH_SPEC, seed=1.0, size=30.0, max_tries=500.0))
        assert main(["synth", "--synth-spec", floats, "--out", str(a)]) == 0
        assert main(["synth", "--synth-spec", high_spec_json(), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("form", JSON_FORMS)
    def test_deeply_nested_spec_exits_2(self, tmp_path, capsys, form):
        """Deeply nested and every other malformed JSON: one error line from
        main, on each command that takes a spec."""
        value, ending = json_arg(tmp_path, form, "synthesis spec")
        for command in (["synth", "--out", str(tmp_path / "x.csv")], ["correlate"], ["predict"]):
            assert main([*command, "--synth-spec", value]) == 2, command
            out, err = capsys.readouterr()
            assert out == ""
            assert_one_error_line(err, ending)

    @pytest.mark.parametrize(
        "value", ["x" * 300, ".", "nul\x00byte"], ids=["name-too-long", "directory", "nul-byte"]
    )
    def test_spec_neither_json_nor_a_readable_file_exits_2(self, tmp_path, capsys, value):
        assert main(["synth", "--synth-spec", value, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: synthesis spec is neither JSON nor a readable file: {value!r}\n"
        )


DEFAULT_RNG = np.random.default_rng


class DrawsThatDoNotFit:
    """A numpy generator whose draws of more than a million values raise
    MemoryError, as numpy's do for an array that cannot be allocated, without
    allocating it: under overcommit a huge request may be granted and then
    touched."""

    def __init__(self, seed):
        self.rng = DEFAULT_RNG(seed)

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def checked(size=None, *args, **kwargs):
            count = math.prod(size) if isinstance(size, tuple) else size
            if count is not None and count > 10**6:
                raise MemoryError(f"Unable to allocate an array of {count} values")
            return draw(size, *args, **kwargs)

        return checked


@pytest.mark.parametrize(
    "argv, count",
    [
        (["synth", "--synth-spec", json.dumps(dict(HIGH_SPEC, size=10**13)), "--out", "x.csv"],
         5 * 10**13),
        (["predict", "--synth-spec", high_spec_json(), "--np", str(10**13),
          "--max-fes", str(10**13)], 5 * 10**13),
    ],
    ids=["synthesis-size", "swarm-size"],
)
def test_input_too_large_to_allocate_exits_2(capsys, monkeypatch, argv, count):
    monkeypatch.setattr(np.random, "default_rng", DrawsThatDoNotFit)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory: Unable to allocate an array of {count} values\n"


def test_memory_error_with_no_message_still_says_why(capsys, monkeypatch):
    def no_memory(spec):
        raise MemoryError

    monkeypatch.setattr("tripace.cli.synthesize_from_spec", no_memory)
    assert main(["synth", "--synth-spec", high_spec_json(), "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"
