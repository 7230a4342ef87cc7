"""The benchmark's span tracer still fits the package.

``perfbench/spans.py`` rebinds package functions by module and name and
wraps ``predict`` and ``run`` by their signatures.  Deleting or renaming one
of those breaks the benchmark; this test makes it break the suite first.
The module is loaded from its file, so nothing under ``perfbench/`` is
imported as a package or changed.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tripace.cli
from tables import SYNTH_MEANS, SYNTH_SPREADS

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_output(argv):
    """stdout and stderr of one ``tripace`` call that exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tripace.cli.main(argv)  # looked up here, so a traced main is called
    assert code == 0
    return out.getvalue(), err.getvalue()


def traced_call(spans, argv):
    """stdout, stderr and per-layer metrics of one call with the tracer installed."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_call()
        traced = cli_output(argv)
        metrics = tracer.end_call()
    finally:
        tracer.uninstall()
    return traced, metrics


# the reference archive of the benchmark's predict_ref workload
REFERENCE_SPEC = json.dumps({
    "seed": 1, "size": 30, "r_swim_bike": 0.73, "r_bike_run": 0.0,
    "means": list(SYNTH_MEANS), "spreads": list(SYNTH_SPREADS),
})


def test_traced_predict_prints_the_untraced_report(monkeypatch):
    spans = load_spans(monkeypatch)
    argv = [
        "predict", "--synth-spec", REFERENCE_SPEC,
        "--runs", "1", "--seed", "10", "--max-fes", "200",
    ]
    untraced = cli_output(argv)
    traced, metrics = traced_call(spans, argv)
    assert traced == untraced
    assert metrics["pso.evals"] == 200
    assert metrics["timekit.format_calls"] > 0
    assert tripace.cli.main.__module__ == "tripace.cli"  # the original is back


def test_reference_predict_counters(monkeypatch):
    """The traced counters of the benchmark's predict_ref call at seed 10.

    They follow from the swarm's path alone, so any change to the fitness
    or the generation loop that moves one evaluation shows here.
    """
    spans = load_spans(monkeypatch)
    argv = [
        "predict", "--synth-spec", REFERENCE_SPEC, "--runs", "5", "--seed", "10",
        "--np", "50", "--max-fes", "10000", "--kmax", "300",
    ]
    _, metrics = traced_call(spans, argv)
    assert metrics["pso.evals"] == 50_000
    assert metrics["pso.first_feasible_eval"] == 17.0
    assert metrics["preference.feasible_eval_share"] == 8_137 / 50_000  # 0.16274
    assert metrics["preference.ceiling_reject_share"] == 21_899 / 50_000  # 0.43798
    assert metrics["pso.last_improvement_gen"] == 153.2
    # the one synthesis try that hits both targets; the screen rules out the rest
    assert metrics["stats.pearson_calls"] == 2


# Rows as the benchmark's load_correlate file writes them, in its three time
# grammars: five finishers, one whose swim time ends in a space, and four DNF
# rows, whose run and overall read "DNF".
RESULT_ROWS = """name,nation,category,place,swim,t1,bike,t2,run,overall
ATH-00001,AUS,25-29,1,33.00,3.50,165.00,3.50,90.00,295.00
ATH-00002,BRA,25-29,2,34:10.00,3:20.00,2:46:00.00,3:40.00,1:31:00.00,4:58:10.00
ATH-00003,CAN,25-29,3,0:36:00.00 ,0:03:00.00,2:50:00.00,0:03:10.00,1:33:20.00,5:05:30.00
ATH-00004,ESP,25-29,4,35.20,3.10,168.40,3.30,92.60,302.60
ATH-00005,FRA,25-29,5,33.80,3.60,166.20,3.40,94.00,301.00
ATH-00006,GBR,25-29,6,0:34:00.00,0:03:30.00,2:47:00.00,0:03:30.00,DNF,DNF
ATH-00007,GER,25-29,7,35:00.00,3:30.00,2:48:00.00,3:30.00,DNF,DNF
ATH-00008,JPN,25-29,8,36.00,3.50,169.00,3.50,DNF,DNF
ATH-00009,NZL,25-29,9,0:37:00.00,0:03:30.00,2:49:00.00,0:03:30.00,DNF,DNF
"""


def test_traced_load_parses_one_cell_per_skipped_row(monkeypatch, tmp_path):
    """The column pass reads every cell that reads, the padded one too; the
    loader parses again only the cell that names why a DNF row is skipped."""
    spans = load_spans(monkeypatch)
    path = tmp_path / "results.csv"
    path.write_text(RESULT_ROWS, encoding="utf-8")
    argv = ["correlate", "--archive", str(path), "--group", "25-29", "--top-n", "30"]
    untraced = cli_output(argv)
    traced, metrics = traced_call(spans, argv)
    assert traced == untraced
    assert "(n=5)" in untraced[0]
    assert untraced[1].count("column 'run': not a decimal-minutes value: 'DNF'") == 4
    assert metrics["archive.rows_read"] == 9
    assert metrics["archive.rows_skipped"] == 4
    assert metrics["timekit.parse_calls"] == 4
