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
from contextlib import redirect_stdout
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


def predict_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = tripace.cli.main(argv)  # looked up here, so a traced main is called
    assert code == 0
    return out.getvalue()


def traced_predict(spans, argv):
    """stdout and per-layer metrics of one ``predict`` with the tracer installed."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_call()
        traced = predict_stdout(argv)
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
    untraced = predict_stdout(argv)
    traced, metrics = traced_predict(spans, argv)
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
    _, metrics = traced_predict(spans, argv)
    assert metrics["pso.evals"] == 50_000
    assert metrics["pso.first_feasible_eval"] == 17.0
    assert metrics["preference.feasible_eval_share"] == 8_137 / 50_000  # 0.16274
    assert metrics["preference.ceiling_reject_share"] == 21_899 / 50_000  # 0.43798
    assert metrics["pso.last_improvement_gen"] == 153.2
