"""Tests of the benchmark itself: generators, tracer counters, traced bytes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr

import numpy as np
import pytest

import inputs
import run
import spans
import workloads
from tripace.archive import load_archive

SMALL_RUNS, SMALL_NP, SMALL_FES = 2, 20, 510


def small_predict_argv(seed: int = 10) -> list[str]:
    return [
        "predict", "--synth-spec", json.dumps(inputs.ref_spec()),
        "--runs", str(SMALL_RUNS), "--seed", str(seed), "--np", str(SMALL_NP),
        "--max-fes", str(SMALL_FES), "--kmax", "300", "--output", "json",
    ]


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(inputs.result_csv(7, groups=2, per_group=100).text, encoding="utf-8")
    return path


def traced_call(argv: list[str]) -> tuple[str, dict, dict]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_call()
        code, out, _, _ = run.call_cli(argv)
        metrics = tracer.end_call()
    finally:
        tracer.uninstall()
    assert code == 0
    return out, metrics, tracer.counters


class TestGenerators:
    def test_csv_is_deterministic_per_seed(self):
        first = inputs.result_csv(3, groups=2, per_group=100)
        assert first == inputs.result_csv(3, groups=2, per_group=100)
        assert first.text != inputs.result_csv(4, groups=2, per_group=100).text

    def test_csv_counts_match_the_loader(self, small_csv):
        generated = inputs.result_csv(7, groups=2, per_group=100)
        assert (generated.rows, generated.dnf) == (200, 4)
        with redirect_stderr(io.StringIO()):
            records, skipped = load_archive(small_csv)
        assert (len(records), len(skipped)) == (generated.kept, generated.dnf)

    def test_csv_rotates_all_three_time_grammars(self):
        lines = inputs.result_csv(3, groups=1, per_group=30).text.splitlines()[1:]
        swims = [line.split(",")[4] for line in lines]
        assert {s.count(":") for s in swims[:3]} == {0, 1, 2}

    def test_field_spec_is_deterministic_per_seed(self):
        assert inputs.field_spec(10) == inputs.field_spec(10)
        assert inputs.field_spec(10)["seed"] != inputs.field_spec(11)["seed"]


class TestTracer:
    def test_counters_are_consistent(self):
        _, metrics, counters = traced_call(small_predict_argv())
        evals = metrics["pso.evals"]
        assert evals == SMALL_FES * SMALL_RUNS
        assert counters["feasible_evals"] <= evals
        assert counters["feasible_evals"] + counters["ceiling_rejects"] <= evals
        assert metrics["pso.generations"] == SMALL_RUNS * math.ceil(SMALL_FES / SMALL_NP)
        assert len(counters["first_feasible"]) == SMALL_RUNS
        assert all(1 <= first <= SMALL_FES for first in counters["first_feasible"])
        assert all(0 <= gen < math.ceil(SMALL_FES / SMALL_NP) for gen in counters["last_improvement"])
        assert metrics["archive.extend_calls"] == SMALL_RUNS

    def test_fitness_and_step_times_add_up_to_the_swarm_runs(self, tmp_path):
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.begin_call()
            run.call_cli(small_predict_argv())
            metrics = tracer.end_call()
        finally:
            tracer.uninstall()
        assert tracer.save(tmp_path / "spans.npz") > metrics["pso.evals"]
        saved = np.load(tmp_path / "spans.npz")
        is_run = saved["name"] == list(saved["names"]).index("pso.run")
        run_time = (saved["end"] - saved["start"])[is_run].sum()
        per_eval = (metrics["preference.fitness_us"] + metrics["pso.step_us"]) * 1e-6
        assert per_eval * metrics["pso.evals"] == pytest.approx(run_time, rel=1e-9)

    def test_correlate_counts_rows_and_runs_no_swarm(self, small_csv):
        argv = ["correlate", "--archive", str(small_csv), "--group", "18-24", "--top-n", "30"]
        _, metrics, _ = traced_call(argv)
        assert metrics["archive.rows_read"] == 200
        assert metrics["archive.rows_skipped"] == 4
        assert metrics["pso.evals"] == 0
        assert metrics["timekit.parse_calls"] > 0

    def test_uninstall_restores_every_function(self):
        import importlib

        before = [getattr(importlib.import_module(m), a) for m, a, _ in spans.HOOKS]
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
        after = [getattr(importlib.import_module(m), a) for m, a, _ in spans.HOOKS]
        assert before == after


class TestTracedOutput:
    def test_predict_report_is_byte_identical_when_traced(self):
        code, plain, _, _ = run.call_cli(small_predict_argv())
        assert code == 0
        traced, _, _ = traced_call(small_predict_argv())
        assert traced == plain

    def test_correlate_output_is_byte_identical_when_traced(self, small_csv):
        argv = ["correlate", "--archive", str(small_csv), "--group", "18-24", "--top-n", "30"]
        code, plain, _, _ = run.call_cli(argv)
        assert code == 0
        traced, _, _ = traced_call(argv)
        assert traced == plain


class TestChecks:
    @staticmethod
    def report(seed: int, total_shift: float = 0.0) -> str:
        splits = {"swim": 34.0, "t1": 3.5, "bike": 166.9, "t2": 3.5, "run": 92.0}
        runs = []
        for i in range(1, 6):
            split = dict(splits, run=splits["run"] + total_shift)
            total = split["swim"] + split["t1"] + split["bike"] + split["t2"] + split["run"]
            runs.append({"run": i, "seed": seed + i, "splits_min": split, "total_min": total,
                         "r_before": 0.7, "r_after": 0.71})
        return json.dumps({"archive": {"size": 30}, "runs": runs})

    def test_accepts_a_valid_report_and_flags_a_changed_repeat(self, tmp_path):
        prep = workloads.prepare("predict_ref", 3, tmp_path)
        assert prep.check(0, self.report(3), "") == []
        assert prep.check(0, self.report(3, total_shift=-0.5), "") != []

    def test_flags_a_total_above_the_ceiling_on_every_repeat(self, tmp_path):
        prep = workloads.prepare("predict_ref", 3, tmp_path)
        bad = self.report(3, total_shift=1.0)
        assert any("above the ceiling" in p for p in prep.check(0, bad, ""))
        assert prep.check(0, bad, "") != []

    def test_flags_a_nonzero_exit_code(self, tmp_path):
        prep = workloads.prepare("predict_ref", 3, tmp_path)
        assert prep.check(3, "", "error: all 5 run(s) infeasible") != []
