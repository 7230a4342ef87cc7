"""Span tracing of tripace from outside the package.

``Tracer.install`` rebinds public functions of tripace at the places where
they are looked up at call time (``tripace.preference.pearson``,
``tripace.archive.parse_duration``, ...) with wrappers that record one span
per call: name, start, end, parent span and CLI call id.  ``uninstall`` puts
the original functions back.  Nothing under ``src/`` changes.

Spans of one CLI call are reduced to per-layer metrics when the call ends;
the raw spans stay in memory (up to ``MAX_SPANS`` of them) and ``save``
writes them out when the benchmark exits.
"""

from __future__ import annotations

import importlib
import math
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "experiment", "archive", "timekit", "stats", "preference", "pso")

# (module, attribute, span name): every place where tripace looks a traced
# function up at call time.  A function imported into several modules is
# rebound in each of them, under one span name.
HOOKS = (
    ("tripace.cli", "main", "cli.main"),
    ("tripace.cli", "run_experiment", "experiment.run_experiment"),
    ("tripace.cli", "resolve_archive", "experiment.resolve_archive"),
    ("tripace.cli", "emit_report", "experiment.emit_report"),
    ("tripace.cli", "archive_correlation", "stats.archive_correlation"),
    ("tripace.experiment", "resolve_archive", "experiment.resolve_archive"),
    ("tripace.experiment", "load_archive", "archive.load_archive"),
    ("tripace.experiment", "select_group", "archive.select_group"),
    ("tripace.experiment", "synthesize_archive", "archive.synthesize_archive"),
    ("tripace.experiment", "archive_correlation", "stats.archive_correlation"),
    ("tripace.experiment", "predict", "preference.predict"),
    ("tripace.experiment", "format_split", "timekit.format_split"),
    ("tripace.preference", "archive_correlation", "stats.archive_correlation"),
    ("tripace.preference", "pearson", "stats.pearson"),
    ("tripace.preference", "extend_archive", "archive.extend_archive"),
    ("tripace.preference", "run", "pso.run"),
    ("tripace.archive", "parse_duration", "timekit.parse_duration"),
    ("tripace.archive", "pearson", "stats.pearson"),
    ("tripace.stats", "pearson", "stats.pearson"),
)
FITNESS = "preference.fitness"
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in HOOKS] + [FITNESS]))
_IDS = {name: i for i, name in enumerate(SPAN_NAMES)}

# Spans kept in memory for ``save``; later calls are summarised only.
MAX_SPANS = 1_000_000

# Per-layer metrics: (name, unit, better).  Times are per CLI call unless
# the name says per evaluation (``_us``); counts are per CLI call.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("archive.self_s", "s", "lower"),
    ("timekit.self_s", "s", "lower"),
    ("stats.self_s", "s", "lower"),
    ("preference.self_s", "s", "lower"),
    ("pso.self_s", "s", "lower"),
    ("preference.fitness_us", "us", "lower"),
    ("stats.pearson_s", "s", "lower"),
    ("stats.pearson_calls", "count", "lower"),
    ("preference.feasible_eval_share", "ratio", "higher"),
    ("preference.ceiling_reject_share", "ratio", "lower"),
    ("pso.step_us", "us", "lower"),
    ("pso.evals", "count", "lower"),
    ("pso.generations", "count", "lower"),
    ("pso.first_feasible_eval", "count", "lower"),
    ("pso.last_improvement_gen", "count", "higher"),
    ("archive.load_s", "s", "lower"),
    ("archive.rows_read", "count", "higher"),
    ("archive.rows_skipped", "count", "lower"),
    ("archive.select_s", "s", "lower"),
    ("timekit.parse_calls", "count", "lower"),
    ("timekit.parse_s", "s", "lower"),
    ("archive.synth_s", "s", "lower"),
    ("archive.extend_calls", "count", "lower"),
    ("experiment.resolve_s", "s", "lower"),
    ("experiment.render_s", "s", "lower"),
    ("timekit.format_calls", "count", "lower"),
    ("experiment.feasible_run_share", "ratio", "higher"),
    ("preference.ceiling_gap_min", "min", "lower"),
    ("trace.call_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans around tripace's public functions while installed."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._kept: list[dict[str, np.ndarray]] = []
        self._kept_count = 0
        self.call_id = -1
        self._reset()

    # -- recording ---------------------------------------------------------

    def _reset(self) -> None:
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack = [-1]
        self.counters = {
            "rows_read": 0,
            "rows_skipped": 0,
            "evals": 0,
            "feasible_evals": 0,
            "ceiling_rejects": 0,
            "generations": 0,
            "first_feasible": [],
            "last_improvement": [],
        }
        self._model = None

    def _open(self, name_id: int) -> int:
        sid = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(math.nan)
        self._stack.append(sid)
        self._start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = _IDS[name]
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    def _wrap_load(self, fn):
        traced = self._wrap("archive.load_archive", fn)

        def load(*args, **kwargs):
            records, skipped = traced(*args, **kwargs)
            self.counters["rows_read"] += len(records) + len(skipped)
            self.counters["rows_skipped"] += len(skipped)
            return records, skipped

        return load

    def _wrap_predict(self, fn):
        traced = self._wrap("preference.predict", fn)

        def predict(base, cfg, pso_cfg):
            self._model = cfg
            return traced(base, cfg, pso_cfg)

        return predict

    def _wrap_run(self, fn):
        from tripace.preference import resolve_target_ceiling

        run_id = _IDS["pso.run"]
        fitness_id = _IDS[FITNESS]
        tracer = self

        def run(config, fitness):
            penalty = tracer._model.infeasible_penalty
            ceiling = resolve_target_ceiling(tracer._model)
            evals = feasible = rejects = 0
            first = 0

            def traced_fitness(position):
                nonlocal evals, feasible, rejects, first
                sid = tracer._open(fitness_id)
                try:
                    value = fitness(position)
                finally:
                    tracer._close(sid)
                evals += 1
                if value < penalty:
                    feasible += 1
                    if not first:
                        first = evals
                elif position[0] + position[1] + position[2] + position[3] + position[4] > ceiling:
                    rejects += 1
                return value

            sid = tracer._open(run_id)
            try:
                result = fn(config, traced_fitness)
            finally:
                tracer._close(sid)
            counters = tracer.counters
            counters["evals"] += evals
            counters["feasible_evals"] += feasible
            counters["ceiling_rejects"] += rejects
            counters["generations"] += len(result.history)
            if first:
                counters["first_feasible"].append(first)
            history = result.history
            last = max(
                (g for g in range(1, len(history)) if history[g] < history[g - 1]),
                default=0,
            )
            counters["last_improvement"].append(last)
            return result

        return run

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        special = {
            "archive.load_archive": self._wrap_load,
            "preference.predict": self._wrap_predict,
            "pso.run": self._wrap_run,
        }
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            make = special.get(name)
            wrapped = make(original) if make else self._wrap(name, original)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- per-call reduction ------------------------------------------------

    def begin_call(self) -> None:
        self.call_id += 1
        self._reset()

    def end_call(self) -> dict[str, float]:
        """Per-layer metrics of the call just finished; keeps its spans."""
        spans = {
            "name": np.asarray(self._name, dtype=np.int16),
            "parent": np.asarray(self._parent, dtype=np.int32),
            "start": np.asarray(self._start, dtype=np.float64),
            "end": np.asarray(self._end, dtype=np.float64),
        }
        spans["call"] = np.full(spans["name"].size, self.call_id, dtype=np.int32)
        if self._kept_count + spans["name"].size <= MAX_SPANS:
            self._kept.append(spans)
            self._kept_count += spans["name"].size
        return summarize(spans, self.counters)

    def save(self, path: Path) -> int:
        """Write every kept span to ``path`` (``.npz``); returns the count."""
        columns = ("name", "parent", "start", "end", "call")
        merged = {
            c: np.concatenate([k[c] for k in self._kept]) if self._kept else np.empty(0)
            for c in columns
        }
        np.savez(path, names=np.asarray(SPAN_NAMES), **merged)
        return self._kept_count


def summarize(spans: dict[str, np.ndarray], counters: dict) -> dict[str, float]:
    """Self and inclusive times, counts and ratios of one CLI call."""
    n_names = len(SPAN_NAMES)
    names, parents = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    child = parents >= 0
    covered = np.bincount(parents[child], weights=duration[child], minlength=names.size)
    own = duration - covered
    count = np.bincount(names, minlength=n_names)
    inclusive = np.bincount(names, weights=duration, minlength=n_names)
    self_time = np.bincount(names, weights=own, minlength=n_names)

    def incl(name: str) -> float:
        return float(inclusive[_IDS[name]])

    def calls(name: str) -> int:
        return int(count[_IDS[name]])

    evals = counters["evals"]
    per_eval = 1e6 / evals if evals else 0.0
    metrics = {
        f"{layer}.self_s": float(
            sum(self_time[i] for name, i in _IDS.items() if name.startswith(layer + "."))
        )
        for layer in LAYERS
    }
    metrics.update({
        "preference.fitness_us": incl(FITNESS) * per_eval,
        "stats.pearson_s": incl("stats.pearson"),
        "stats.pearson_calls": calls("stats.pearson"),
        "preference.feasible_eval_share": counters["feasible_evals"] / evals if evals else 0.0,
        "preference.ceiling_reject_share": counters["ceiling_rejects"] / evals if evals else 0.0,
        "pso.step_us": float(self_time[_IDS["pso.run"]]) * per_eval,
        "pso.evals": evals,
        "pso.generations": counters["generations"],
        "pso.first_feasible_eval": _mean(counters["first_feasible"]),
        "pso.last_improvement_gen": _mean(counters["last_improvement"]),
        "archive.load_s": incl("archive.load_archive"),
        "archive.rows_read": counters["rows_read"],
        "archive.rows_skipped": counters["rows_skipped"],
        "archive.select_s": incl("archive.select_group"),
        "timekit.parse_calls": calls("timekit.parse_duration"),
        "timekit.parse_s": incl("timekit.parse_duration"),
        "archive.synth_s": incl("archive.synthesize_archive"),
        "archive.extend_calls": calls("archive.extend_archive"),
        "experiment.resolve_s": incl("experiment.resolve_archive"),
        "experiment.render_s": incl("experiment.emit_report"),
        "timekit.format_calls": calls("timekit.format_split"),
    })
    return metrics


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0
