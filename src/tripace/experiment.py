"""Multi-run prediction experiments and report rendering.

An experiment resolves one archive (from a result file or the synthetic
generator) and runs a configured number of independent predictions with
per-run seeds ``base_seed + run_index``.  Each run's outcome holds its
prediction as it came back, or the reason it has none.  A report row is
the five splits and their total in minutes (:attr:`RunOutcome.minutes`),
the feasible runs are aggregated column by column into mean and
sample-standard-deviation rows, and every renderer formats a row through
:func:`~tripace.timekit.format_split`.  Rendering is deterministic: the
same config always yields byte-identical output.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .archive import (
    DISCIPLINES,
    MIN_ARCHIVE_SIZE,
    Archive,
    SplitVector,
    extend_archive,
    load_archive,
    select_group,
    synthesize_archive,
)
from .preference import ModelConfig, NoFeasibleSolutionError, PredictionResult, predict
from .pso import PsoConfig, integer_setting
from .stats import archive_correlation
from .timekit import format_split

OUTPUT_FORMATS = ("text", "csv", "json")

SPLIT_HEADERS = ("Swimming", "T1", "Cycling", "T2", "Running")

_SYNTH_KEYS = inspect.signature(synthesize_archive).parameters


class ExperimentError(RuntimeError):
    """The experiment produced no usable result (e.g. every run infeasible)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; no hidden state, fully seeds itself."""

    archive_path: str | None = None
    archive_format: str = "auto"
    synth_spec: dict | None = None
    group: str | None = None
    top_n: int = 30
    runs: int = 5
    base_seed: int = 0
    swarm_size: int = 50
    max_evaluations: int = 10_000
    c1: float = 2.0
    c2: float = 2.0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self) -> None:
        if (self.archive_path is None) == (self.synth_spec is None):
            raise ValueError("exactly one of archive_path and synth_spec must be set")
        if self.archive_path is not None and self.group is None:
            raise ValueError("group is required when loading an archive file")
        for name in ("top_n", "runs", "base_seed"):
            object.__setattr__(self, name, integer_setting(name, getattr(self, name)))
        if self.top_n < MIN_ARCHIVE_SIZE:
            raise ValueError(f"top_n must be at least {MIN_ARCHIVE_SIZE}, got {self.top_n}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.base_seed < -1:
            raise ValueError(
                "base_seed must be at least -1, as run i uses seed base_seed + i, "
                f"got {self.base_seed}"
            )
        self.pso_config(1)  # the swarm settings fail here, before any work
        if self.swarm_size < 2:  # a lone particle starts at both bests and never moves
            raise ValueError(f"swarm_size must be at least 2, got {self.swarm_size}")

    def pso_config(self, index: int) -> PsoConfig:
        """Swarm settings of run ``index`` (1-based), seeded ``base_seed + index``."""
        return PsoConfig(
            swarm_size=self.swarm_size,
            lower=self.model.lower_bounds(),
            upper=self.model.upper_bounds(),
            c1=self.c1,
            c2=self.c2,
            max_evaluations=self.max_evaluations,
            rng_seed=self.base_seed + index,
        )


@dataclass(frozen=True)
class RunOutcome:
    """One prediction run: its prediction, or the reason it has none."""

    index: int
    seed: int
    prediction: PredictionResult | None
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.error is None

    @property
    def minutes(self) -> tuple[float, ...]:
        """The report row of a feasible run: the five splits and their total."""
        splits = self.prediction.splits
        return (*splits, splits.total())


@dataclass(frozen=True)
class ExperimentReport:
    archive_label: str
    archive_group: str
    archive_size: int
    archive_correlation_sum: float
    per_run: tuple[RunOutcome, ...]
    mean_row: tuple[float, ...]
    stdev_row: tuple[float, ...]


def synthesize_from_spec(spec: dict) -> Archive:
    """Build a synthetic archive from a plain-dict description whose keys are
    the parameters of :func:`~tripace.archive.synthesize_archive`.

    Required: seed, size, r_swim_bike, r_bike_run, means, spreads.
    Optional: label, group, tolerance, max_tries.
    """
    unknown = set(spec) - set(_SYNTH_KEYS)
    if unknown:
        raise ValueError(f"unknown synthesis spec key(s): {sorted(unknown)}")
    missing = {k for k, p in _SYNTH_KEYS.items() if p.default is p.empty} - set(spec)
    if missing:
        raise ValueError(f"synthesis spec missing key(s): {sorted(missing)}")
    return synthesize_archive(**spec)


def resolve_archive(cfg: ExperimentConfig) -> Archive:
    """Materialize the experiment's archive from file or synthesis spec."""
    if cfg.synth_spec is not None:
        return synthesize_from_spec(cfg.synth_spec)
    rows, skipped = load_archive(cfg.archive_path, cfg.archive_format)
    if skipped:
        print(f"skipped {len(skipped)} row(s) while loading:", file=sys.stderr)
        for message in skipped:
            print(f"  {message}", file=sys.stderr)
    label = Path(cfg.archive_path).stem
    return select_group(rows, cfg.group, cfg.top_n, label=label)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the configured number of independent predictions and aggregate.

    Run ``i`` (1-based) uses seed ``base_seed + i``, so any single run can be
    reproduced in isolation.  Infeasible runs are recorded and excluded from
    the mean/stdev rows; if every run is infeasible the experiment fails
    with :class:`ExperimentError`.  The correlation constraint is not convex,
    so the mean of feasible plans can break it: when appending the Mean row
    does not raise the archive's correlation sum, a line on stderr says so,
    with the two sums printed to as many decimals as tell them apart.
    """
    archive = resolve_archive(cfg)
    base_sum = archive_correlation(archive).sum

    outcomes: list[RunOutcome] = []
    for index in range(1, cfg.runs + 1):
        pso_cfg = cfg.pso_config(index)
        try:
            outcome = RunOutcome(index, pso_cfg.rng_seed, predict(archive, cfg.model, pso_cfg))
        except NoFeasibleSolutionError as exc:
            outcome = RunOutcome(index, pso_cfg.rng_seed, None, str(exc))
        outcomes.append(outcome)

    feasible = [o for o in outcomes if o.feasible]
    if not feasible:
        raise ExperimentError(f"all {cfg.runs} run(s) infeasible")
    mean_row, stdev_row = _aggregate(feasible)
    mean_sum = archive_correlation(extend_archive(archive, SplitVector(*mean_row[:5]))).sum
    if mean_sum <= base_sum:
        before, after = _told_apart(base_sum, mean_sum)
        print(f"Mean row infeasible: correlation sum {before} -> {after}", file=sys.stderr)
    return ExperimentReport(
        archive_label=archive.label,
        archive_group=archive.group,
        archive_size=len(archive),
        archive_correlation_sum=base_sum,
        per_run=tuple(outcomes),
        mean_row=mean_row,
        stdev_row=stdev_row,
    )


def _told_apart(a: float, b: float) -> tuple[str, str]:
    """``a`` and ``b`` with the fewest decimals, from 6 up to 17, that tell
    them apart; with 6 when none does."""
    for decimals in range(6, 18):
        pair = (f"{a:.{decimals}f}", f"{b:.{decimals}f}")
        if pair[0] != pair[1]:
            return pair
    return f"{a:.6f}", f"{b:.6f}"


def _aggregate(
    feasible: Sequence[RunOutcome],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    columns = list(zip(*(o.minutes for o in feasible)))
    means = tuple(statistics.fmean(col) for col in columns)
    if len(feasible) > 1:
        stdevs = tuple(statistics.stdev(col) for col in columns)
    else:
        stdevs = (0.0,) * 6
    return means, stdevs


def emit_report(report: ExperimentReport, format: str) -> str:
    """Render a report as a text table, CSV, or JSON document.

    The text table carries the familiar race-report columns plus Mean and
    Stdev rows; CSV and JSON additionally carry the full-precision minute
    values and the before/after correlation sums of each run; the sum
    before is the archive's own, the same for every run.
    """
    if format == "text":
        return _emit_text(report)
    if format == "csv":
        return _emit_csv(report)
    if format == "json":
        return _emit_json(report)
    raise ValueError(f"unknown output format {format!r}")


def _emit_text(report: ExperimentReport) -> str:
    lines = [
        f"Archive {report.archive_label} group {report.archive_group} "
        f"(n={report.archive_size}, correlation sum {report.archive_correlation_sum:.4f})",
        " | ".join(("Run",) + SPLIT_HEADERS + ("Total",)),
    ]
    for outcome in report.per_run:
        if outcome.feasible:
            cells = [format_split(v) for v in outcome.minutes]
            lines.append(" | ".join([str(outcome.index)] + cells))
        else:
            lines.append(f"{outcome.index} | infeasible")
    lines.append(" | ".join(["Mean"] + [format_split(v) for v in report.mean_row]))
    lines.append(" | ".join(["Stdev"] + [format_split(v) for v in report.stdev_row]))
    for outcome in report.per_run:
        if outcome.feasible:
            lines.append(
                f"run {outcome.index}: correlation sum "
                f"{report.archive_correlation_sum:.6f} -> {outcome.prediction.correlation_after:.6f}"
            )
        else:
            lines.append(f"run {outcome.index}: {outcome.error}")
    return "\n".join(lines) + "\n"


def _emit_csv(report: ExperimentReport) -> str:
    r_before = repr(report.archive_correlation_sum)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["row"]
        + [f"{name}_min" for name in DISCIPLINES]
        + ["total_min"]
        + list(DISCIPLINES)
        + ["total", "r_before", "r_after", "status"]
    )
    for outcome in report.per_run:
        if outcome.feasible:
            minutes = outcome.minutes
            writer.writerow(
                [outcome.index]
                + [repr(v) for v in minutes]
                + [format_split(v) for v in minutes]
                + [r_before, repr(outcome.prediction.correlation_after), "ok"]
            )
        else:
            writer.writerow([outcome.index] + [""] * 12 + [r_before, "", "infeasible"])
    for label, row in (("mean", report.mean_row), ("stdev", report.stdev_row)):
        writer.writerow(
            [label]
            + [repr(v) for v in row]
            + [format_split(v) for v in row]
            + ["", "", ""]
        )
    return buf.getvalue()


def _emit_json(report: ExperimentReport) -> str:
    def run_payload(outcome: RunOutcome) -> dict:
        payload: dict = {"run": outcome.index, "seed": outcome.seed}
        if outcome.feasible:
            payload.update(row_payload(outcome.minutes))
            payload["r_before"] = report.archive_correlation_sum
            payload["r_after"] = outcome.prediction.correlation_after
        else:
            payload["error"] = outcome.error
        return payload

    def row_payload(row: tuple[float, ...]) -> dict:
        return {
            "splits_min": dict(zip(DISCIPLINES, row[:5])),
            "splits": {n: format_split(v) for n, v in zip(DISCIPLINES, row[:5])},
            "total_min": row[5],
            "total": format_split(row[5]),
        }

    document = {
        "archive": {
            "label": report.archive_label,
            "group": report.archive_group,
            "size": report.archive_size,
            "correlation_sum": report.archive_correlation_sum,
        },
        "runs": [run_payload(o) for o in report.per_run],
        "mean": row_payload(report.mean_row),
        "stdev": row_payload(report.stdev_row),
    }
    return json.dumps(document, indent=2) + "\n"
