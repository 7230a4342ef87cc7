"""Independent oracles used by the test suite.

These deliberately avoid the package's own numeric paths: plain-Python
accumulation for the correlation coefficient, a componentwise loop for
the swarm step, a numpy whole-run swarm engine, the objective composed
from the extended archive, and a loader that parses one row at a time into
one record each, with the row rules transcribed on the record, so agreement
checks actually compare two routes.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tripace.archive import (
    CSV_COLUMNS,
    TIME_COLUMNS,
    Archive,
    ArchiveError,
    ResultRows,
    _check_columns,
    extend_archive,
)
from tripace.preference import ModelConfig, SplitVector
from tripace.pso import PsoResult
from tripace.stats import CorrelationPair, CorrelationUndefinedError, archive_correlation
from tripace.timekit import DurationParseError


def oracle_pearson(x, y) -> float:
    """Two-pass correlation transcription with plain sequential sums."""
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    den_x = sum((a - mean_x) ** 2 for a in x)
    den_y = sum((b - mean_y) ** 2 for b in y)
    return num / math.sqrt(den_x * den_y)


def oracle_step(x, v, pbest, gbest, c1, c2, u1, u2, lower, upper):
    """Hand transcription of the velocity/position update plus bound repair.

    Returns (position, velocity) as plain lists.  Clamps out-of-bounds
    position components and zeroes the velocity component that violated.
    """
    d = len(x)
    new_v = [v[j] + (c1 * u1) * (pbest[j] - x[j]) + (c2 * u2) * (gbest[j] - x[j]) for j in range(d)]
    new_x = [x[j] + new_v[j] for j in range(d)]
    for j in range(d):
        if new_x[j] < lower[j]:
            new_x[j] = lower[j]
            new_v[j] = 0.0
        elif new_x[j] > upper[j]:
            new_x[j] = upper[j]
            new_v[j] = 0.0
    return new_x, new_v


def preference_fitness(
    x: SplitVector, base: Archive, cfg: ModelConfig, base_correlation: CorrelationPair
) -> float:
    """The predictor's objective by its definition, to be minimized.

    A candidate is feasible when its total stays at or under the target
    ceiling *and* appending it to the archive strictly raises the archive's
    correlation sum.  Feasible candidates score ``ceiling - total``;
    everything else (including candidates that leave the extended
    correlation undefined) scores the flat infeasibility penalty.  This
    builds the extended archive and runs the two-pass correlations over its
    n + 1 rows, the O(n) route that ``tripace.preference._position_fitness``
    replaces with closed-form updates.
    """
    total = x.total()
    if total > cfg.target_ceiling:
        return cfg.infeasible_penalty
    try:
        extended = archive_correlation(extend_archive(base, x)).sum
    except CorrelationUndefinedError:
        return cfg.infeasible_penalty
    if extended <= base_correlation.sum:
        return cfg.infeasible_penalty
    return cfg.target_ceiling - total


# ---------------------------------------------------------------------------
# Reference swarm engine: the numpy formulation the package shipped before
# its scalar engine, frozen here as an oracle for ``tripace.pso.run``.  It
# draws one length-D vector per particle at initialisation and u1, u2 per
# move, allocates a fresh particle per move, and passes fitness an ndarray.


@dataclass
class _Particle:
    position: np.ndarray
    velocity: np.ndarray
    personal_best_position: np.ndarray
    personal_best_value: float


def _reference_evaluate(fitness, position: np.ndarray) -> float:
    value = float(fitness(position))
    return value if math.isfinite(value) else math.inf


def _reference_step(particle: _Particle, global_best, c1, c2, lower, upper, rng) -> _Particle:
    u1 = rng.random()
    u2 = rng.random()
    velocity = (
        particle.velocity
        + c1 * u1 * (particle.personal_best_position - particle.position)
        + c2 * u2 * (global_best - particle.position)
    )
    position = particle.position + velocity
    below = position < lower
    above = position > upper
    if below.any() or above.any():
        position = np.where(below, lower, np.where(above, upper, position))
        velocity = np.where(below | above, 0.0, velocity)
    return _Particle(
        position=position,
        velocity=velocity,
        personal_best_position=particle.personal_best_position,
        personal_best_value=particle.personal_best_value,
    )


def reference_run(config, fitness) -> PsoResult:
    """The pre-scalar swarm engine; same contract as ``tripace.pso.run``."""
    rng = np.random.default_rng(config.rng_seed)
    lower = np.asarray(config.lower, dtype=float)
    upper = np.asarray(config.upper, dtype=float)
    dimension = len(lower)

    particles: list[_Particle] = []
    best_position = None
    best_value = math.inf
    for _ in range(config.swarm_size):
        position = lower + rng.random(dimension) * (upper - lower)
        value = _reference_evaluate(fitness, position)
        particles.append(
            _Particle(position, np.zeros(dimension), position.copy(), value)
        )
        if value <= best_value and math.isfinite(value):
            best_position = position.copy()
            best_value = value
    if best_position is None:
        best_position = particles[0].position.copy()
    used = config.swarm_size
    history = [best_value]

    while used < config.max_evaluations:
        for particle in particles:
            if used >= config.max_evaluations:
                break
            moved = _reference_step(
                particle, best_position, config.c1, config.c2, lower, upper, rng
            )
            particle.position = moved.position
            particle.velocity = moved.velocity
            value = _reference_evaluate(fitness, particle.position)
            used += 1
            if math.isfinite(value):
                if value <= particle.personal_best_value:
                    particle.personal_best_position = particle.position.copy()
                    particle.personal_best_value = value
                if value <= best_value:
                    best_position = particle.position.copy()
                    best_value = value
        history.append(best_value)

    return PsoResult(
        best_position=best_position.copy(),
        best_value=best_value,
        evaluations_used=used,
        history=history,
    )


# ---------------------------------------------------------------------------
# Reference loader: the per-row loader the package shipped before it loaded
# result files by column, frozen here as an oracle for ``load_archive``.  Each
# row becomes a dict, each time cell goes through its own parse with one
# regex per grammar, and each kept row is one ReferenceRecord, which checks
# the row rules itself, written out here rather than taken from the package.

# the largest place of a result file, and the slack between a row's overall
# and its split sum, in minutes
_MAX_PLACE = 2**62
_OVERALL_SLACK = 0.05


@dataclass(frozen=True)
class ReferenceRecord:
    """One athlete's race row, as the per-row loader kept it; times in minutes."""

    athlete_name: str
    nation: str
    category: str
    finish_place: int
    swim: float
    t1: float
    bike: float
    t2: float
    run: float
    overall: float

    def __post_init__(self) -> None:
        if self.finish_place < 1:
            raise ArchiveError(f"finish place must be positive, got {self.finish_place}")
        if self.finish_place > _MAX_PLACE:
            raise ArchiveError(
                f"finish place must be at most {_MAX_PLACE}, got {self.finish_place}"
            )
        for name in ("swim", "t1", "bike", "t2", "run"):
            if not getattr(self, name) > 0.0:
                raise ArchiveError(f"split {name!r} must be strictly positive")
        split_sum = self.swim + self.t1 + self.bike + self.t2 + self.run
        # written so a NaN difference (infinite overall and split sum) fails
        if not abs(self.overall - split_sum) <= _OVERALL_SLACK:
            raise ArchiveError(
                f"overall {self.overall:.4f} differs from split sum "
                f"{split_sum:.4f} by more than {_OVERALL_SLACK} min"
            )

_HMS_RE = re.compile(r"^(\d+):(\d{2}):(\d{2}(?:\.\d+)?)$")
_MS_RE = re.compile(r"^(\d{1,2}):(\d{2}(?:\.\d+)?)$")
_DECIMAL_RE = re.compile(r"^\d+(?:\.\d+)?$")


def reference_parse_duration(text: str) -> float:
    """``parse_duration`` as it was written before its grammars shared one regex."""
    stripped = text.strip()
    if not stripped:
        raise DurationParseError("empty time string")
    if stripped.startswith("-"):
        raise DurationParseError(f"negative component in {text!r}")
    colons = stripped.count(":")
    if colons == 2:
        m = _HMS_RE.match(stripped)
        if m is None:
            raise DurationParseError(f"not an h:mm:ss[.ss] time: {text!r}")
        hours, minutes, seconds = float(m.group(1)), int(m.group(2)), float(m.group(3))
        if minutes >= 60:
            raise DurationParseError(f"minutes field {minutes} out of range in {text!r}")
        if seconds >= 60.0:
            raise DurationParseError(f"seconds field {m.group(3)} out of range in {text!r}")
        total = hours * 60.0 + minutes + seconds / 60.0
    elif colons == 1:
        m = _MS_RE.match(stripped)
        if m is None:
            raise DurationParseError(f"not an m:ss[.ss] time: {text!r}")
        minutes, seconds = int(m.group(1)), float(m.group(2))
        if minutes >= 60:
            raise DurationParseError(f"minutes field {minutes} out of range in {text!r}")
        if seconds >= 60.0:
            raise DurationParseError(f"seconds field {m.group(2)} out of range in {text!r}")
        total = minutes + seconds / 60.0
    elif colons:
        raise DurationParseError(f"too many fields in {text!r}")
    elif _DECIMAL_RE.match(stripped) is None:
        raise DurationParseError(f"not a decimal-minutes value: {text!r}")
    else:
        total = float(stripped)
    if not math.isfinite(total):
        raise DurationParseError(f"time too large for a float: {text!r}")
    return total


def _reference_record(row: dict | ArchiveError) -> ReferenceRecord:
    if isinstance(row, ArchiveError):
        raise row
    if None in row:
        raise ArchiveError(f"{len(row[None])} field(s) beyond the header's columns")
    if len(row) < len(CSV_COLUMNS):
        missing = [key for key in CSV_COLUMNS if key not in row]
        raise ArchiveError(f"row too short: no value for column(s) {missing}")
    times = []
    for key in TIME_COLUMNS:
        try:
            times.append(reference_parse_duration(row[key]))
        except DurationParseError as exc:
            raise ArchiveError(f"column {key!r}: {exc}") from exc
    try:
        place = int(row["place"])
    except ValueError as exc:
        raise ArchiveError(f"column 'place': not an integer: {row['place']!r}") from exc
    return ReferenceRecord(row["name"], row["nation"], row["category"], place, *times)


def _reference_csv_rows(path: Path):
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ArchiveError(f"{path}: header: {exc}") from exc
        if header is None:
            raise ArchiveError(f"{path}: missing header row")
        _check_columns(header, path)
        width = len(header)
        while True:
            try:
                fields = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                yield reader.line_num, ArchiveError(str(exc))
                continue
            if any(f.strip() for f in fields):
                row = dict(zip(header, fields))
                if len(fields) > width:
                    row[None] = fields[width:]
                yield reader.line_num, row


def _reference_json_rows(path: Path):
    with path.open(encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ArchiveError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(payload, list):
        raise ArchiveError(f"{path}: expected a JSON array of result objects")
    for i, entry in enumerate(payload, start=1):
        if not isinstance(entry, dict):
            raise ArchiveError(f"{path}: entry {i} is not a result object: {entry!r}")
        _check_columns(entry.keys(), path)
        yield i, {k: str(v) for k, v in entry.items()}


def reference_load_archive(
    path, format: str = "auto"
) -> tuple[list[ReferenceRecord], list[str]]:
    """The per-row loader: ``(records, skipped)`` with one record per kept row."""
    p = Path(path)
    if format == "auto":
        format = "json" if p.suffix.lower() == ".json" else "csv"
    if format not in ("csv", "json"):
        raise ValueError(f"unknown archive format {format!r}")
    rows = _reference_json_rows(p) if format == "json" else _reference_csv_rows(p)
    records: list[ReferenceRecord] = []
    skipped: list[str] = []
    try:
        for i, row in rows:
            try:
                records.append(_reference_record(row))
            except ArchiveError as exc:
                skipped.append(f"{p.name} row {i}: {exc}")
    except OSError as exc:
        raise ArchiveError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"{p}: invalid JSON: {exc}") from exc
    if not records:
        raise ArchiveError(f"{p}: zero parseable rows")
    return records, skipped


def reference_write_archive_csv(records, path) -> None:
    """The record-wise writer: one CSV row per record, times as decimal minutes."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [r.athlete_name, r.nation, r.category, r.finish_place]
                + [f"{v:.6f}" for v in (r.swim, r.t1, r.bike, r.t2, r.run, r.overall)]
            )


def rows_from_records(records) -> ResultRows:
    """The columns of ``records``, in their order, as ``load_archive`` returns rows."""
    records = list(records)
    times = [[getattr(r, name) for r in records] for name in TIME_COLUMNS]
    return ResultRows(
        tuple(r.category for r in records),
        np.array([r.finish_place for r in records], dtype=np.int64),
        tuple(r.athlete_name for r in records),
        tuple(r.nation for r in records),
        np.array(times, dtype=np.float64).reshape(6, len(records)),
    )


def archive_from_records(label: str, group: str, records) -> Archive:
    """The archive of ``records`` in their order; their categories are not kept."""
    rows = rows_from_records(records)
    return Archive(label, group, rows.places, rows.names, rows.nations, rows.times)


def assert_same_rows(rows: ResultRows, expected: ResultRows) -> None:
    """Every column of two row sets equal, every time and place element for element."""
    assert len(rows) == len(expected)
    assert rows.categories == expected.categories
    assert rows.names == expected.names
    assert rows.nations == expected.nations
    assert rows.places.dtype == np.int64 and np.array_equal(rows.places, expected.places)
    assert rows.times.dtype == np.float64 and rows.times.shape == (6, len(expected))
    assert np.array_equal(rows.times, expected.times)
