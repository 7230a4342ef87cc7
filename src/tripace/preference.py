"""Split-time preference model: bounds, target ceiling, fitness, predictor.

A candidate plan is a five-component split vector (swim, T1, bike, T2, run)
in minutes.  The optimizer hunts for the plan whose total comes closest to a
target ceiling from below, among plans that *tighten* the correlation
structure of a reference archive: appending the plan to the archive must
raise the sum of its swim-bike and bike-run correlations.

Two objectives are provided.  :func:`preference_fitness` is the operational
one: feasible candidates score ``ceiling - total`` (smaller is better, so
totals are pushed up toward the ceiling) and everything else scores a flat
infeasibility penalty.  :func:`fitness_literal` scores feasible candidates
by their raw total instead and applies no ceiling gate; minimizing it drags
plans toward the lower bounds, which is rarely what a race plan wants, but
it is kept for comparison experiments.

:func:`preference_fitness` is the composed definition: it builds the
extended archive and runs the two-pass correlations over its n + 1 rows, an
O(n) cost.  The swarm instead evaluates :func:`_position_fitness`, which
computes the archive's means and centred sums once per run and updates them
in closed form for each candidate (Welford 1962; Chan, Golub & LeVeque
1983), so an evaluation costs O(1) whatever the archive size.  The two
round differently by about 1e-15 in the correlation sum and return the same
value on the positions real swarm runs visit, which the tests check; the
composed path stays the reference, and computes the correlations the
reports print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Callable

import numpy as np

from .archive import Archive, extend_archive
from .pso import PsoConfig, run
from .stats import (  # noqa: F401  -- pearson stays a module attribute for span tracers
    CorrelationPair,
    CorrelationUndefinedError,
    appended_pearson,
    archive_correlation,
    pearson,
)

DISCIPLINES = ("swim", "t1", "bike", "t2", "run")

DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "swim": (25.0, 50.0),
    "t1": (2.0, 5.0),
    "bike": (140.0, 180.0),
    "t2": (2.0, 5.0),
    "run": (85.0, 120.0),
}

# A personal-best-derived ceiling aims five percent under the best prior time.
PERSONAL_BEST_IMPROVEMENT = 0.05

TARGET_POLICIES = ("explicit", "from_personal_best")


class NoFeasibleSolutionError(RuntimeError):
    """Every evaluated candidate was infeasible within the budget."""


@dataclass(frozen=True)
class SplitVector:
    """One candidate or predicted split assignment, minutes per discipline."""

    swim: float
    t1: float
    bike: float
    t2: float
    run: float

    def total(self) -> float:
        return self.swim + self.t1 + self.bike + self.t2 + self.run

    def as_array(self) -> np.ndarray:
        return np.array([self.swim, self.t1, self.bike, self.t2, self.run])

    @classmethod
    def from_array(cls, values: np.ndarray) -> SplitVector:
        if len(values) != 5:
            raise ValueError(f"expected 5 components, got {len(values)}")
        return cls(*(float(v) for v in values))


def _finite_pair(name: str, pair: object) -> tuple[float, float]:
    """A bound as a tuple or list of two finite numbers; anything else raises."""
    if isinstance(pair, (tuple, list)) and len(pair) == 2:
        if all(isinstance(v, Real) and not isinstance(v, bool) for v in pair):
            try:
                if math.isfinite(pair[0]) and math.isfinite(pair[1]):
                    return pair[0], pair[1]
            except OverflowError:  # an integer too large for a float
                pass
    raise ValueError(
        f"bounds for {name!r} must be a [low, high] pair of finite numbers, got {pair!r}"
    )


@dataclass(frozen=True)
class ModelConfig:
    """Feasible box, target ceiling policy, and the infeasibility penalty.

    The target ceiling must be reachable inside the box (between the sums of
    the lower and upper bounds), otherwise no plan can ever be feasible and
    construction fails outright.
    """

    bounds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_BOUNDS)
    )
    target_ceiling: float | None = 300.0
    target_policy: str = "explicit"
    personal_best: float | None = None
    infeasible_penalty: float = 1e6

    def __post_init__(self) -> None:
        if self.target_policy not in TARGET_POLICIES:
            raise ValueError(f"unknown target policy {self.target_policy!r}")
        if not isinstance(self.bounds, dict) or set(self.bounds) != set(DISCIPLINES):
            raise ValueError(f"bounds must be a dict covering exactly {DISCIPLINES}")
        for name in DISCIPLINES:
            low, high = _finite_pair(name, self.bounds[name])
            if not 0.0 < low < high:
                raise ValueError(f"bad bound for {name!r}: [{low}, {high}]")
        ceiling = resolve_target_ceiling(self)
        floor_sum = sum(self.bounds[n][0] for n in DISCIPLINES)
        roof_sum = sum(self.bounds[n][1] for n in DISCIPLINES)
        if not floor_sum <= ceiling <= roof_sum:
            raise ValueError(
                f"target ceiling {ceiling} outside the reachable range "
                f"[{floor_sum}, {roof_sum}]: the feasible set is empty"
            )
        if self.infeasible_penalty <= roof_sum:
            raise ValueError(
                f"infeasible penalty {self.infeasible_penalty} must exceed the "
                f"largest possible total {roof_sum}"
            )

    def lower_bounds(self) -> tuple[float, ...]:
        return tuple(self.bounds[n][0] for n in DISCIPLINES)

    def upper_bounds(self) -> tuple[float, ...]:
        return tuple(self.bounds[n][1] for n in DISCIPLINES)

    def contains(self, x: SplitVector) -> bool:
        return all(
            self.bounds[n][0] <= getattr(x, n) <= self.bounds[n][1] for n in DISCIPLINES
        )


@dataclass(frozen=True)
class PredictionResult:
    splits: SplitVector
    total: float
    correlation_before: float
    correlation_after: float


def resolve_target_ceiling(cfg: ModelConfig) -> float:
    """Effective target ceiling in minutes under the configured policy."""
    if cfg.target_policy == "explicit":
        if cfg.target_ceiling is None:
            raise ValueError("explicit target policy requires target_ceiling")
        return cfg.target_ceiling
    if cfg.personal_best is None:
        raise ValueError("from_personal_best target policy requires personal_best")
    return (1.0 - PERSONAL_BEST_IMPROVEMENT) * cfg.personal_best


def total_time(x: SplitVector) -> float:
    """Overall time of a plan: the plain sum of its five components."""
    return x.total()


def improvement_time(x: SplitVector, cfg: ModelConfig) -> float:
    """Signed gap to the target ceiling for plans that overshoot it.

    Returns ``ceiling - total`` (negative) when the total exceeds the
    ceiling, and the infeasibility penalty otherwise.  This is the raw
    ceiling-gap rule kept for reference; the operational objective in
    :func:`preference_fitness` uses the gap on the *feasible* side instead.
    """
    ceiling = resolve_target_ceiling(cfg)
    total = total_time(x)
    if ceiling < total:
        return ceiling - total
    return cfg.infeasible_penalty


def preference_fitness(
    x: SplitVector, base: Archive, cfg: ModelConfig, base_correlation: CorrelationPair
) -> float:
    """Operational objective, to be minimized.

    A candidate is feasible when its total stays at or under the target
    ceiling *and* appending it to the archive strictly raises the archive's
    correlation sum.  Feasible candidates score ``ceiling - total``, so the
    best plans exhaust the ceiling from below; everything else (including
    candidates that leave the extended correlation undefined) scores the
    flat infeasibility penalty.  ``base_correlation`` is the precomputed
    correlation pair of ``base``, constant across one optimizer run.
    """
    ceiling = resolve_target_ceiling(cfg)
    total = total_time(x)
    if total > ceiling:
        return cfg.infeasible_penalty
    try:
        extended = archive_correlation(extend_archive(base, x)).sum
    except CorrelationUndefinedError:
        return cfg.infeasible_penalty
    if extended <= base_correlation.sum:
        return cfg.infeasible_penalty
    return ceiling - total


def fitness_literal(
    x: SplitVector, base: Archive, cfg: ModelConfig, base_correlation: CorrelationPair
) -> float:
    """Raw-total variant of the objective, for comparison experiments.

    Scores a correlation-tightening candidate by its plain total and
    everything else by the infeasibility penalty; there is no ceiling gate,
    so minimizing this walks plans down toward the lower bounds.  Agrees
    with :func:`preference_fitness` on which correlation-degrading
    candidates are infeasible.
    """
    try:
        extended = archive_correlation(extend_archive(base, x)).sum
    except CorrelationUndefinedError:
        return cfg.infeasible_penalty
    if extended <= base_correlation.sum:
        return cfg.infeasible_penalty
    return total_time(x)


def _position_fitness(
    base: Archive, cfg: ModelConfig, base_correlation: CorrelationPair
) -> Callable[[tuple[float, ...]], float]:
    """Optimizer-facing closure computing :func:`preference_fitness` in O(1).

    The archive is fixed for a whole run, so the swim-bike and bike-run
    correlations of the archive with one candidate row appended come from
    :func:`~tripace.stats.appended_pearson`: the column means and centred
    sums are computed once per run, and each call updates them in closed
    form.  A call costs a few dozen float operations whatever the archive
    size, where the composed path rebuilds the archive and runs two O(n)
    two-pass correlations over n + 1 rows.

    The gate order, the ``<=`` comparison with the base sum and the
    returned values are those of :func:`preference_fitness`, and a zero
    extended variance scores the penalty there and here.  The closed form
    rounds differently from the two-pass correlation, within about 1e-15,
    which would flip the ``<=`` only for a candidate whose appended sum
    ties the base sum that closely; on every position real swarm runs
    visit, the two paths return the same value, and the test suite checks
    that on several archives and seeds.
    """
    ceiling = resolve_target_ceiling(cfg)
    penalty = cfg.infeasible_penalty
    base_sum = base_correlation.sum
    bike = base.bike_column()
    swim_bike = appended_pearson(base.swim_column(), bike)
    bike_run = appended_pearson(bike, base.run_column())

    def fitness(position: tuple[float, ...]) -> float:
        x_swim, x_t1, x_bike, x_t2, x_run = position
        total = x_swim + x_t1 + x_bike + x_t2 + x_run
        if total > ceiling:
            return penalty
        try:
            extended = swim_bike(x_swim, x_bike) + bike_run(x_bike, x_run)
        except CorrelationUndefinedError:
            return penalty
        if extended <= base_sum:
            return penalty
        return ceiling - total

    return fitness


def predict(base: Archive, cfg: ModelConfig, pso_cfg: PsoConfig) -> PredictionResult:
    """Best split plan for the archive under the configured ceiling.

    Runs the swarm optimizer with the box bounds taken from ``cfg`` and the
    operational objective.  The returned plan always satisfies the box, its
    total never exceeds the ceiling, and appending it raises the archive's
    correlation sum.  Raises :class:`NoFeasibleSolutionError` when every
    candidate in the budget scored the infeasibility penalty, which signals
    an over-tight ceiling or an archive the target cannot correlate with.
    """
    base_pair = archive_correlation(base)
    effective = replace(
        pso_cfg,
        dimension=len(DISCIPLINES),
        lower=cfg.lower_bounds(),
        upper=cfg.upper_bounds(),
    )
    result = run(effective, _position_fitness(base, cfg, base_pair))
    if result.best_value >= cfg.infeasible_penalty:
        raise NoFeasibleSolutionError(
            f"no feasible plan in {result.evaluations_used} evaluations "
            f"(ceiling {resolve_target_ceiling(cfg)}, archive correlation "
            f"sum {base_pair.sum:.4f})"
        )
    splits = SplitVector.from_array(result.best_position)
    after = archive_correlation(extend_archive(base, splits))
    return PredictionResult(
        splits=splits,
        total=total_time(splits),
        correlation_before=base_pair.sum,
        correlation_after=after.sum,
    )
