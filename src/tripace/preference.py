"""Split-time preference model: bounds, target ceiling, fitness, predictor.

A candidate plan is a five-component split vector (swim, T1, bike, T2, run)
in minutes.  The optimizer hunts for the plan whose total comes closest to a
target ceiling from below, among plans that *tighten* the correlation
structure of a reference archive: appending the plan to the archive must
raise the sum of its swim-bike and bike-run correlations.  Feasible
candidates score ``ceiling - total`` (smaller is better, so totals are
pushed up toward the ceiling) and everything else scores a flat
infeasibility penalty.

By definition the objective builds the extended archive and runs the
two-pass correlations over its n + 1 rows, an O(n) cost; the test suite
keeps that composed form as its oracle.  The swarm instead evaluates
:func:`_position_fitness`, which computes the archive's means and centred
sums once per run and updates them in closed form for each candidate
(Welford 1962; Chan, Golub & LeVeque 1983) with one call of
:func:`~tripace.stats.appended_correlation_sum`, so an evaluation costs
O(1) whatever the archive size.  The two round differently by about 1e-15 in
the correlation sum and return the same value on the positions real swarm
runs visit, which the tests check; the two-pass correlations still compute
the numbers the reports print.
"""

from __future__ import annotations

import sys
from numbers import Real
from typing import NamedTuple

from .archive import DISCIPLINES, Archive, SplitVector, extend_archive
from .pso import Fitness, Frozen, PsoConfig, finite_number, run
from .stats import (  # noqa: F401  -- pearson stays a module attribute for span tracers
    CorrelationPair,
    CorrelationUndefinedError,
    appended_correlation_sum,
    archive_correlation,
    pearson,
)

DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "swim": (25.0, 50.0),
    "t1": (2.0, 5.0),
    "bike": (140.0, 180.0),
    "t2": (2.0, 5.0),
    "run": (85.0, 120.0),
}


class NoFeasibleSolutionError(RuntimeError):
    """Every evaluated candidate was infeasible within the budget."""


def _finite_pair(name: str, pair: object) -> tuple[float, float]:
    """A bound as a tuple or list of two finite numbers; anything else raises."""
    if isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(finite_number, pair)):
        return pair[0], pair[1]
    raise ValueError(
        f"bounds for {name!r} must be a [low, high] pair of finite numbers, got {pair!r}"
    )


# "bounds not given": None cannot say it, since ModelConfig refuses bounds=None
_DEFAULT = object()


class ModelConfig(Frozen):
    """Feasible box and target ceiling.

    Without ``bounds`` the box is a fresh copy of :data:`DEFAULT_BOUNDS`.
    The target ceiling must be reachable inside the box (between the sums of
    the lower and upper bounds, and at most half the largest float),
    otherwise no plan can ever be feasible and construction fails outright.
    """

    __slots__ = ("bounds", "target_ceiling")

    def __init__(
        self, bounds: dict[str, tuple[float, float]] = _DEFAULT, target_ceiling: float = 300.0
    ) -> None:
        self._set(dict(DEFAULT_BOUNDS) if bounds is _DEFAULT else bounds, target_ceiling)
        if not isinstance(self.bounds, dict) or set(self.bounds) != set(DISCIPLINES):
            raise ValueError(f"bounds must be a dict covering exactly {DISCIPLINES}")
        for name in DISCIPLINES:
            low, high = _finite_pair(name, self.bounds[name])
            if not 0.0 < low < high:
                raise ValueError(f"bad bound for {name!r}: [{low}, {high}]")
        ceiling = self.target_ceiling
        floor_sum = sum(self.bounds[n][0] for n in DISCIPLINES)
        # ceilings above half the largest float count as out of reach, which
        # keeps the infeasibility penalty (twice the ceiling) finite
        cap = sys.float_info.max / 2
        if floor_sum > cap:
            raise ValueError(
                f"lower bounds sum to {floor_sum}, above the largest reachable "
                f"ceiling {cap}: the feasible set is empty"
            )
        roof_sum = min(sum(self.bounds[n][1] for n in DISCIPLINES), cap)
        if not (isinstance(ceiling, Real) and floor_sum <= ceiling <= roof_sum):
            raise ValueError(
                f"target ceiling {ceiling} outside the reachable range "
                f"[{floor_sum}, {roof_sum}]: the feasible set is empty"
            )

    @property
    def infeasible_penalty(self) -> float:
        """The flat score of every infeasible plan: twice the ceiling.

        A feasible plan scores ``ceiling - total`` with a positive total, so
        at most the ceiling, and this finite value lies above all of them.
        The swarm only compares scores, so any such value gives the same run.
        """
        return 2.0 * self.target_ceiling

    def lower_bounds(self) -> tuple[float, ...]:
        return tuple(self.bounds[n][0] for n in DISCIPLINES)

    def upper_bounds(self) -> tuple[float, ...]:
        return tuple(self.bounds[n][1] for n in DISCIPLINES)


class PredictionResult(NamedTuple):
    """The best plan of one run and the archive's correlation sum with it
    appended; the sum without it is ``archive_correlation(base).sum``."""

    splits: SplitVector
    correlation_after: float


def resolve_target_ceiling(cfg: ModelConfig) -> float:
    """Target ceiling of ``cfg`` in minutes.

    The package reads ``cfg.target_ceiling`` directly; the benchmark's span
    tracer (``perfbench/spans.py``) calls this function.
    """
    return cfg.target_ceiling


def _position_fitness(
    base: Archive, cfg: ModelConfig, base_correlation: CorrelationPair
) -> Fitness:
    """Optimizer-facing objective, to be minimized, in O(1) per call.

    A candidate is feasible when its total stays at or under the target
    ceiling *and* appending it to the archive strictly raises the archive's
    correlation sum ``base_correlation.sum``.  Feasible candidates score
    ``ceiling - total``, so the best plans exhaust the ceiling from below;
    everything else (including candidates that leave the extended
    correlation undefined) scores the flat infeasibility penalty.

    The archive is fixed for a whole run, so the correlation sum of the
    archive with one candidate row appended comes from one call of
    :func:`~tripace.stats.appended_correlation_sum`: the column means and
    centred sums are computed once per run, and each call updates them in
    closed form.  A call costs a few dozen float operations whatever the
    archive size, where the composed path rebuilds the archive and runs two
    O(n) two-pass correlations over n + 1 rows.

    The gate order, the ``<=`` comparison with the base sum and the
    returned values are those of the composed definition, and a zero
    extended variance scores the penalty in both.  The closed form rounds
    differently from the two-pass correlation, within about 1e-15, which
    would flip the ``<=`` only for a candidate whose appended sum ties the
    base sum that closely; on every position real swarm runs visit, the two
    paths return the same value, and the test suite checks that on several
    archives and seeds.
    """
    ceiling = cfg.target_ceiling
    penalty = cfg.infeasible_penalty
    base_sum = base_correlation.sum
    correlation_sum = appended_correlation_sum(
        base.swim_column(), base.bike_column(), base.run_column()
    )

    def fitness(position: list[float]) -> float:
        x_swim, x_t1, x_bike, x_t2, x_run = position
        total = x_swim + x_t1 + x_bike + x_t2 + x_run
        if total > ceiling:
            return penalty
        try:
            extended = correlation_sum(x_swim, x_bike, x_run)
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
    effective = PsoConfig(
        pso_cfg.swarm_size, cfg.lower_bounds(), cfg.upper_bounds(), pso_cfg.c1, pso_cfg.c2,
        pso_cfg.max_evaluations, pso_cfg.rng_seed,
    )
    result = run(effective, _position_fitness(base, cfg, base_pair))
    if result.best_value >= cfg.infeasible_penalty:
        raise NoFeasibleSolutionError(
            f"no feasible plan in {result.evaluations_used} evaluations "
            f"(ceiling {cfg.target_ceiling}, archive correlation "
            f"sum {base_pair.sum:.4f})"
        )
    splits = SplitVector(*result.best_position)
    after = archive_correlation(extend_archive(base, splits))
    return PredictionResult(splits=splits, correlation_after=after.sum)
