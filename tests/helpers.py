"""Independent oracles used by the test suite.

These deliberately avoid the package's own numeric paths: plain-Python
accumulation for the correlation coefficient, a componentwise loop for
the swarm step, a numpy whole-run swarm engine, and the objective composed
from the extended archive, so agreement checks actually compare two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tripace.archive import Archive, extend_archive
from tripace.preference import ModelConfig, SplitVector
from tripace.pso import PsoResult
from tripace.stats import CorrelationPair, CorrelationUndefinedError, archive_correlation


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
