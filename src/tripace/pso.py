"""Bound-constrained particle swarm optimizer.

This is the original 1995 formulation: no inertia weight, no velocity
clamping, no neighborhood topology.  Per particle and per step the velocity
update uses exactly two uniform scalars,

    v' = v + (c1 * u1) * (pbest - x) + (c2 * u2) * (gbest - x)
    x' = x + v'

with u1 and u2 each applied to the whole difference vector.  Scalar draws
per term (not per component) are deliberate and behavior-affecting; do not
"fix" this to the per-component variant.  Out-of-bounds components of x' are
clamped to the violated bound and the corresponding velocity component is
zeroed.  :func:`move` is that step, one particle at a time.

The swarm state is plain Python floats: per particle a position, a velocity
and a personal best, each a tuple of D floats.  Vectors of five components
are too short for numpy to pay for its per-call overhead.  Fitness receives
the position as a tuple of floats; :class:`PsoResult` returns the best
position as an ndarray.

Reproducibility contract: a single seeded generator drives one run.
Initialization draws all NP * D uniforms in one call, particle by particle
and component by component within a particle.  Each later generation
draws its 2 * NP scalars in one call and reads them as u1, u2 of particle
0, then u1, u2 of particle 1, and so on.  ``Generator.random(n)`` yields the
same stream as n single draws, so this is the same sequence as drawing
u1 then u2 at every move; a generation cut short by the budget draws its
full 2 * NP, which the run never reads.  Best updates use <=, so a later
equal score replaces the incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

Fitness = Callable[[tuple[float, ...]], float]


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    c1: float = 2.0
    c2: float = 2.0
    max_evaluations: int = 10_000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if self.swarm_size < 1:
            raise ValueError(f"swarm_size must be positive, got {self.swarm_size}")
        if not self.lower or len(self.lower) != len(self.upper):
            raise ValueError("bound vectors must be non-empty and of equal length")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("each lower bound must be strictly below its upper bound")
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError(
                f"learning factors must be finite, got c1={self.c1!r}, c2={self.c2!r}"
            )
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("learning factors must be non-negative")
        if self.max_evaluations < self.swarm_size:
            raise ValueError(
                "max_evaluations must cover at least one evaluation per particle"
            )


class PsoResult(NamedTuple):
    best_position: np.ndarray
    best_value: float
    evaluations_used: int
    history: list[float]


def move(
    position: Sequence[float],
    velocity: Sequence[float],
    personal_best: Sequence[float],
    global_best: Sequence[float],
    c1: float,
    c2: float,
    u1: float,
    u2: float,
    lower: Sequence[float],
    upper: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One particle move: velocity update, position update, bound repair.

    Componentwise ``v' = v + (c1*u1)*(p - x) + (c2*u2)*(g - x)`` and
    ``x' = x + v'``; a component of ``x'`` outside its bound is clamped to
    the violated bound and its velocity component set to 0.0.  Returns the
    new ``(position, velocity)`` as tuples and leaves every input as it was.
    """
    a = c1 * u1
    b = c2 * u2
    new_position = []
    new_velocity = []
    for x, v, p, g, low, high in zip(position, velocity, personal_best, global_best, lower, upper):
        v = v + a * (p - x) + b * (g - x)
        x = x + v
        if x < low:
            x = low
            v = 0.0
        elif x > high:
            x = high
            v = 0.0
        new_position.append(x)
        new_velocity.append(v)
    return tuple(new_position), tuple(new_velocity)


def run(config: PsoConfig, fitness: Fitness) -> PsoResult:
    """Minimize ``fitness`` within the bounds under the evaluation budget.

    The initial generation evaluates the random starting positions, with
    velocities at zero; every later generation moves, evaluates and ranks
    each particle in index order, so particles later in the scan already
    see bests found earlier in the same generation.  Stops as soon as the
    budget is exhausted, mid generation if need be.  The history holds the
    global best after each generation and never increases.
    """
    rng = np.random.default_rng(config.rng_seed)
    size = config.swarm_size
    budget = config.max_evaluations
    c1 = config.c1
    c2 = config.c2
    lower = config.lower
    upper = config.upper
    dim = len(lower)
    isfinite = math.isfinite

    widths = [high - low for low, high in zip(lower, upper)]
    draws = rng.random(size * dim).tolist()
    positions = [
        tuple(low + u * w for low, u, w in zip(lower, draws[i * dim : (i + 1) * dim], widths))
        for i in range(size)
    ]
    velocities = [(0.0,) * dim] * size
    personal_values = []
    # particle 0 stands in as the global best while no score is finite
    best_position = positions[0]
    best_value = math.inf
    for position in positions:
        value = float(fitness(position))
        # Non-finite scores count against the budget but never become a best.
        if not isfinite(value):
            value = math.inf
        elif value <= best_value:
            best_position = position
            best_value = value
        personal_values.append(value)
    personal_bests = list(positions)
    used = size
    history = [best_value]

    while used < budget:
        moves = min(size, budget - used)
        u = rng.random(2 * size).tolist()
        for i in range(moves):
            position, velocity = move(
                positions[i], velocities[i], personal_bests[i], best_position,
                c1, c2, u[2 * i], u[2 * i + 1], lower, upper,
            )
            positions[i] = position
            velocities[i] = velocity
            value = float(fitness(position))
            if isfinite(value):
                if value <= personal_values[i]:
                    personal_bests[i] = position
                    personal_values[i] = value
                if value <= best_value:
                    best_position = position
                    best_value = value
        used += moves
        history.append(best_value)

    return PsoResult(
        best_position=np.array(best_position),
        best_value=best_value,
        evaluations_used=used,
        history=history,
    )
