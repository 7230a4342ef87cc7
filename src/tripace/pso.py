"""Bound-constrained particle swarm optimizer.

This is the original 1995 formulation: no inertia weight, no velocity
clamping, no neighborhood topology.  Per particle and per step the velocity
update draws exactly two uniform scalars,

    v' = v + c1 * u1 * (pbest - x) + c2 * u2 * (gbest - x)
    x' = x + v'

with u1 and u2 each applied to the whole difference vector.  Scalar draws
per term (not per component) are deliberate and behavior-affecting; do not
"fix" this to the per-component variant.  Out-of-bounds components of x' are
clamped to the violated bound and the corresponding velocity component is
zeroed.

Reproducibility contract: a single seeded generator drives one run.  Draw
order is fixed as (a) initialization consumes one length-D uniform vector
per particle in index order, (b) each step consumes u1 then u2, particles
in index order within a generation.  Best updates use <=, so a later equal
score replaces the incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

Fitness = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int
    dimension: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    c1: float = 2.0
    c2: float = 2.0
    max_evaluations: int = 10_000
    rng_seed: int = 0

    lower_array: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    upper_array: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if self.swarm_size < 1:
            raise ValueError(f"swarm_size must be positive, got {self.swarm_size}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if len(self.lower) != self.dimension or len(self.upper) != self.dimension:
            raise ValueError("bound vectors must match the dimension")
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
        # cached ndarray views of the bounds; hot paths touch these every step
        object.__setattr__(self, "lower_array", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper_array", np.asarray(self.upper, dtype=float))


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    personal_best_position: np.ndarray
    personal_best_value: float


@dataclass
class SwarmState:
    particles: list[Particle]
    global_best_position: np.ndarray
    global_best_value: float
    evaluations_used: int = 0
    history: list[float] = field(default_factory=list)


class PsoResult(NamedTuple):
    best_position: np.ndarray
    best_value: float
    evaluations_used: int
    history: list[float]


def _evaluate(fitness: Fitness, position: np.ndarray) -> float:
    value = float(fitness(position))
    # Non-finite scores count against the budget but can never become a best.
    return value if math.isfinite(value) else math.inf


def init_swarm(
    config: PsoConfig, fitness: Fitness, rng: np.random.Generator | None = None
) -> SwarmState:
    """Spawn the swarm and evaluate every initial position once.

    Positions are drawn componentwise uniform within the bounds, velocities
    start at zero, and personal/global bests come from the initial
    evaluations (swarm_size evaluations in total).
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    lower = config.lower_array
    upper = config.upper_array

    particles: list[Particle] = []
    best_position: np.ndarray | None = None
    best_value = math.inf
    for _ in range(config.swarm_size):
        position = lower + rng.random(config.dimension) * (upper - lower)
        value = _evaluate(fitness, position)
        particles.append(
            Particle(
                position=position,
                velocity=np.zeros(config.dimension),
                personal_best_position=position.copy(),
                personal_best_value=value,
            )
        )
        if value <= best_value and math.isfinite(value):
            best_position = position.copy()
            best_value = value
    if best_position is None:
        best_position = particles[0].position.copy()
    state = SwarmState(
        particles=particles,
        global_best_position=best_position,
        global_best_value=best_value,
        evaluations_used=config.swarm_size,
    )
    state.history.append(state.global_best_value)
    return state


def step_particle(
    particle: Particle,
    global_best: np.ndarray,
    config: PsoConfig,
    rng: np.random.Generator,
) -> Particle:
    """Move one particle: velocity update, position update, bound repair.

    Draws u1 then u2 from ``rng``.  The returned particle keeps the personal
    best of the input; evaluating the new position is the caller's job.
    """
    u1 = rng.random()
    u2 = rng.random()
    velocity = (
        particle.velocity
        + config.c1 * u1 * (particle.personal_best_position - particle.position)
        + config.c2 * u2 * (global_best - particle.position)
    )
    position = particle.position + velocity

    lower = config.lower_array
    upper = config.upper_array
    below = position < lower
    above = position > upper
    if below.any() or above.any():
        position = np.where(below, lower, np.where(above, upper, position))
        velocity = np.where(below | above, 0.0, velocity)

    return Particle(
        position=position,
        velocity=velocity,
        personal_best_position=particle.personal_best_position,
        personal_best_value=particle.personal_best_value,
    )


def run(config: PsoConfig, fitness: Fitness) -> PsoResult:
    """Minimize ``fitness`` within the bounds under the evaluation budget.

    The initial generation evaluates the random starting positions; every
    later generation moves, evaluates and ranks each particle in index
    order, so particles later in the scan already see bests found earlier in
    the same generation.  Stops as soon as the budget is exhausted, mid
    generation if need be.  The history holds the global best after each
    generation and never increases.
    """
    rng = np.random.default_rng(config.rng_seed)
    state = init_swarm(config, fitness, rng)

    while state.evaluations_used < config.max_evaluations:
        for particle in state.particles:
            if state.evaluations_used >= config.max_evaluations:
                break
            moved = step_particle(particle, state.global_best_position, config, rng)
            particle.position = moved.position
            particle.velocity = moved.velocity
            value = _evaluate(fitness, particle.position)
            state.evaluations_used += 1
            if math.isfinite(value):
                if value <= particle.personal_best_value:
                    particle.personal_best_position = particle.position.copy()
                    particle.personal_best_value = value
                if value <= state.global_best_value:
                    state.global_best_position = particle.position.copy()
                    state.global_best_value = value
        state.history.append(state.global_best_value)

    return PsoResult(
        best_position=state.global_best_position.copy(),
        best_value=state.global_best_value,
        evaluations_used=state.evaluations_used,
        history=list(state.history),
    )
