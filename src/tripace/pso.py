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
zeroed.  :func:`move` is that step for m particles at once, given the
products ``c1 * u1`` and ``c2 * u2`` as (m, 1) columns; it is the only step
function, and :func:`run` calls it.

The swarm state is three (NP, D) float64 arrays: positions, velocities and
personal bests, at full width in every generation.  :func:`run` is one
generation loop: generation 0 scores the starting positions, and every
later generation first moves all of its particles with one vectorised step
against the current global best (numpy does not pay on one five-component
vector, but it does on a whole generation).  A generation cut short by the
budget still moves all NP particles and scores only the first of them.
Fitness is called once per scored particle, in index order, with the
position as a new list of floats, one ``tolist()`` row per particle, which
fitness must not change.  The global best is asynchronous (Carlisle &
Dozier 2001): a particle sees bests found earlier in its own generation.
So when a particle becomes the new global best, the particles after it are
moved again with the new best.  A moved generation therefore costs one
vectorised step plus one more for each mid-generation change of the global
best, and the speed rests on such changes being rare.  Each row uses the
scalar association above, so the positions are bit for bit those of a
particle-by-particle loop.  A particle's personal best changes only at its
own move.  So personal values are a list of floats, starting at infinity
and updated as the particles are scored, and a particle's row is copied
into the personal-best array as soon as it improves: a later re-move reads
only the personal bests of particles not yet scored, which no copy of that
generation has touched.

Reproducibility contract: a single seeded generator drives one run.
Initialization draws all NP * D uniforms in one call, particle by particle
and component by component within a particle.  The moved generations draw
their scalars in blocks: one ``random((k, NP, 2))`` call holds the u1, u2
of particle 0, then of particle 1 and so on, for k generations in a row,
with k = max(1, 4096 // (2 * NP)) capped by the moved generations left.
``Generator.random`` yields the same stream whatever the shape of the call,
so this is the same sequence as drawing u1 then u2 at every move; a
generation cut short by the budget draws and uses its full 2 * NP.  A
block is multiplied once by (c1, c2), which gives the products ``c1 * u1``
and ``c2 * u2`` of each move.  Best updates use <=, so a later equal score
replaces the incumbent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

Fitness = Callable[[list[float]], float]

# Uniforms that run draws per call for a block of generations (32 KB), but
# at least one generation's 2 * NP.
_BLOCK_DRAWS = 4096

# A velocity in the box is at most one box width w, so no term of a move
# exceeds max(|lower|, |upper|) + (1 + c1 + c2) * w.  Keeping that at most
# half the largest float, the margin ModelConfig gives the ceiling, keeps
# every step finite.
_STEP_CAP = sys.float_info.max / 2


def integer_setting(name: str, value: object) -> int:
    """``value`` as an int; a bool or a number that is not integral raises."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):  # an infinity or a NaN
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def finite_number(value: object) -> bool:
    """Whether ``value`` is a real number, not a bool, with a finite float value."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            pass
    return False


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
        for name in ("lower", "upper"):
            try:
                bound = tuple(getattr(self, name))
            except TypeError:  # not a sequence: None, a lone number
                bound = None
            if bound is None or not all(map(finite_number, bound)):
                raise ValueError(
                    f"bounds must be finite numbers, got {name}={getattr(self, name)!r}"
                )
            object.__setattr__(self, name, tuple(float(v) for v in bound))
        for name in ("swarm_size", "max_evaluations", "rng_seed"):
            object.__setattr__(self, name, integer_setting(name, getattr(self, name)))
        if self.swarm_size < 1:
            raise ValueError(f"swarm_size must be positive, got {self.swarm_size}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if not self.lower or len(self.lower) != len(self.upper):
            raise ValueError("bound vectors must be non-empty and of equal length")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("each lower bound must be strictly below its upper bound")
        if not (finite_number(self.c1) and finite_number(self.c2)):
            raise ValueError(
                f"learning factors must be finite, got c1={self.c1!r}, c2={self.c2!r}"
            )
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError(
                f"learning factors must be non-negative, got c1={self.c1!r}, c2={self.c2!r}"
            )
        growth = 1.0 + self.c1 + self.c2
        for lo, hi in zip(self.lower, self.upper):
            reach = max(abs(lo), abs(hi)) + growth * (hi - lo)
            if not reach <= _STEP_CAP:  # an overflow to inf counts as above
                raise ValueError(
                    f"a swarm step could overflow: bounds [{lo}, {hi}] with "
                    f"c1={self.c1!r}, c2={self.c2!r} reach {reach}, above {_STEP_CAP}"
                )
        if self.max_evaluations < self.swarm_size:
            raise ValueError(
                "max_evaluations must cover at least one evaluation per particle, "
                f"got {self.max_evaluations} for swarm_size {self.swarm_size}"
            )


class PsoResult(NamedTuple):
    best_position: tuple[float, ...]
    best_value: float
    evaluations_used: int
    history: list[float]


def move(
    positions: np.ndarray,
    velocities: np.ndarray,
    personal_bests: np.ndarray,
    global_best: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Move m particles: velocity update, position update, bound repair.

    ``positions``, ``velocities`` and ``personal_bests`` are (m, D) arrays,
    ``global_best``, ``lower`` and ``upper`` D-vectors, and ``a``, ``b``
    (m, 1) columns holding each particle's coefficients ``c1*u1`` and
    ``c2*u2``.  Row by row and componentwise ``v' = v + a*(p - x) + b*(g - x)``
    and ``x' = x + v'``; a component of ``x'`` outside its bound is clamped
    to the violated bound and its velocity component set to 0.0.  Returns
    the new ``(positions, velocities)`` as new arrays and leaves every input
    as it was.
    """
    velocities = velocities + a * (personal_bests - positions) + b * (global_best - positions)
    moved = positions + velocities
    positions = np.minimum(np.maximum(moved, lower), upper)
    np.putmask(velocities, positions != moved, 0.0)  # velocities is a new array here
    return positions, velocities


def run(config: PsoConfig, fitness: Fitness) -> PsoResult:
    """Minimize ``fitness`` within the bounds under the evaluation budget.

    One loop runs every generation: generation 0 scores the random starting
    positions, with velocities at zero, and every later generation moves
    its particles first.  Each generation scores and ranks its particles in
    index order, so particles later in the scan already see bests found
    earlier in the same generation.  Stops as soon as the budget is
    exhausted, mid generation if need be.  Fitness gets each position as a
    new list of floats, which it must not change.  The best position is a
    tuple of the floats that fitness scored.  The history holds the global
    best after each generation and never increases.
    """
    rng = np.random.default_rng(config.rng_seed)
    size = config.swarm_size
    budget = config.max_evaluations
    factors = np.array((config.c1, config.c2), dtype=float)
    lower = np.array(config.lower)
    upper = np.array(config.upper)
    isfinite = math.isfinite
    per_block = max(1, _BLOCK_DRAWS // (2 * size))

    positions = lower + rng.random((size, len(lower))) * (upper - lower)
    velocities = np.zeros_like(positions)
    personal_bests = positions.copy()
    personal_values = [math.inf] * size
    # Particle 0 stands in as the global best while no score is finite.  The
    # global best is a row of a scored generation, which nothing writes again.
    global_best = positions[0]
    best_value = math.inf
    block = np.empty((0, size, 2))  # c1*u1, c2*u2 per particle, per generation
    drawn = 0
    used = 0
    history = []

    while used < budget:
        # only the last generation can be short, and it too moves every particle
        moves = min(size, budget - used)
        new_positions, new_velocities = positions, velocities
        if used:  # generation 0 scores the starting positions where they are
            if drawn == len(block):
                generations_left = -(-(budget - used) // size)
                block = rng.random((min(per_block, generations_left), size, 2)) * factors
                drawn = 0
            a = block[drawn, :, :1]
            b = block[drawn, :, 1:]
            drawn += 1
            new_positions, new_velocities = move(
                positions, velocities, personal_bests, global_best, a, b, lower, upper
            )
        rows = new_positions.tolist()
        for i in range(moves):
            value = float(fitness(rows[i]))
            # Non-finite scores count against the budget but never become a best.
            if value <= personal_values[i] and isfinite(value):
                personal_values[i] = value
                personal_bests[i] = new_positions[i]
            if value <= best_value and isfinite(value):
                global_best = new_positions[i]
                best_value = value
                if used and i + 1 < moves:
                    # the particles after i have to see the new global best
                    rest = slice(i + 1, None)
                    new_positions[rest], new_velocities[rest] = move(
                        positions[rest], velocities[rest], personal_bests[rest], global_best,
                        a[rest], b[rest], lower, upper,
                    )
                    rows[rest] = new_positions[rest].tolist()
        positions, velocities = new_positions, new_velocities
        used += moves
        history.append(best_value)

    return PsoResult(
        best_position=tuple(global_best.tolist()),
        best_value=best_value,
        evaluations_used=used,
        history=history,
    )
