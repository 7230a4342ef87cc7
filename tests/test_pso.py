import itertools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _Particle, _reference_step, oracle_step, reference_run
from tripace.pso import PsoConfig, move, run

TABLE_BOUNDS = ((25.0, 2.0, 140.0, 2.0, 85.0), (50.0, 5.0, 180.0, 5.0, 120.0))

# What a bound or a learning factor must reject: the non-finite floats, a
# bool, a numeric string and an integer too large for a float.
NOT_FINITE_NUMBERS = [
    float("nan"), float("inf"), float("-inf"), True, "2", pytest.param(10**400, id="1e400")
]


def sphere(x):
    return float(np.dot(x, x))


def worsening():
    """An objective whose every score is worse than the one before."""
    calls = itertools.count()
    return lambda x: float(next(calls))


def make_config(**overrides):
    kwargs = dict(
        swarm_size=50,
        lower=(-5.0,) * 5,
        upper=(5.0,) * 5,
        c1=2.0,
        c2=2.0,
        max_evaluations=10_000,
        rng_seed=0,
    )
    kwargs.update(overrides)
    return PsoConfig(**kwargs)


class TestConfigValidation:
    def test_bounds_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            make_config(lower=(-5.0,) * 4)

    def test_empty_bounds(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_config(lower=(), upper=())

    def test_lower_not_below_upper(self):
        with pytest.raises(ValueError, match="lower bound"):
            make_config(lower=(0.0,) * 5, upper=(0.0,) * 5)

    def test_budget_below_swarm(self):
        with pytest.raises(ValueError, match="max_evaluations"):
            make_config(max_evaluations=49)

    def test_negative_learning_factor(self):
        with pytest.raises(ValueError, match="learning factors"):
            make_config(c1=-0.1)

    @pytest.mark.parametrize("field", ["lower", "upper"])
    @pytest.mark.parametrize("value", NOT_FINITE_NUMBERS)
    def test_bounds_must_be_finite_numbers(self, field, value):
        bound = list(getattr(make_config(), field))
        bound[1] = value
        with pytest.raises(ValueError, match=f"bounds must be finite numbers, got {field}="):
            make_config(**{field: tuple(bound)})

    @pytest.mark.parametrize("field", ["lower", "upper"])
    @pytest.mark.parametrize("value", [None, 5.0, object()], ids=["None", "5.0", "object"])
    def test_bounds_must_be_sequences(self, field, value):
        with pytest.raises(ValueError, match=f"bounds must be finite numbers, got {field}="):
            make_config(**{field: value})

    @pytest.mark.parametrize("factor", ["c1", "c2"])
    @pytest.mark.parametrize("value", [*NOT_FINITE_NUMBERS, False, None])
    def test_non_finite_learning_factor(self, factor, value):
        with pytest.raises(ValueError, match="learning factors must be finite"):
            make_config(**{factor: value})

    @pytest.mark.parametrize("field", ["swarm_size", "max_evaluations", "rng_seed"])
    @pytest.mark.parametrize("value", [True, False, 10.5, 100.5, float("nan"), float("inf"), "50"])
    def test_integer_settings_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_config(**{field: value})

    def test_integral_settings_accepted(self):
        cfg = make_config(swarm_size=50.0, max_evaluations=np.int64(100), rng_seed=3.0)
        assert (cfg.swarm_size, cfg.max_evaluations, cfg.rng_seed) == (50, 100, 3)
        assert all(type(v) is int for v in (cfg.swarm_size, cfg.max_evaluations, cfg.rng_seed))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative, got -3"):
            make_config(rng_seed=-3)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(lower=(-1e308,) * 5, upper=(1e308,) * 5),
            dict(lower=(140.0,) * 5, upper=(1.7e308,) * 5),
            dict(c1=1.5e308),
            dict(c1=1e308, c2=1e308),
        ],
        ids=["box-1e308", "upper-1.7e308", "c1-1.5e308", "c1-c2-1e308"],
    )
    def test_step_that_could_overflow(self, overrides):
        with pytest.raises(ValueError, match="a swarm step could overflow"):
            make_config(**overrides)

    def test_widest_accepted_box_moves_without_overflow(self):
        """At c1 = c2 = 2 a move from [0, u] reaches at most u + 5u, so u at a
        sixth of the cap of half the largest float is accepted and stays finite."""
        upper = sys.float_info.max / 2 / 6
        cfg = make_config(lower=(0.0,) * 3, upper=(upper,) * 3, max_evaluations=2_000)
        with np.errstate(all="raise"):
            result = run(cfg, sum)
        assert all(math.isfinite(v) for v in result.best_position)


def record_run(cfg, fitness=None):
    """``run`` plus every position it passed to fitness, in call order."""
    fitness = sphere if fitness is None else fitness
    seen = []

    def recording(position):
        seen.append(position)
        return fitness(position)

    return run(cfg, recording), seen


class TestInitSwarm:
    """The initial generation: the first ``swarm_size`` evaluations of a run."""

    def test_positions_within_bounds_and_budget(self):
        cfg = make_config(lower=TABLE_BOUNDS[0], upper=TABLE_BOUNDS[1], max_evaluations=50)
        result, seen = record_run(cfg)
        assert len(seen) == 50
        assert result.evaluations_used == 50
        for position in seen:
            assert type(position) is list and len(position) == 5
            assert all(type(v) is float for v in position)
            assert all(lo <= v <= hi for v, lo, hi in zip(position, *TABLE_BOUNDS))

    def test_velocities_start_at_zero(self):
        # with no attraction a particle moves by its velocity alone, so the
        # second generation repeats the first exactly when velocities are zero
        cfg = make_config(c1=0.0, c2=0.0, max_evaluations=100)
        _, seen = record_run(cfg)
        assert seen[50:] == seen[:50]

    def test_deterministic(self):
        cfg = make_config(max_evaluations=50)
        a, seen_a = record_run(cfg)
        b, seen_b = record_run(cfg)
        assert seen_a == seen_b
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_position, b.best_position)

    def test_global_best_is_min_of_personal_bests(self):
        result, seen = record_run(make_config(max_evaluations=50))
        values = [sphere(position) for position in seen]
        assert result.history == [min(values)]
        assert result.best_value == min(values)
        assert result.best_position == tuple(seen[values.index(min(values))])

    def test_sliver_bounds(self):
        eps = 1e-9
        cfg = make_config(lower=(1.0 - eps,) * 5, upper=(1.0,) * 5, max_evaluations=50)
        _, seen = record_run(cfg)
        for position in seen:
            assert all(1.0 - eps <= v <= 1.0 for v in position)


@st.composite
def move_states(draw):
    """Inputs of one ``move`` call, with ``c1, c2, u1, u2`` in place of its
    coefficient columns, plus where each component should land.

    Per component the landing is inside the box, exactly on a bound or
    beyond one, and the velocity is solved for it.  Every value is a
    multiple of 1/8 below 2**8; when ``exact`` is drawn, each ``c * u`` is
    a multiple of 1/8 as well, so all of ``move``'s arithmetic is exact and
    ``x + v'`` is the landing itself.  Otherwise ``c`` and ``u`` are any
    floats and ``x + v'`` only lands near it.
    """
    m, d = draw(st.integers(1, 8)), draw(st.integers(1, 5))

    def eighths(low, high):
        return draw(st.integers(low, high)) / 8

    lower = [eighths(-400, 0) for _ in range(d)]
    upper = [lo + eighths(1, 400) for lo in lower]

    def inside(j):
        return lower[j] + eighths(0, int((upper[j] - lower[j]) * 8))

    def point():
        return [inside(j) for j in range(d)]

    def landing(j):
        where = draw(st.sampled_from(["inside", "on lower", "on upper", "below", "above"]))
        if where == "inside":
            return inside(j)
        if where == "below":
            return lower[j] - eighths(1, 400)
        if where == "above":
            return upper[j] + eighths(1, 400)
        return lower[j] if where == "on lower" else upper[j]

    exact = draw(st.booleans())
    if exact:
        factors = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
        uniforms = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    else:
        factors, uniforms = st.floats(0.0, 3.0), st.floats(0.0, 1.0, exclude_max=True)
    c1, c2 = draw(factors), draw(factors)
    g = point()
    x = [point() for _ in range(m)]
    p = [point() for _ in range(m)]
    u1 = [draw(uniforms) for _ in range(m)]
    u2 = [draw(uniforms) for _ in range(m)]
    targets = [[landing(j) for j in range(d)] for _ in range(m)]
    v = [
        [t - xj - (c1 * a) * (pj - xj) - (c2 * b) * (gj - xj) for t, xj, pj, gj in zip(*row, g)]
        for *row, a, b in zip(targets, x, p, u1, u2)
    ]
    x, v, p, g, u1, u2, lower, upper = map(np.array, (x, v, p, g, u1, u2, lower, upper))
    return (x, v, p, g, c1, c2, u1, u2, lower, upper), np.array(targets), exact


def columns(c1, c2, u1, u2):
    """``move``'s coefficient columns ``c1*u1`` and ``c2*u2`` for length-m draws."""
    return (c1 * np.asarray(u1))[:, None], (c2 * np.asarray(u2))[:, None]


def move_with(x, v, pbest, gbest, cfg, u1=0.3, u2=0.7):
    """``move`` on one particle, given as a one-row batch; returns row tuples."""
    positions, velocities = move(
        np.array([x], dtype=float),
        np.array([v], dtype=float),
        np.array([pbest], dtype=float),
        np.array(gbest, dtype=float),
        *columns(cfg.c1, cfg.c2, [u1], [u2]),
        np.array(cfg.lower),
        np.array(cfg.upper),
    )
    return tuple(positions[0].tolist()), tuple(velocities[0].tolist())


class TestStepParticle:
    """``move`` row by row: velocity update, position update and repair."""

    def test_zero_learning_factors_keep_velocity(self):
        cfg = make_config(c1=0.0, c2=0.0)
        position, velocity = move_with((0.0,) * 5, (0.25,) * 5, (1.0,) * 5, (-1.0,) * 5, cfg)
        assert velocity == (0.25,) * 5
        assert position == (0.25,) * 5

    def test_attraction_vanishes_at_shared_best(self):
        cfg = make_config()
        x = (0.5,) * 5
        _, velocity = move_with(x, (0.125,) * 5, x, x, cfg)
        assert velocity == (0.125,) * 5

    def test_outward_velocity_clamped_and_zeroed(self):
        cfg = make_config(lower=(-5.0,), upper=(5.0,))
        position, velocity = move_with((5.0,), (1.0,), (5.0,), (5.0,), cfg)
        assert position == (5.0,)
        assert velocity == (0.0,)

    def test_personal_best_untouched(self):
        x, v = np.zeros((1, 5)), np.zeros((1, 5))
        pbest, gbest = np.full((1, 5), 2.0), np.full(5, -2.0)
        a, b = columns(2.0, 2.0, [0.3], [0.7])
        lower, upper = np.full(5, -5.0), np.full(5, 5.0)
        position, _ = move(x, v, pbest, gbest, a, b, lower, upper)
        assert np.array_equal(pbest, np.full((1, 5), 2.0))
        assert np.array_equal(x, np.zeros((1, 5))) and np.array_equal(v, np.zeros((1, 5)))
        assert np.array_equal(gbest, np.full(5, -2.0))
        assert np.array_equal(a, [[0.6]]) and np.array_equal(b, [[1.4]])
        assert not np.array_equal(position, x)

    @pytest.mark.parametrize("dimension", [1, 5])
    def test_matches_oracle_transcription(self, dimension):
        gen = np.random.default_rng(12345)
        for _ in range(250):
            lower = tuple(gen.uniform(-10.0, 0.0, dimension))
            upper = tuple(gen.uniform(0.5, 10.0, dimension))
            cfg = make_config(
                lower=lower,
                upper=upper,
                c1=float(gen.uniform(0.0, 3.0)),
                c2=float(gen.uniform(0.0, 3.0)),
                max_evaluations=100,
                swarm_size=10,
            )
            x = gen.uniform(lower, upper).tolist()
            v = gen.uniform(-2.0, 2.0, dimension).tolist()
            pb = gen.uniform(lower, upper).tolist()
            gb = gen.uniform(lower, upper).tolist()
            seed = int(gen.integers(1 << 31))
            draw = np.random.default_rng(seed)
            u1, u2 = draw.random(), draw.random()
            position, velocity = move_with(x, v, pb, gb, cfg, u1, u2)
            ox, ov = oracle_step(x, v, pb, gb, cfg.c1, cfg.c2, u1, u2, lower, upper)
            assert position == pytest.approx(ox, abs=1e-12)
            assert velocity == pytest.approx(ov, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_batch_equals_rows(self, seed):
        """One m-row call gives bit for bit the rows of m one-row calls and
        changes none of its inputs."""
        gen = np.random.default_rng(seed)
        m, d = int(gen.integers(1, 61)), int(gen.integers(1, 7))
        lower = gen.uniform(-10.0, 0.0, d)
        upper = gen.uniform(0.5, 10.0, d)
        c1, c2 = gen.uniform(0.0, 3.0, 2)
        # velocities wide enough that some components leave the box
        inputs = (
            gen.uniform(lower, upper, (m, d)),
            gen.uniform(-8.0, 8.0, (m, d)),
            gen.uniform(lower, upper, (m, d)),
            gen.uniform(lower, upper),
            *columns(c1, c2, gen.random(m), gen.random(m)),
            lower,
            upper,
        )
        saved = [np.copy(value) for value in inputs]
        positions, velocities = move(*inputs)
        x, v, p, g, a, b, _, _ = inputs
        for i in range(m):
            one = slice(i, i + 1)
            row_position, row_velocity = move(
                x[one], v[one], p[one], g, a[one], b[one], lower, upper
            )
            assert np.array_equal(positions[i], row_position[0])
            assert np.array_equal(velocities[i], row_velocity[0])
        assert all(np.array_equal(a, b) for a, b in zip(inputs, saved))
        assert ((positions == lower) | (positions == upper)).any()

    @given(state=move_states())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_step(self, state):
        """Each row of ``move`` is bit for bit the reference engine's step,
        whether ``x + v'`` lands inside the box, on a bound or beyond one."""
        inputs, targets, exact = state
        x, v, p, g, c1, c2, u1, u2, lower, upper = inputs
        positions, velocities = move(x, v, p, g, *columns(c1, c2, u1, u2), lower, upper)
        for i in range(len(x)):
            particle = _Particle(x[i], v[i], p[i], math.inf)
            draws = SimpleNamespace(random=iter((u1[i], u2[i])).__next__)
            step = _reference_step(particle, g, c1, c2, lower, upper, draws)
            assert np.array_equal(positions[i], step.position)
            assert np.array_equal(velocities[i], step.velocity)
        if exact:
            assert np.array_equal(positions, np.minimum(np.maximum(targets, lower), upper))


def run_both(cfg, fitness, reference_fitness=None):
    """``run`` and ``reference_run`` on one config, with their fitness inputs.

    A stateful objective needs one instance per engine: ``reference_fitness``
    is then the second one.
    """
    reference_fitness = fitness if reference_fitness is None else reference_fitness
    seen, seen_reference = [], []

    def recording(position):
        seen.append(position)
        return fitness(position)

    def recording_reference(position):
        seen_reference.append(tuple(position.tolist()))
        return reference_fitness(position)

    return run(cfg, recording), seen, reference_run(cfg, recording_reference), seen_reference


class TestMatchesReferenceEngine:
    """``run`` reproduces the frozen numpy engine bit for bit: same result,
    same history and the same positions passed to fitness in the same order."""

    def assert_identical(self, cfg, fitness=sphere, reference_fitness=None):
        result, seen, reference, seen_reference = run_both(cfg, fitness, reference_fitness)
        assert [tuple(position) for position in seen] == seen_reference
        assert len(seen) == reference.evaluations_used
        assert result.best_position == tuple(reference.best_position.tolist())
        assert all(type(v) is float for v in result.best_position)
        assert result.best_value == reference.best_value
        assert result.evaluations_used == reference.evaluations_used
        assert result.history == reference.history

    @pytest.mark.parametrize("dimension", [1, 5])
    @pytest.mark.parametrize("seed", range(10))
    def test_seeds(self, seed, dimension):
        cfg = make_config(
            lower=(-5.0,) * dimension,
            upper=(5.0,) * dimension,
            max_evaluations=1_000,
            rng_seed=seed,
        )
        self.assert_identical(cfg)

    @pytest.mark.parametrize("budget", [175, 1_037])
    def test_budget_stops_mid_generation(self, budget):
        self.assert_identical(make_config(max_evaluations=budget, rng_seed=3))

    def test_table_bounds(self):
        cfg = make_config(lower=TABLE_BOUNDS[0], upper=TABLE_BOUNDS[1], max_evaluations=2_000)
        self.assert_identical(cfg)

    def test_sliver_bounds(self):
        eps = 1e-9
        cfg = make_config(lower=(1.0 - eps,) * 5, upper=(1.0,) * 5, max_evaluations=500)
        self.assert_identical(cfg)

    def test_zero_learning_factors(self):
        self.assert_identical(make_config(c1=0.0, c2=0.0, max_evaluations=500, rng_seed=4))

    def test_nan_on_part_of_the_box(self):
        def partial_nan(x):
            return math.nan if x[0] > 0.0 else sphere(x)

        self.assert_identical(make_config(max_evaluations=2_000, rng_seed=2), partial_nan)

    def test_inf_everywhere(self):
        self.assert_identical(make_config(max_evaluations=200), lambda x: math.inf)

    # The cases below drive the re-move of the particles after a
    # mid-generation change of the global best; each objective counts its
    # calls, so each engine gets its own instance.

    @pytest.mark.parametrize("budget", [1_000, 175])
    def test_every_evaluation_improves(self, budget):
        def countdown():
            calls = itertools.count()
            return lambda x: -float(next(calls))

        cfg = make_config(max_evaluations=budget, rng_seed=5)
        self.assert_identical(cfg, countdown(), countdown())

    def test_new_best_at_last_particle(self):
        def last_particle_improves():
            calls = itertools.count()

            def fitness(x):
                call = next(calls)
                return -float(call) if call % 50 == 49 else sphere(x) + 1e6

            return fitness

        cfg = make_config(max_evaluations=1_000, rng_seed=6)
        self.assert_identical(cfg, last_particle_improves(), last_particle_improves())

    @pytest.mark.parametrize("budget", [175, 1_037])
    def test_budget_ends_right_after_new_best(self, budget):
        def last_evaluation_improves():
            calls = itertools.count(1)
            return lambda x: -1.0 if next(calls) == budget else sphere(x)

        cfg = make_config(max_evaluations=budget, rng_seed=7)
        self.assert_identical(cfg, last_evaluation_improves(), last_evaluation_improves())
        result = run(cfg, last_evaluation_improves())
        assert result.best_value == -1.0 and result.history[-1] == -1.0

    # run draws the coefficients of several generations per call (40 at
    # NP 50, 2 048 at NP 1); each case below crosses a block and ends short
    # of a full block or in the middle of a generation.  Scores that only
    # get worse keep the bests at generation 0, so the particles never
    # settle and every later draw moves them.  (A lone particle starts at
    # its own bests with no velocity, so it never moves at all.)

    @pytest.mark.parametrize(
        "size, budget", [(1, 5_000), (7, 3_001), (41, 2_053), (50, 9_999), (50, 10_000)]
    )
    @pytest.mark.parametrize("objective", ["sphere", "worsening"])
    def test_across_draw_blocks(self, size, budget, objective):
        cfg = make_config(swarm_size=size, max_evaluations=budget, rng_seed=size + budget)
        if objective == "sphere":
            self.assert_identical(cfg)
        else:
            self.assert_identical(cfg, worsening(), worsening())

    @given(
        size=st.integers(1, 4),
        dimension=st.integers(1, 6),
        c1=st.floats(0.0, 3.0),
        c2=st.floats(0.0, 3.0),
        budget_per_particle=st.integers(1, 3_000),
        extra=st.integers(0, 3),
        seed=st.integers(0, 2**63),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_across_draw_blocks(
        self, size, dimension, c1, c2, budget_per_particle, extra, seed
    ):
        """NP 1-4 with budgets up to 3 000 NP, which reach past the first
        block of draws (2 048 generations at NP 1, 512 at NP 4)."""
        cfg = make_config(
            swarm_size=size,
            lower=(-5.0,) * dimension,
            upper=(5.0,) * dimension,
            c1=c1,
            c2=c2,
            max_evaluations=min(size * budget_per_particle + extra, 3_000 * size),
            rng_seed=seed,
        )
        self.assert_identical(cfg, worsening(), worsening())

    @given(
        size=st.integers(1, 60),
        dimension=st.integers(1, 6),
        c1=st.floats(0.0, 3.0),
        c2=st.floats(0.0, 3.0),
        generations=st.integers(1, 20),
        extra=st.integers(0, 59),
        seed=st.integers(0, 2**63),
        objective=st.sampled_from([sphere, sum]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property(self, size, dimension, c1, c2, generations, extra, seed, objective):
        """NP 1-60, D 1-6, c1 and c2 in [0, 3], a budget of NP to 20 NP and
        any seed; the linear objective keeps moving the global best."""
        budget = min(size * generations + extra, 20 * size)
        cfg = make_config(
            swarm_size=size,
            lower=(-5.0,) * dimension,
            upper=(5.0,) * dimension,
            c1=c1,
            c2=c2,
            max_evaluations=budget,
            rng_seed=seed,
        )
        self.assert_identical(cfg, objective)


class TestRun:
    def test_budget_exact_at_one_generation(self):
        cfg = make_config(max_evaluations=50)
        result = run(cfg, sphere)
        assert result.evaluations_used == 50
        assert len(result.history) == 1

    def test_budget_never_exceeded_mid_generation(self):
        cfg = make_config(max_evaluations=175)
        result = run(cfg, sphere)
        assert result.evaluations_used == 175

    def test_history_non_increasing(self):
        for seed in range(5):
            result = run(make_config(rng_seed=seed, max_evaluations=2_000), sphere)
            assert all(b <= a for a, b in zip(result.history, result.history[1:]))

    def test_deterministic(self):
        cfg = make_config(max_evaluations=1_000, rng_seed=11)
        a = run(cfg, sphere)
        b = run(cfg, sphere)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_value == b.best_value
        assert a.history == b.history

    def test_best_within_bounds(self):
        cfg = make_config(lower=TABLE_BOUNDS[0], upper=TABLE_BOUNDS[1], max_evaluations=2_000)
        result = run(cfg, sphere)
        assert np.all(result.best_position >= np.array(TABLE_BOUNDS[0]))
        assert np.all(result.best_position <= np.array(TABLE_BOUNDS[1]))

    def test_sphere_improves(self):
        cfg = make_config(max_evaluations=5_000)
        result = run(cfg, sphere)
        assert result.best_value < 1.0
        assert result.best_value == sphere(result.best_position)

    def test_non_finite_fitness_never_becomes_best(self):
        def partial_nan(x):
            return math.nan if x[0] > 0.0 else float(np.dot(x, x))

        cfg = make_config(max_evaluations=2_000, rng_seed=2)
        result = run(cfg, partial_nan)
        assert result.best_position[0] <= 0.0
        assert math.isfinite(result.best_value)
        assert result.evaluations_used == 2_000

    def test_each_evaluation_gets_its_own_list(self):
        """Fitness gets a new list of D floats at every evaluation, which the
        engine never changes afterwards nor passes again, also across a
        re-move of the rest of a generation and a new block of draws."""
        calls = itertools.count()
        kept, copies = [], []

        def fitness(position):
            kept.append(position)
            copies.append(list(position))
            call = next(calls)
            # improves at every third evaluation, so rows are moved again
            return -float(call) if call % 3 == 0 else sphere(position) + 1e6

        cfg = make_config(swarm_size=7, max_evaluations=3_001, rng_seed=8)
        result = run(cfg, fitness)
        assert len(kept) == result.evaluations_used == 3_001
        assert all(type(position) is list and len(position) == 5 for position in kept)
        assert all(type(v) is float for position in kept for v in position)
        assert len({id(position) for position in kept}) == len(kept)
        assert kept == copies
        assert type(result.best_position) is tuple
        assert result.best_position == tuple(kept[3_000])

    def test_all_non_finite_fitness_completes(self):
        cfg = make_config(max_evaluations=200)
        result = run(cfg, lambda x: math.inf)
        assert result.evaluations_used == 200
        assert result.best_value == math.inf
