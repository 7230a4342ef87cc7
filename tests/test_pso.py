import math

import numpy as np
import pytest

from helpers import oracle_step
from tripace.pso import Particle, PsoConfig, init_swarm, run, step_particle

TABLE_BOUNDS = ((25.0, 2.0, 140.0, 2.0, 85.0), (50.0, 5.0, 180.0, 5.0, 120.0))


def sphere(x):
    return float(np.dot(x, x))


def make_config(**overrides):
    kwargs = dict(
        swarm_size=50,
        dimension=5,
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
        with pytest.raises(ValueError, match="dimension"):
            make_config(lower=(-5.0,) * 4)

    def test_lower_not_below_upper(self):
        with pytest.raises(ValueError, match="lower bound"):
            make_config(lower=(0.0,) * 5, upper=(0.0,) * 5)

    def test_budget_below_swarm(self):
        with pytest.raises(ValueError, match="max_evaluations"):
            make_config(max_evaluations=49)

    def test_negative_learning_factor(self):
        with pytest.raises(ValueError, match="learning factors"):
            make_config(c1=-0.1)

    @pytest.mark.parametrize("factor", ["c1", "c2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_factor(self, factor, value):
        with pytest.raises(ValueError, match="learning factors must be finite"):
            make_config(**{factor: value})


class TestInitSwarm:
    def test_positions_within_bounds_and_budget(self):
        cfg = make_config(lower=TABLE_BOUNDS[0], upper=TABLE_BOUNDS[1])
        state = init_swarm(cfg, sphere)
        assert len(state.particles) == 50
        assert state.evaluations_used == 50
        lower = np.array(TABLE_BOUNDS[0])
        upper = np.array(TABLE_BOUNDS[1])
        for p in state.particles:
            assert np.all(p.position >= lower) and np.all(p.position <= upper)
            assert np.all(p.velocity == 0.0)
            assert p.personal_best_value == sphere(p.personal_best_position)

    def test_deterministic(self):
        cfg = make_config()
        a = init_swarm(cfg, sphere)
        b = init_swarm(cfg, sphere)
        for pa, pb in zip(a.particles, b.particles):
            assert np.array_equal(pa.position, pb.position)
        assert a.global_best_value == b.global_best_value
        assert np.array_equal(a.global_best_position, b.global_best_position)

    def test_global_best_is_min_of_personal_bests(self):
        state = init_swarm(make_config(), sphere)
        assert state.global_best_value == min(p.personal_best_value for p in state.particles)

    def test_sliver_bounds(self):
        eps = 1e-9
        cfg = make_config(lower=(1.0 - eps,) * 5, upper=(1.0,) * 5)
        state = init_swarm(cfg, sphere)
        for p in state.particles:
            assert np.all(p.position >= 1.0 - eps) and np.all(p.position <= 1.0)


class TestStepParticle:
    def test_zero_learning_factors_keep_velocity(self):
        cfg = make_config(c1=0.0, c2=0.0)
        particle = Particle(
            position=np.zeros(5),
            velocity=np.full(5, 0.25),
            personal_best_position=np.ones(5),
            personal_best_value=5.0,
        )
        rng = np.random.default_rng(3)
        moved = step_particle(particle, np.full(5, -1.0), cfg, rng)
        assert np.array_equal(moved.velocity, np.full(5, 0.25))
        assert np.array_equal(moved.position, np.full(5, 0.25))

    def test_attraction_vanishes_at_shared_best(self):
        cfg = make_config()
        x = np.full(5, 0.5)
        particle = Particle(
            position=x.copy(),
            velocity=np.full(5, 0.125),
            personal_best_position=x.copy(),
            personal_best_value=1.25,
        )
        moved = step_particle(particle, x.copy(), cfg, np.random.default_rng(4))
        assert np.array_equal(moved.velocity, np.full(5, 0.125))

    def test_outward_velocity_clamped_and_zeroed(self):
        cfg = make_config(dimension=1, lower=(-5.0,), upper=(5.0,))
        particle = Particle(
            position=np.array([5.0]),
            velocity=np.array([1.0]),
            personal_best_position=np.array([5.0]),
            personal_best_value=25.0,
        )
        moved = step_particle(particle, np.array([5.0]), cfg, np.random.default_rng(5))
        assert moved.position[0] == 5.0
        assert moved.velocity[0] == 0.0

    def test_personal_best_untouched(self):
        cfg = make_config()
        particle = Particle(
            position=np.zeros(5),
            velocity=np.zeros(5),
            personal_best_position=np.full(5, 2.0),
            personal_best_value=20.0,
        )
        moved = step_particle(particle, np.full(5, -2.0), cfg, np.random.default_rng(6))
        assert np.array_equal(moved.personal_best_position, np.full(5, 2.0))
        assert moved.personal_best_value == 20.0

    @pytest.mark.parametrize("dimension", [1, 5])
    def test_matches_oracle_transcription(self, dimension):
        gen = np.random.default_rng(12345)
        for _ in range(250):
            lower = tuple(gen.uniform(-10.0, 0.0, dimension))
            upper = tuple(gen.uniform(0.5, 10.0, dimension))
            cfg = make_config(
                dimension=dimension,
                lower=lower,
                upper=upper,
                c1=float(gen.uniform(0.0, 3.0)),
                c2=float(gen.uniform(0.0, 3.0)),
                max_evaluations=100,
                swarm_size=10,
            )
            x = gen.uniform(lower, upper)
            v = gen.uniform(-2.0, 2.0, dimension)
            pb = gen.uniform(lower, upper)
            gb = gen.uniform(lower, upper)
            particle = Particle(
                position=x.copy(),
                velocity=v.copy(),
                personal_best_position=pb.copy(),
                personal_best_value=0.0,
            )
            seed = int(gen.integers(1 << 31))
            moved = step_particle(particle, gb, cfg, np.random.default_rng(seed))
            check = np.random.default_rng(seed)
            u1, u2 = check.random(), check.random()
            ox, ov = oracle_step(x, v, pb, gb, cfg.c1, cfg.c2, u1, u2, lower, upper)
            assert moved.position == pytest.approx(ox, abs=1e-12)
            assert moved.velocity == pytest.approx(ov, abs=1e-12)


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

    def test_all_non_finite_fitness_completes(self):
        cfg = make_config(max_evaluations=200)
        result = run(cfg, lambda x: math.inf)
        assert result.evaluations_used == 200
        assert result.best_value == math.inf
