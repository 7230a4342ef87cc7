import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_pearson, preference_fitness
from tables import SYNTH_MEANS, SYNTH_SPREADS
from tripace.archive import Archive, extend_archive, synthesize_archive
from tripace.preference import (
    DEFAULT_BOUNDS,
    DISCIPLINES,
    ModelConfig,
    NoFeasibleSolutionError,
    SplitVector,
    _position_fitness,
    predict,
    resolve_target_ceiling,
)
from tripace.pso import PsoConfig, run
from tripace.stats import CorrelationPair, archive_correlation
from tripace.timekit import parse_duration


def make_pso(seed, max_evaluations=10_000, swarm_size=50):
    # bounds are placeholders; predict() swaps in the model's box
    return PsoConfig(
        swarm_size=swarm_size,
        lower=(0.0,) * 5,
        upper=(1.0,) * 5,
        max_evaluations=max_evaluations,
        rng_seed=seed,
    )


def from_total(total, swim=33.0, t1=3.0, bike=165.0, t2=3.5):
    return SplitVector(swim=swim, t1=t1, bike=bike, t2=t2, run=total - swim - t1 - bike - t2)


class TestSplitVector:
    def test_total(self):
        x = SplitVector(30.0, 3.0, 160.0, 3.0, 95.0)
        assert x.total() == 291.0

    def test_unpacks_in_discipline_order(self):
        # the report rows unpack a plan and label its cells with DISCIPLINES
        x = SplitVector(30.0, 3.0, 160.0, 3.0, 95.0)
        assert x._fields == DISCIPLINES
        assert (*x, x.total()) == (30.0, 3.0, 160.0, 3.0, 95.0, 291.0)


class TestModelConfig:
    def test_defaults_are_valid(self):
        cfg = ModelConfig()
        assert resolve_target_ceiling(cfg) == 300.0
        assert cfg.lower_bounds() == (25.0, 2.0, 140.0, 2.0, 85.0)
        assert cfg.upper_bounds() == (50.0, 5.0, 180.0, 5.0, 120.0)

    def test_ceiling_below_reachable_range(self):
        with pytest.raises(ValueError, match="feasible set is empty"):
            ModelConfig(target_ceiling=200.0)

    def test_ceiling_too_large_for_a_finite_penalty(self):
        huge = dict(DEFAULT_BOUNDS, bike=(140.0, 1e308), run=(85.0, 1e308))
        with pytest.raises(ValueError, match="feasible set is empty"):
            ModelConfig(bounds=huge, target_ceiling=1e308)
        assert math.isfinite(ModelConfig(bounds=huge, target_ceiling=1e307).infeasible_penalty)

    def test_ceiling_at_floor_is_allowed(self):
        assert ModelConfig(target_ceiling=254.0).target_ceiling == 254.0

    @given(
        lows=st.lists(st.floats(0.5, 200.0), min_size=5, max_size=5),
        widths=st.lists(st.floats(1e-9, 1e6), min_size=5, max_size=5),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_penalty_above_every_feasible_score(self, lows, widths, share):
        bounds = {name: (low, low + width) for name, low, width in zip(DISCIPLINES, lows, widths)}
        floor_sum = sum(low for low, _ in bounds.values())
        roof_sum = sum(high for _, high in bounds.values())
        ceiling = min(roof_sum, floor_sum + share * (roof_sum - floor_sum))
        cfg = ModelConfig(bounds=bounds, target_ceiling=ceiling)
        # the best feasible score is that of the plan at the lower bounds
        assert math.isfinite(cfg.infeasible_penalty)
        assert cfg.infeasible_penalty > ceiling - floor_sum

    def test_bounds_key_set_enforced(self):
        with pytest.raises(ValueError, match="bounds"):
            ModelConfig(bounds={"swim": (25.0, 50.0)})

    @pytest.mark.parametrize("bounds", [None, 5, list(DEFAULT_BOUNDS.items())])
    def test_bounds_must_be_a_dict(self, bounds):
        with pytest.raises(ValueError, match="bounds must be a dict"):
            ModelConfig(bounds=bounds)

    @pytest.mark.parametrize(
        "pair",
        [
            5,
            None,
            "ab",
            (25.0,),
            (25.0, 40.0, 50.0),
            {25.0: 1, 50.0: 2},
            ("25", "50"),
            (True, 50.0),
            (25.0, float("inf")),
            (float("nan"), 50.0),
            (25, 10**400),
        ],
    )
    def test_bound_must_be_a_pair_of_finite_numbers(self, pair):
        with pytest.raises(ValueError, match=r"bounds for 'swim' must be a \[low, high\] pair of finite numbers"):
            ModelConfig(bounds=dict(DEFAULT_BOUNDS, swim=pair))

    @pytest.mark.parametrize("pair", [(25, 50), [25.0, 50.0], (np.float64(25.0), 50)])
    def test_bound_pairs_of_numbers_accepted(self, pair):
        cfg = ModelConfig(bounds=dict(DEFAULT_BOUNDS, swim=pair))
        assert cfg.lower_bounds()[0] == 25.0 and cfg.upper_bounds()[0] == 50.0


class TestResolveTargetCeiling:
    def test_explicit(self):
        assert resolve_target_ceiling(ModelConfig(target_ceiling=300.0)) == 300.0

    def test_missing_explicit_ceiling(self):
        with pytest.raises(ValueError, match="target ceiling None"):
            ModelConfig(target_ceiling=None)


class TestTotalTime:
    def test_reference_mean_row(self):
        splits = SplitVector(
            *(parse_duration(t) for t in ("33:51.15", "2:48.87", "2:47:33.79", "3:48.42", "1:31:57.68"))
        )
        assert splits.total() == pytest.approx(parse_duration("4:59:59.93"), abs=0.01)

    def test_box_corners(self):
        cfg = ModelConfig()
        assert SplitVector(*cfg.lower_bounds()).total() == pytest.approx(254.0)
        assert SplitVector(*cfg.upper_bounds()).total() == pytest.approx(360.0)


def leverage_candidate(scale, t1=5.0, t2=5.0):
    """Candidate offset from the synthetic archive centroid along the
    correlated direction; negative scales stay under the ceiling."""
    return SplitVector(
        swim=34.0 + scale * 2.0,
        t1=t1,
        bike=167.0 + scale * 4.0,
        t2=t2,
        run=92.0 + scale * 5.0,
    )


class TestPreferenceFitness:
    def test_feasible_candidate_scores_gap_to_ceiling(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        candidate = leverage_candidate(-2.0)
        extended = extend_archive(high_corr_archive, candidate)
        r2 = oracle_pearson(
            extended.swim_column().tolist(), extended.bike_column().tolist()
        ) + oracle_pearson(
            extended.bike_column().tolist(), extended.run_column().tolist()
        )
        assert r2 > pair.sum  # candidate chosen to tighten the correlation
        value = preference_fitness(candidate, high_corr_archive, cfg, pair)
        assert value == pytest.approx(300.0 - candidate.total())
        assert value < cfg.infeasible_penalty

    def test_total_above_ceiling_is_penalty(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        candidate = from_total(301.0)
        assert preference_fitness(candidate, high_corr_archive, cfg, pair) == cfg.infeasible_penalty

    def test_total_exactly_at_ceiling_is_feasible(self, high_corr_archive):
        candidate = leverage_candidate(-2.0)
        cfg = ModelConfig(target_ceiling=candidate.total())
        pair = archive_correlation(high_corr_archive)
        value = preference_fitness(candidate, high_corr_archive, cfg, pair)
        assert value == 0.0

    def test_correlation_degrading_candidate_is_penalty(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        base_swim = high_corr_archive.swim_column().tolist()
        base_bike = high_corr_archive.bike_column().tolist()
        base_run = high_corr_archive.run_column().tolist()

        best = None
        for swim, bike, run in itertools.product(
            np.linspace(25.0, 50.0, 8), np.linspace(140.0, 180.0, 8), np.linspace(85.0, 120.0, 8)
        ):
            if swim + bike + run + 4.0 > 300.0:
                continue
            r2 = oracle_pearson(base_swim + [swim], base_bike + [bike]) + oracle_pearson(
                base_bike + [bike], base_run + [run]
            )
            if best is None or r2 < best[0]:
                best = (r2, swim, bike, run)
        r2_min, swim, bike, run = best
        assert r2_min < pair.sum
        worst = SplitVector(swim=swim, t1=2.0, bike=bike, t2=2.0, run=run)
        assert worst.total() <= 300.0
        assert preference_fitness(worst, high_corr_archive, cfg, pair) == cfg.infeasible_penalty

    def test_undefined_extended_correlation_is_penalty(self):
        # handcrafted three-row archive with a constant swim column; appending
        # a candidate with the same swim keeps the column constant
        rows = [
            (30.0, 3.0, 150.0 + i, 3.0, 90.0 + 2 * i, 30.0 + 3.0 + 150.0 + i + 3.0 + 90.0 + 2 * i)
            for i in (1, 2, 3)
        ]
        base = Archive("flat", "M", [1, 2, 3], ("A1", "A2", "A3"), ("-",) * 3, np.array(rows).T)
        cfg = ModelConfig()
        fake_pair = CorrelationPair(r_swim_bike=0.0, r_bike_run=0.0)
        candidate = SplitVector(swim=30.0, t1=3.0, bike=160.0, t2=3.0, run=95.0)
        assert preference_fitness(candidate, base, cfg, fake_pair) == cfg.infeasible_penalty
        # the swarm's path: the closure raises, and fitness scores the penalty
        fitness = _position_fitness(base, cfg, fake_pair)
        assert fitness(tuple(candidate)) == cfg.infeasible_penalty

    def test_feasible_branch_ordering(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        lower = leverage_candidate(-2.0, t1=4.0, t2=4.0)
        higher = leverage_candidate(-2.0, t1=5.0, t2=5.0)
        f_low = preference_fitness(lower, high_corr_archive, cfg, pair)
        f_high = preference_fitness(higher, high_corr_archive, cfg, pair)
        assert f_low < cfg.infeasible_penalty and f_high < cfg.infeasible_penalty
        assert higher.total() > lower.total()
        assert f_high < f_low


class TestFitnessLiteral:
    """Hand-placed candidates at the correlation gate of the objective."""

    def test_agrees_on_correlation_infeasibility(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        # a point set against the swim-bike correlation robustly lowers it
        against = SplitVector(swim=48.0, t1=3.5, bike=141.0, t2=3.5, run=92.0)
        extended = extend_archive(high_corr_archive, against)
        r2 = oracle_pearson(
            extended.swim_column().tolist(), extended.bike_column().tolist()
        ) + oracle_pearson(
            extended.bike_column().tolist(), extended.run_column().tolist()
        )
        assert r2 < pair.sum
        assert preference_fitness(against, high_corr_archive, cfg, pair) == cfg.infeasible_penalty

    def test_sample_centroid_leaves_correlation_unchanged(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        centroid = SplitVector(
            float(high_corr_archive.swim_column().mean()),
            3.5,
            float(high_corr_archive.bike_column().mean()),
            3.5,
            float(high_corr_archive.run_column().mean()),
        )
        # appending the exact centroid cannot strictly raise the sum
        assert preference_fitness(centroid, high_corr_archive, cfg, pair) in (
            cfg.infeasible_penalty,
            pytest.approx(300.0 - centroid.total()),
        )


class TestPositionFitnessEquivalence:
    def test_matches_composed_path_exactly(self, high_corr_archive):
        cfg = ModelConfig()
        pair = archive_correlation(high_corr_archive)
        fast = _position_fitness(high_corr_archive, cfg, pair)
        rng = np.random.default_rng(99)
        lower = np.array(cfg.lower_bounds())
        upper = np.array(cfg.upper_bounds())
        for _ in range(300):
            position = lower + rng.random(5) * (upper - lower)
            composed = preference_fitness(
                SplitVector(*position), high_corr_archive, cfg, pair
            )
            assert fast(tuple(position.tolist())) == composed


@pytest.fixture(scope="module")
def field_archive():
    return synthesize_archive(
        seed=7,
        size=1_000,
        r_swim_bike=0.6,
        r_bike_run=0.2,
        means=SYNTH_MEANS,
        spreads=SYNTH_SPREADS,
        label="field",
        group="M25-29",
    )


def swarm_visited_positions(archive, cfg, seed):
    """Every position one full-budget swarm run evaluates on ``archive``."""
    fast = _position_fitness(archive, cfg, archive_correlation(archive))
    visited = []

    def recording(position):
        visited.append(np.array(position))
        return fast(position)

    pso_cfg = PsoConfig(
        swarm_size=50,
        lower=cfg.lower_bounds(),
        upper=cfg.upper_bounds(),
        rng_seed=seed,
    )
    run(pso_cfg, recording)
    return visited


class TestPositionFitnessOnSwarmPaths:
    """The closed-form fitness returns exactly what the composed path
    returns on every position a real swarm visits.  The swarm converges on
    the edge of the feasible set, where random points in the box rarely
    fall and where candidates pass the correlation test by the smallest
    margins."""

    @pytest.mark.parametrize(
        "archive_name, seeds",
        [
            ("high_corr_archive", (3, 4, 5)),
            ("low_corr_archive", (3, 4, 5)),
            ("field_archive", (3, 4)),
        ],
    )
    def test_every_visited_position_matches_composed_path(self, archive_name, seeds, request):
        archive = request.getfixturevalue(archive_name)
        cfg = ModelConfig()
        pair = archive_correlation(archive)
        fast = _position_fitness(archive, cfg, pair)
        for seed in seeds:
            visited = swarm_visited_positions(archive, cfg, seed)
            assert len(visited) == 10_000
            feasible = correlation_rejects = 0
            for position in visited:
                composed = preference_fitness(SplitVector(*position), archive, cfg, pair)
                assert fast(tuple(position.tolist())) == composed, (seed, position.tolist())
                if composed < cfg.infeasible_penalty:
                    feasible += 1
                elif sum(position.tolist()) <= 300.0:
                    correlation_rejects += 1
            # both outcomes of the correlation test occur on the path
            assert feasible > 0 and correlation_rejects > 0


class TestPredict:
    def test_end_to_end_feasible(self, high_corr_archive):
        cfg = ModelConfig()
        result = predict(high_corr_archive, cfg, make_pso(seed=11))
        assert result.splits.total() <= 300.0
        assert result.correlation_after > archive_correlation(high_corr_archive).sum
        splits = np.array(result.splits)
        assert all(splits >= np.array(cfg.lower_bounds()))
        assert all(splits <= np.array(cfg.upper_bounds()))

    def test_deterministic(self, high_corr_archive):
        cfg = ModelConfig()
        a = predict(high_corr_archive, cfg, make_pso(seed=12, max_evaluations=2_000))
        b = predict(high_corr_archive, cfg, make_pso(seed=12, max_evaluations=2_000))
        assert a == b

    def test_no_feasible_solution(self):
        from tripace.archive import synthesize_archive

        collinear = synthesize_archive(
            seed=3,
            size=30,
            r_swim_bike=1.0,
            r_bike_run=1.0,
            means=(34.0, 3.5, 167.0, 3.5, 92.0),
            spreads=(2.0, 0.7, 4.0, 0.7, 5.0),
        )
        with pytest.raises(NoFeasibleSolutionError, match="no feasible plan"):
            predict(collinear, ModelConfig(), make_pso(seed=1, max_evaluations=2_000))
