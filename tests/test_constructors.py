"""The constructor contract of the validated classes and of the records.

``PsoConfig``, ``ModelConfig``, ``ExperimentConfig``, ``Archive`` and
``ResultRows`` check and normalise their fields in ``__init__``; the
records (``CorrelationPair``, ``PredictionResult``, ``RunOutcome`` and
``ExperimentReport``) are NamedTuples.  Neither kind lets a field be
assigned or deleted after construction.  ``ModelConfig(bounds=None)`` is
refused by ``test_preference.py::TestModelConfig::test_bounds_must_be_a_dict``.
"""

import numpy as np
import pytest

from tables import SYNTH_MEANS, SYNTH_SPREADS
from tripace import preference
from tripace.archive import Archive, ResultRows, synthesize_archive
from tripace.experiment import ExperimentConfig, ExperimentReport, RunOutcome
from tripace.preference import DEFAULT_BOUNDS, ModelConfig, PredictionResult, SplitVector, predict
from tripace.pso import PsoConfig
from tripace.stats import CorrelationPair

SPEC = {
    "seed": 1, "size": 30, "r_swim_bike": 0.73, "r_bike_run": 0.0,
    "means": list(SYNTH_MEANS), "spreads": list(SYNTH_SPREADS),
}
PLAN = SplitVector(30.0, 3.0, 160.0, 3.0, 95.0)
TIMES = np.array([[30.0], [3.0], [160.0], [3.0], [95.0], [291.0]])

INSTANCES = {
    "PsoConfig": lambda: PsoConfig(swarm_size=5, lower=(0.0,), upper=(1.0,)),
    "ModelConfig": ModelConfig,
    "ExperimentConfig": lambda: ExperimentConfig(synth_spec=SPEC),
    "Archive": lambda: Archive("x", "g", [1], ("A",), ("-",), TIMES),
    "ResultRows": lambda: ResultRows(("g",), np.array([1]), ("A",), ("-",), TIMES),
    "CorrelationPair": lambda: CorrelationPair(0.5, 0.25),
    "PredictionResult": lambda: PredictionResult(PLAN, 0.75),
    "RunOutcome": lambda: RunOutcome(1, 11, PredictionResult(PLAN, 0.75)),
    "ExperimentReport": lambda: ExperimentReport("x", "g", 30, 0.5, (), (0.0,), (0.0,)),
}
RECORDS = ("CorrelationPair", "PredictionResult", "RunOutcome", "ExperimentReport")


@pytest.mark.parametrize("name", INSTANCES)
def test_fields_are_fixed_at_construction(name):
    instance = INSTANCES[name]()
    field = getattr(instance, "_fields", type(instance).__slots__)[0]
    value = getattr(instance, field)
    with pytest.raises(AttributeError):
        setattr(instance, field, 0)
    with pytest.raises(AttributeError):
        delattr(instance, field)
    with pytest.raises(AttributeError):
        instance.extra = 0
    assert getattr(instance, field) is value


@pytest.mark.parametrize("name", RECORDS)
def test_record_equals_one_built_from_the_same_values(name):
    assert INSTANCES[name]() == INSTANCES[name]()


def test_record_properties():
    assert CorrelationPair(0.5, 0.25).sum == 0.75
    outcome = INSTANCES["RunOutcome"]()
    assert outcome.feasible and outcome.minutes == (*PLAN, 291.0)
    assert not RunOutcome(2, 12, None, "no feasible plan").feasible


def test_configs_compare_by_value_and_archives_by_identity():
    assert INSTANCES["PsoConfig"]() == PsoConfig(5, [0], [1])
    assert hash(INSTANCES["PsoConfig"]()) == hash(PsoConfig(5, [0], [1]))
    assert ModelConfig() == ModelConfig() != ModelConfig(target_ceiling=299.0)
    archive = INSTANCES["Archive"]()
    assert archive == archive != INSTANCES["Archive"]()


def test_default_bounds_and_model_are_fresh_copies():
    first, second = ModelConfig(), ModelConfig()
    assert first.bounds == second.bounds == DEFAULT_BOUNDS
    assert first.bounds is not second.bounds and first.bounds is not DEFAULT_BOUNDS
    experiment = ExperimentConfig(synth_spec=SPEC)
    assert experiment.model == ModelConfig()
    assert experiment.model is not ExperimentConfig(synth_spec=SPEC).model


def test_predict_runs_a_placeholder_box_in_the_models_box(monkeypatch):
    seen = []
    real_run = preference.run

    def recording_run(config, fitness):
        seen.append(config)
        return real_run(config, fitness)

    monkeypatch.setattr(preference, "run", recording_run)
    placeholder = PsoConfig(
        swarm_size=10, lower=(0.0,) * 5, upper=(1.0,) * 5, c1=1.5, c2=2.5,
        max_evaluations=500, rng_seed=7,
    )
    model = ModelConfig()
    result = predict(synthesize_archive(**SPEC), model, placeholder)
    [config] = seen
    assert config == PsoConfig(10, model.lower_bounds(), model.upper_bounds(), 1.5, 2.5, 500, 7)
    assert all(lo <= x <= hi for x, lo, hi in zip(result.splits, config.lower, config.upper))


def test_predict_checks_the_swarm_settings_again_in_the_models_box():
    # c1 = 5e306 keeps a step finite in a box 1 wide, but not in the swim box, 25 wide
    placeholder = PsoConfig(swarm_size=10, lower=(0.0,) * 5, upper=(1.0,) * 5, c1=5e306)
    with pytest.raises(ValueError, match="a swarm step could overflow: bounds \\[25.0, 50.0\\]"):
        predict(synthesize_archive(**SPEC), ModelConfig(), placeholder)
