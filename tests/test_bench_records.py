"""Every committed benchmark record is a correct run with no failed call.

Each ``BENCH_*.json`` at the repository root holds the benchmark runs
behind one performance claim.  A run's result is an object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that gave a
wrong output or failed a call backs no claim, so the suite refuses it.
"""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parents[1]).glob("BENCH_*.json"))


def results(value):
    """Every object in ``value`` that has a ``correct`` key, depth first."""
    if isinstance(value, dict):
        if "correct" in value:
            yield value
        for item in value.values():
            yield from results(item)
    elif isinstance(value, list):
        for item in value:
            yield from results(item)


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_every_recorded_result_is_correct(path):
    found = list(results(json.loads(path.read_text())))
    assert found, f"{path.name} records no result"
    wrong = [
        (index, result.get("correct"), result.get("failed"))
        for index, result in enumerate(found)
        if result["correct"] is not True or result.get("failed") != 0
    ]
    assert not wrong, f"{path.name}: results (index, correct, failed) {wrong}"
