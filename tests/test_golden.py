"""Golden reports: ``tripace predict`` output is byte-identical for a fixed seed.

The reference synthetic archive (spec seed 1, 30 rows, r = (0.73, 0.0)) is
predicted five times at ``--seed 10`` with the default swarm (NP 50,
10 000 evaluations, c1 = c2 = 2, ceiling 300), and each report format is
compared byte for byte with a file under ``tests/golden/``.  The benchmark's
``predict_field`` call (a 10 000-row synthetic archive, 2 runs, JSON) is
checked at ``--seed 10`` by the SHA-256 of its stdout, against
``perfbench/golden.json``.  A change that moves a single byte of these
reports changes behaviour.

To regenerate the files after an intended behaviour change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tripace.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")
BENCHMARK_HASHES = Path(__file__).parents[1] / "perfbench" / "golden.json"
BENCHMARK_INPUTS = Path(__file__).parents[1] / "perfbench" / "inputs.py"

REFERENCE_SPEC = {
    "seed": 1,
    "size": 30,
    "r_swim_bike": 0.73,
    "r_bike_run": 0.0,
    "means": [34.0, 3.5, 167.0, 3.5, 92.0],
    "spreads": [2.0, 0.7, 4.0, 0.7, 5.0],
}

FORMATS = {"text": "txt", "csv": "csv", "json": "json"}


def render(output: str) -> str:
    """The stdout of the reference ``predict`` call in one report format."""
    return predict_stdout([
        "predict",
        "--synth-spec", json.dumps(REFERENCE_SPEC),
        "--runs", "5",
        "--seed", "10",
        "--output", output,
    ])


def predict_stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue()


def golden_path(output: str) -> Path:
    return GOLDEN_DIR / f"predict_ref_seed10.{FORMATS[output]}"


@pytest.mark.parametrize("output", sorted(FORMATS))
def test_report_matches_golden_file(output):
    expected = golden_path(output).read_bytes()
    assert render(output).encode("utf-8") == expected


def test_benchmark_hash_matches_golden_file():
    # the benchmark checks the same JSON report by hash; both sources agree
    hashes = json.loads(BENCHMARK_HASHES.read_text(encoding="utf-8"))
    digest = hashlib.sha256(golden_path("json").read_bytes()).hexdigest()
    assert digest == hashes["predict_ref"]["10"]


def test_field_report_matches_benchmark_hash(monkeypatch):
    # the benchmark's predict_field call, with the spec its input generator makes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCHMARK_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclass looks itself up there
    spec.loader.exec_module(inputs)
    out = predict_stdout([
        "predict",
        "--synth-spec", json.dumps(inputs.field_spec(10)),
        "--runs", "2",
        "--seed", "10",
        "--np", "50",
        "--max-fes", "10000",
        "--kmax", "300",
        "--output", "json",
    ])
    assert json.loads(out)["archive"]["size"] == 10_000
    hashes = json.loads(BENCHMARK_HASHES.read_text(encoding="utf-8"))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == hashes["predict_field"]["10"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in FORMATS:
        golden_path(name).write_bytes(render(name).encode("utf-8"))
        print(f"wrote {golden_path(name)}")
