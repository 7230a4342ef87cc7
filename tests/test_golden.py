"""Golden reports: ``tripace predict`` output is byte-identical for a fixed seed.

The reference synthetic archive (spec seed 1, 30 rows, r = (0.73, 0.0)) is
predicted five times at ``--seed 10`` with the default swarm (NP 50,
10 000 evaluations, c1 = c2 = 2, ceiling 300), and each report format is
compared byte for byte with a file under ``tests/golden/``.  The benchmark's
``predict_field`` call (a 10 000-row synthetic archive, 2 runs, JSON) and
its ``load_correlate`` call (``correlate`` on a 10 000-row result file with
200 DNF rows) are checked at seed 10 by the SHA-256 of their stdout, against
``perfbench/golden.json``; the 200 skipped-row lines that ``load_correlate``
prints on stderr are compared byte for byte with
``tests/golden/load_correlate_seed10.stderr``.  Both also hold for the
same file with CRLF or lone-CR line ends, for it with a NUL in its first
name and for it with one name quoted in its last block.  The ``synth``
files of the reference spec and of the benchmark's whole-field spec are
pinned by their SHA-256.  A change that moves a single byte of these
outputs changes behaviour.

To regenerate the report files after an intended behaviour change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from helpers import assert_same_rows, reference_load_archive, rows_from_records
from tripace.archive import load_archive
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

# SHA-256 of the file ``tripace synth`` writes for the reference spec and for
# the benchmark's whole-field spec at seed 10.
SYNTH_HASHES = {
    "reference": "c29a137d35945afb002d0ea5a2ce451d62e994e5bb0af4af9e41782fb1e42de3",
    "field": "18a50af1828c6099ca80f393430b740dc7900dbe642f46ed2e55bf7226e6302a",
}


def render(output: str) -> str:
    """The stdout of the reference ``predict`` call in one report format."""
    return cli_stdout([
        "predict",
        "--synth-spec", json.dumps(REFERENCE_SPEC),
        "--runs", "5",
        "--seed", "10",
        "--output", output,
    ])


def cli_stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue()


@pytest.fixture
def bench_inputs(monkeypatch):
    """The benchmark's input generator, ``perfbench/inputs.py``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCHMARK_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclass looks itself up there
    spec.loader.exec_module(inputs)
    return inputs


def benchmark_hash(workload: str) -> str:
    hashes = json.loads(BENCHMARK_HASHES.read_text(encoding="utf-8"))
    return hashes[workload]["10"]


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


def test_field_report_matches_benchmark_hash(bench_inputs):
    # the benchmark's predict_field call, with the spec its input generator makes
    out = cli_stdout([
        "predict",
        "--synth-spec", json.dumps(bench_inputs.field_spec(10)),
        "--runs", "2",
        "--seed", "10",
        "--np", "50",
        "--max-fes", "10000",
        "--kmax", "300",
        "--output", "json",
    ])
    assert json.loads(out)["archive"]["size"] == 10_000
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == benchmark_hash("predict_field")


def result_file(bench_inputs, folder: Path, seed: int = 10) -> Path:
    """The benchmark's load_correlate input at ``seed``, named as it names it."""
    path = folder / f"results-{seed}.csv"
    path.write_text(bench_inputs.result_csv(seed).text, encoding="utf-8")
    return path


def assert_golden_correlate_output(path: Path) -> None:
    """The benchmark's load_correlate call on ``path`` prints the golden
    stdout and names every skipped DNF row on stderr as the golden file does."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["correlate", "--archive", str(path), "--group", "25-29", "--top-n", "30"])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == benchmark_hash("load_correlate")
    expected = (GOLDEN_DIR / "load_correlate_seed10.stderr").read_bytes()
    assert err.getvalue().encode("utf-8") == expected


def test_correlate_report_matches_benchmark_hash(bench_inputs, tmp_path):
    assert_golden_correlate_output(result_file(bench_inputs, tmp_path))


def crlf_lines(text: str) -> str:
    return text.replace("\n", "\r\n")


def lone_cr_lines(text: str) -> str:
    return text.replace("\n", "\r")


def nul_in_first_name(text: str) -> str:
    """``text`` with a NUL in the name of its first row, in the file's first
    block, which the csv module reads as one more character of the name."""
    header, first, rest = text.split("\n", 2)
    return f"{header}\nNUL\0{first}\n{rest}"


def quoted_last_name(text: str) -> str:
    """``text`` with the name of its last row quoted, a DNF row in the
    file's last block, which the csv module reads to the same fields."""
    head, last = text.rstrip("\n").rsplit("\n", 1)
    name, rest = last.split(",", 1)
    return f'{head}\n"{name}",{rest}\n'


@pytest.mark.parametrize(
    "rewrite", [crlf_lines, lone_cr_lines, nul_in_first_name, quoted_last_name]
)
def test_correlate_output_is_the_same_for_other_line_ends_and_quotes(
    rewrite, bench_inputs, tmp_path
):
    path = result_file(bench_inputs, tmp_path)
    text = path.read_text(encoding="utf-8")
    assert rewrite(text) != text
    path.write_bytes(rewrite(text).encode("utf-8"))  # no newline translation
    assert_golden_correlate_output(path)


# seed 10 and seed 23, the two benchmark files that load timings are taken on
@pytest.mark.parametrize("seed", [10, 23])
def test_result_file_loads_as_the_per_row_loader_does(seed, bench_inputs, tmp_path):
    path = result_file(bench_inputs, tmp_path, seed)
    rows, skipped = load_archive(path)
    records, expected_skipped = reference_load_archive(path)
    assert (len(rows), len(skipped)) == (9_800, 200)
    assert skipped == expected_skipped
    assert_same_rows(rows, rows_from_records(records))


@pytest.mark.parametrize("name", sorted(SYNTH_HASHES))
def test_synth_file_bytes(name, bench_inputs, tmp_path):
    spec = REFERENCE_SPEC if name == "reference" else bench_inputs.field_spec(10)
    out = tmp_path / "synth.csv"
    cli_stdout(["synth", "--synth-spec", json.dumps(spec), "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYNTH_HASHES[name]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in FORMATS:
        golden_path(name).write_bytes(render(name).encode("utf-8"))
        print(f"wrote {golden_path(name)}")
