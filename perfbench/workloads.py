"""The benchmark workloads: the CLI call each one makes and its output checks.

Every workload is one ``tripace`` command line, called in-process through
``tripace.cli.main`` by a single closed-loop caller.  ``prepare`` makes the
inputs from the seed before timing starts; ``Prepared.check`` judges one
call's exit code and output bytes and returns the problems it found.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import inputs

# The feasible box and ceiling the predict workloads run under: the CLI
# defaults, written out so the checks do not depend on the code under test.
BOX = {
    "swim": (25.0, 50.0),
    "t1": (2.0, 5.0),
    "bike": (140.0, 180.0),
    "t2": (2.0, 5.0),
    "run": (85.0, 120.0),
}
KMAX = 300.0
NP = 50
MAX_FES = 10_000

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("predict_ref", "predict_field", "load_correlate")

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def golden_hashes() -> dict[str, dict[str, str]]:
    """SHA-256 of the stdout of each workload's call, by workload and seed."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Prepared:
    """One workload made concrete for a seed, plus the state of its checks."""

    name: str
    argv: list[str]
    work_per_call: int
    work_unit: str
    golden: str | None
    calibration: str
    expect: dict = field(default_factory=dict)
    first_out: str | None = None
    first_problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def check(self, code: int, out: str, err: str) -> list[str]:
        """Problems with one call's result; an empty list means correct.

        The first call's output is checked in full; every later call must
        repeat it byte for byte, and a repeat shares the first call's problems.
        """
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0: {err.strip()[-200:]}")
            return problems
        if self.golden is not None and sha256(out) != self.golden:
            problems.append("report differs from the golden report of this seed")
        if self.first_out is None:
            self.first_out = out
            checker = _check_predict if self.name.startswith("predict") else _check_correlate
            self.first_problems = checker(self, out)
        if out != self.first_out:
            problems.append("repeated call gave different output bytes")
        else:
            problems += self.first_problems
        if "skipped" in self.expect:
            expected = f"skipped {self.expect['skipped']} row(s) while loading:"
            if expected not in err.splitlines():
                problems.append(f"stderr lacks the line {expected!r}")
        return problems


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Make the inputs of workload ``name`` for ``seed``; nothing is timed."""
    golden = golden_hashes().get(name, {}).get(str(seed))
    if name in ("predict_ref", "predict_field"):
        spec = inputs.ref_spec() if name == "predict_ref" else inputs.field_spec(seed)
        runs = 5 if name == "predict_ref" else 2
        argv = [
            "predict",
            "--synth-spec", json.dumps(spec),
            "--runs", str(runs),
            "--seed", str(seed),
            "--np", str(NP),
            "--max-fes", str(MAX_FES),
            "--kmax", str(KMAX),
            "--output", "json",
        ]
        calibration = "swarm_small" if name == "predict_ref" else "swarm_field"
        return Prepared(
            name, argv, runs, "swarm runs", golden, calibration,
            expect={"runs": runs, "seed": seed, "size": spec["size"]},
        )
    if name == "load_correlate":
        result = inputs.result_csv(seed)
        path = workdir / f"results-{seed}.csv"
        path.write_text(result.text, encoding="utf-8")
        argv = ["correlate", "--archive", str(path), "--group", "25-29", "--top-n", "30"]
        return Prepared(
            name, argv, result.rows, "rows", golden, "swarm_small",
            expect={"path": path, "group": "25-29", "top_n": 30,
                    "kept": result.kept, "skipped": result.dnf},
        )
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def _check_predict(prep: Prepared, out: str) -> list[str]:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    expect = prep.expect
    if doc["archive"]["size"] != expect["size"]:
        problems.append(f"archive size {doc['archive']['size']}, expected {expect['size']}")
    runs = doc["runs"]
    if [r["seed"] for r in runs] != [expect["seed"] + i for i in range(1, expect["runs"] + 1)]:
        problems.append("run seeds are not base seed + run index")
    gaps = []
    for r in runs:
        if "error" in r:
            continue
        splits = r["splits_min"]
        for name, (low, high) in BOX.items():
            if not low <= splits[name] <= high:
                problems.append(f"run {r['run']}: {name} {splits[name]} outside [{low}, {high}]")
        total = splits["swim"] + splits["t1"] + splits["bike"] + splits["t2"] + splits["run"]
        if total != r["total_min"]:
            problems.append(f"run {r['run']}: total {r['total_min']} is not the split sum {total}")
        if not r["total_min"] <= KMAX:
            problems.append(f"run {r['run']}: total {r['total_min']} above the ceiling {KMAX}")
        if not r["r_after"] > r["r_before"]:
            problems.append(f"run {r['run']}: correlation sum did not rise")
        gaps.append(KMAX - r["total_min"])
    if not gaps:
        problems.append("no feasible run, yet exit code 0")
    prep.quality = {
        "experiment.feasible_run_share": len(gaps) / len(runs),
        "preference.ceiling_gap_min": statistics.fmean(gaps) if gaps else 0.0,
    }
    return problems


def _check_correlate(prep: Prepared, out: str) -> list[str]:
    from tripace.archive import load_archive, select_group
    from tripace.stats import pearson

    expect = prep.expect
    with redirect_stderr(io.StringIO()):  # one warning per skipped row
        records, skipped = load_archive(expect["path"])
    problems = []
    if (len(records), len(skipped)) != (expect["kept"], expect["skipped"]):
        problems.append(
            f"loaded {len(records)} rows and skipped {len(skipped)}, "
            f"expected {expect['kept']} and {expect['skipped']}"
        )
    archive = select_group(records, expect["group"], expect["top_n"], label=expect["path"].stem)
    swim, bike, run = archive.swim_column(), archive.bike_column(), archive.run_column()
    r_sb, r_br = pearson(swim, bike), pearson(bike, run)
    expected = (
        f"archive {archive.label} group {archive.group} (n={len(archive)})\n"
        f"swim-bike r: {r_sb:.6f}\n"
        f"bike-run  r: {r_br:.6f}\n"
        f"sum         {r_sb + r_br:.6f}\n"
    )
    if out != expected:
        problems.append(f"correlate printed {out!r}, expected {expected!r}")
    return problems
