"""tripace benchmark: end-to-end and per-layer timings of the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict_ref --seed 10 --seconds 30 --trace 0

One process, one thread, one closed-loop caller: each ``tripace.cli.main``
call starts after the previous one returned.  The inputs are made from
``--seed`` before timing starts; one untimed warm-up call precedes the timed
loop, which runs for ``--seconds``.  Every call's exit code and output are
checked (see ``workloads.py``), and failures count against ``attempted``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends a third
of the time untraced and two thirds with ``spans.Tracer`` installed, and
reports per-layer metrics (medians over the traced calls) plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads
from hostspeed import REFERENCE_IMPORT_S, calibrate, factor

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"

END_TO_END = (
    ("call_s", "s"),
    ("call_s_tail", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_BATCH = 6
MIN_CALLS = 3


@dataclass
class Loop:
    """Outcomes of the calls made so far."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems += problems[:3]


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """One in-process ``tripace`` call: exit code, stdout, stderr, wall seconds."""
    import tripace.cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = tripace.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
            traceback.print_exc()
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def measure(prep: workloads.Prepared, seconds: float, loop: Loop,
            before=None, after=None) -> tuple[list[float], list[float]]:
    """Call the CLI for ``seconds`` (at least ``MIN_CALLS`` times).

    Returns each call's wall seconds and its host-speed factor, from the
    workload's calibration loop timed just before and just after the call.
    """
    walls, factors = [], []
    kind = prep.calibration
    cal_before = calibrate(kind)
    deadline = perf_counter() + seconds
    while len(walls) < MIN_CALLS or perf_counter() < deadline:
        if before:
            before()
        code, out, err, elapsed = call_cli(prep.argv)
        if after:
            after()
        cal_after = calibrate(kind)
        loop.record(prep.check(code, out, err))
        walls.append(elapsed)
        factors.append(factor(cal_before, cal_after))
        cal_before = cal_after
    return walls, factors


def warm_up(prep: workloads.Prepared, loop: Loop) -> None:
    """One untimed call, checked like every other: lazy imports and first
    allocations happen here rather than in the first timed call."""
    code, out, err, _ = call_cli(prep.argv)
    loop.record(prep.check(code, out, err))


def measure_setup() -> list[float]:
    """``SETUP_BATCH`` samples of the seconds a cold interpreter takes to
    import ``tripace.cli``, at reference host speed.

    Each sample is the import over a fresh interpreter's ``import numpy``
    timed just before it, times ``REFERENCE_IMPORT_S``.  The children are
    waited for without a timeout: ``subprocess`` polls a child that has one
    in sleeps of up to 50 ms, which would round every sample to that step.
    """
    samples = []
    for _ in range(SETUP_BATCH):
        reference = child_seconds("import numpy")
        samples.append(child_seconds("import tripace.cli") / reference * REFERENCE_IMPORT_S)
    return samples


def child_seconds(code: str) -> float:
    """Wall seconds of one ``python -c code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return perf_counter() - start


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest sample with at least ten samples above it, and a label.

    With fewer than eleven samples no such sample exists; the maximum is
    reported instead and the label says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} calls (fewer than 11)"
    rank = n - 11
    return ordered[rank], f"p{100.0 * rank / (n - 1):.0f}, 10 of {n} calls above it"


def untraced(prep: workloads.Prepared, seconds: float, loop: Loop) -> dict:
    # the first import writes the bytecode caches; it is not a sample.  Set-up
    # is sampled in two batches, before and after the calls, so that its
    # median spans the host-speed phases of the whole run.
    child_seconds("import tripace.cli")
    setup = measure_setup()
    warm_up(prep, loop)
    walls, factors = measure(prep, seconds, loop)
    setup += measure_setup()
    scaled = [w * f for w, f in zip(walls, factors)]
    tail_value, tail_label = tail(scaled)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "call_s": statistics.median(scaled),
        "call_s_tail": tail_value,
        "work_per_s": prep.work_per_call * len(scaled) / sum(scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {
        "call_s": f"median of {len(scaled)} calls at reference host speed",
        "call_s_tail": tail_label,
        "work_per_s": f"{prep.work_unit} per second, {prep.work_per_call} per call",
        "setup_s": f"median of {len(setup)} cold imports of tripace.cli, "
                   "each scaled by a cold import of numpy",
        "peak_rss_mb": "peak resident memory of the benchmark process",
        "wall_call_s": f"{statistics.median(walls):.6g} s  median raw wall time per call",
        "host_speed": f"{statistics.median(factors):.4g}  median host-speed factor "
                      f"(range {min(factors):.3g}-{max(factors):.3g})",
    }
    for name, value in prep.quality.items():
        notes[name] = f"{value:.6g}  deterministic per seed"
    return {"metrics": {n: (values[n], u) for n, u in END_TO_END}, "notes": notes}


def traced(prep: workloads.Prepared, seconds: float, loop: Loop) -> dict:
    warm_up(prep, loop)
    walls, factors = measure(prep, seconds / 3.0, loop)
    plain = [w * f for w, f in zip(walls, factors)]
    tracer = spans.Tracer()
    per_call: list[dict[str, float]] = []
    tracer.install()
    try:
        walls, factors = measure(
            prep, 2.0 * seconds / 3.0, loop,
            before=tracer.begin_call,
            after=lambda: per_call.append(tracer.end_call()),
        )
    finally:
        tracer.uninstall()
    saved = tracer.save(WORKDIR / f"spans-{prep.name}.npz")
    timed = [w * f for w, f in zip(walls, factors)]

    # times are scaled per call; counts and ratios repeat exactly per call
    timing = {name for name, unit, _ in spans.PER_LAYER if unit in ("s", "us")}
    values = {
        name: statistics.median([call[name] * f for call, f in zip(per_call, factors)])
        if name in timing else statistics.median_low(call[name] for call in per_call)
        for name in per_call[0]
    }
    values.update({
        "experiment.feasible_run_share": prep.quality.get("experiment.feasible_run_share", 0.0),
        "preference.ceiling_gap_min": prep.quality.get("preference.ceiling_gap_min", 0.0),
        "trace.call_s": statistics.median(timed),
        "trace.overhead_s": statistics.median(timed) - statistics.median(plain),
    })
    notes = {
        "trace.call_s": f"median of {len(timed)} traced calls",
        "trace.overhead_s": f"traced minus untraced median ({len(plain)} untraced calls)",
        "spans": f"{saved} spans of the first traced calls in {WORKDIR.name}/spans-{prep.name}.npz",
    }
    return {
        "metrics": {name: (values[name], unit) for name, unit, _ in spans.PER_LAYER},
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tripace" / "cli.py").is_file():
        print(f"error: no tripace sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tripace.cli

    if Path(tripace.cli.__file__).resolve().parent != (SRC / "tripace").resolve():
        print(f"error: imported tripace from {tripace.cli.__file__}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    prep = workloads.prepare(args.workload, args.seed, WORKDIR)
    loop = Loop()
    run = traced if args.trace else untraced
    result = run(prep, args.seconds, loop)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  {name:32s} {note}")
    print(f"  {'error_rate':32s} {loop.failed / loop.attempted:14.6g} {'ratio':6s} "
          f"{loop.failed} failed of {loop.attempted} calls")
    for problem in loop.problems:
        print(f"  problem: {problem}")
    summary = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
