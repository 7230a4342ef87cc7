"""Command line front end.

Three subcommands:

* ``predict``   -- run N independent split predictions against an archive
                   and emit a per-run plus mean/stdev report
* ``correlate`` -- print the correlation pair of an archive, the number a
                   coach checks before trusting any prediction
* ``synth``     -- generate a synthetic archive and write it as CSV

Exit codes: 0 success, 2 unusable input (file, schema, configuration, or
a size too large to allocate), 3 experiment ran but every run was infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .archive import DISCIPLINES, ArchiveError, SynthesisError, write_archive_csv
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    OUTPUT_FORMATS,
    emit_report,
    resolve_archive,
    run_experiment,
    synthesize_from_spec,
)
from .preference import DEFAULT_BOUNDS, ModelConfig
from .stats import CorrelationUndefinedError, archive_correlation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3

# A personal-best-derived ceiling aims five percent under the best prior time.
PERSONAL_BEST_IMPROVEMENT = 0.05


def _parse_json_arg(value: str, what: str) -> dict:
    """Accept inline JSON, or a path to a JSON file."""
    try:
        parsed = json.loads(value)
    except RecursionError:
        raise argparse.ArgumentTypeError(f"{what} is not valid JSON: nested too deeply") from None
    except json.JSONDecodeError:
        # not JSON: a path, which may also be too long, a directory or unreadable
        try:
            text = Path(value).read_text(encoding="utf-8-sig")
        except (OSError, ValueError):
            raise argparse.ArgumentTypeError(f"{what} is neither JSON nor a readable file: {value!r}")
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(f"{what} file {value!r} is not valid JSON: {exc}")
        except RecursionError:
            raise argparse.ArgumentTypeError(
                f"{what} file {value!r} is not valid JSON: nested too deeply"
            ) from None
    if not isinstance(parsed, dict):
        raise argparse.ArgumentTypeError(f"{what} must be a JSON object")
    return parsed


def _synth_spec(value: str) -> dict:
    return _parse_json_arg(value, "synthesis spec")


def _bounds_arg(value: str) -> dict:
    return _parse_json_arg(value, "bounds")


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--archive", metavar="PATH", help="result file (CSV or JSON)")
    source.add_argument(
        "--synth-spec",
        type=_synth_spec,
        metavar="JSON",
        help="synthetic archive description, inline JSON or a path to a JSON file",
    )
    parser.add_argument(
        "--format",
        choices=("auto", "csv", "json"),
        default="auto",
        help="input file format (default: by extension)",
    )
    parser.add_argument("--group", help="category to select from the archive file")
    parser.add_argument(
        "--top-n", type=int, default=30,
        help="how many of the group's best finishers to select from --archive "
        "(default 30, at least 3); a synthesis spec sets its own size",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripace",
        description="Predict middle-distance triathlon split times from result archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="run split predictions and report them")
    _add_source_args(p)
    p.add_argument("--runs", type=int, default=5, help="independent runs (default 5)")
    p.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    target = p.add_mutually_exclusive_group()
    target.add_argument(
        "--kmax", type=float, default=300.0, metavar="MINUTES",
        help="target ceiling for the overall time (default 300)",
    )
    target.add_argument(
        "--personal-best", type=float, default=None, metavar="MINUTES",
        help="derive the ceiling as a five percent improvement on this time",
    )
    p.add_argument("--np", type=int, default=50, dest="swarm_size", help="swarm size (default 50)")
    p.add_argument(
        "--max-fes", type=int, default=10_000, help="evaluation budget per run (default 10000)"
    )
    p.add_argument("--c1", type=float, default=2.0, help="cognitive learning factor")
    p.add_argument("--c2", type=float, default=2.0, help="social learning factor")
    p.add_argument(
        "--bounds",
        type=_bounds_arg,
        default=None,
        metavar="JSON",
        help='per-discipline bounds overrides, e.g. \'{"swim": [20, 40]}\'',
    )
    p.add_argument("--output", choices=OUTPUT_FORMATS, default="text", help="report format")
    p.add_argument("--out", metavar="PATH", default=None, help="write report here (default stdout)")

    c = sub.add_parser("correlate", help="print the correlation pair of an archive")
    _add_source_args(c)

    s = sub.add_parser("synth", help="write a synthetic archive as CSV")
    s.add_argument(
        "--synth-spec", type=_synth_spec, required=True, metavar="JSON",
        help="synthetic archive description, inline JSON or a path to a JSON file",
    )
    s.add_argument("--out", metavar="PATH", required=True, help="CSV file to write")

    return parser


def _model_from_args(args: argparse.Namespace) -> ModelConfig:
    bounds = dict(DEFAULT_BOUNDS)
    if args.bounds is not None:
        unknown = set(args.bounds) - set(DISCIPLINES)
        if unknown:
            raise ValueError(f"unknown discipline(s) in bounds: {sorted(unknown)}")
        bounds.update(args.bounds)  # ModelConfig refuses malformed pairs
    ceiling = args.kmax
    if args.personal_best is not None:
        ceiling = (1.0 - PERSONAL_BEST_IMPROVEMENT) * args.personal_best
    return ModelConfig(bounds=bounds, target_ceiling=ceiling)


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        archive_path=args.archive,
        archive_format=args.format,
        synth_spec=args.synth_spec,
        group=args.group,
        top_n=args.top_n,
        runs=args.runs,
        base_seed=args.seed,
        swarm_size=args.swarm_size,
        max_evaluations=args.max_fes,
        c1=args.c1,
        c2=args.c2,
        model=_model_from_args(args),
    )
    try:
        report = run_experiment(cfg)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    rendered = emit_report(report, args.output)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        Path(args.out).write_text(rendered, encoding="utf-8")
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        archive_path=args.archive,
        archive_format=args.format,
        synth_spec=args.synth_spec,
        group=args.group,
        top_n=args.top_n,
    )
    archive = resolve_archive(cfg)
    pair = archive_correlation(archive)
    print(f"archive {archive.label} group {archive.group} (n={len(archive)})")
    print(f"swim-bike r: {pair.r_swim_bike:.6f}")
    print(f"bike-run  r: {pair.r_bike_run:.6f}")
    print(f"sum         {pair.sum:.6f}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    archive = synthesize_from_spec(args.synth_spec)
    write_archive_csv(archive, args.out)
    pair = archive_correlation(archive)
    print(
        f"wrote {len(archive)} records to {args.out} "
        f"(swim-bike r {pair.r_swim_bike:.4f}, bike-run r {pair.r_bike_run:.4f})"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"predict": _cmd_predict, "correlate": _cmd_correlate, "synth": _cmd_synth}
    try:
        return handlers[args.command](args)
    except (ArchiveError, SynthesisError, CorrelationUndefinedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a synthetic archive or a swarm too large to hold
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
