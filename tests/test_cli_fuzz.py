"""Fuzzing the command line: malformed input ends in an exit code, never a traceback.

Each example builds one ``tripace`` command line from a mix of valid and
malformed pieces (option values, synthesis specs, ``--bounds`` objects and
archive files in CSV or JSON) and calls :func:`tripace.cli.main` in-process.
The call must end with exit code 0, 2 or 3, counting argparse's
``SystemExit``, and an exit code 2 from ``main`` itself must end stderr with
one ``error:`` line.  A second property sends every archive file drawn to
``correlate``, so that each garbled cell reaches the loader.  Swarm budgets
stay at a few dozen evaluations and synthetic archives at a few dozen rows,
so the whole test takes seconds.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tables import SYNTH_MEANS, SYNTH_SPREADS, TABLE1_ROWS
from tripace.archive import CSV_COLUMNS
from tripace.cli import main

# Arbitrary JSON values: the malformed counterpart of every spec entry.  The
# numbers stay within +-1000 because a spec's size is a row count that the
# generator allocates, and redraws up to max_tries times.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(-1000.0, 1000.0)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def mostly(valid, malformed, odds=5):
    """``malformed`` one time in ``odds``, ``valid`` otherwise."""
    return st.sampled_from(range(odds)).flatmap(lambda i: malformed if i == 0 else valid)


def rarely(strategy):
    """``strategy``'s value one time in eight, None otherwise."""
    return st.sampled_from(range(8)).flatmap(lambda i: strategy if i == 7 else st.none())


# Command-line tokens an option value might be: numbers in and out of range,
# non-finite spellings, and words.
tokens = st.one_of(
    st.integers(-3, 400).map(str),
    st.sampled_from(["0", "-1", "1e400", "nan", "inf", "-inf", "2.5", "abc", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def int_tokens(low, high):
    """Mostly integers in ``[low, high]``, sometimes any token."""
    return mostly(st.integers(low, high).map(str), tokens, odds=10)


def float_tokens(low, high):
    """Mostly numbers in ``[low, high]``, sometimes any token."""
    return mostly(st.floats(low, high).map(repr) | st.integers(low, high).map(str), tokens, odds=10)


# JSON nested far past the interpreter's recursion limit.
deep_json = st.just("[" * 100_000 + "]" * 100_000)

# Free text for an argument that takes inline JSON or a file path, including
# a path component too long for the file system and deeply nested JSON.
json_arg_text = st.text(max_size=40) | st.integers(250, 300).map(lambda n: "x" * n) | deep_json

SPEC_ENTRIES = {
    "seed": st.integers(0, 2**32),
    "size": st.integers(5, 40),
    "r_swim_bike": st.sampled_from([0.73, 0.18, 1.0]) | st.floats(-1.0, 1.0),
    "r_bike_run": st.sampled_from([0.0, 0.03, 1.0]) | st.floats(-1.0, 1.0),
    "means": st.just(list(SYNTH_MEANS)) | st.lists(st.floats(1, 200), min_size=5, max_size=5),
    "spreads": st.just(list(SYNTH_SPREADS)) | st.lists(st.floats(0.1, 10), min_size=5, max_size=5),
}
SPEC_OPTIONAL = {
    "label": st.text(max_size=6),
    "group": st.text(max_size=6),
    "tolerance": st.floats(0.0, 1.0),
    "max_tries": st.integers(-2, 20),
}


@st.composite
def synth_specs(draw):
    """Synthesis specs with some entries malformed, dropped or unknown."""
    spec = {key: draw(mostly(valid, json_values)) for key, valid in SPEC_ENTRIES.items()}
    for key, valid in SPEC_OPTIONAL.items():
        value = draw(rarely(mostly(valid, json_values)))
        if value is not None:
            spec[key] = value
    dropped = draw(rarely(st.sampled_from(sorted(spec))))
    spec.pop(dropped, None)
    unknown = draw(rarely(st.text(max_size=6)))
    if unknown is not None:
        spec[unknown] = draw(json_values)
    return spec


def bounds_args():
    pair = st.tuples(st.floats(1.0, 60.0), st.floats(0.5, 60.0)).map(lambda p: [p[0], p[0] + p[1]])
    malformed = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=2)
    value = mostly(pair, malformed | json_values)
    names = mostly(st.sampled_from(["swim", "t1", "bike", "t2", "run"]), st.text(max_size=5))
    return mostly(st.dictionaries(names, value, max_size=3).map(json.dumps), json_arg_text)


# Time cells whose digits overflow a float, as hours and as decimal
# minutes, put in one of the six time columns.
long_digits = st.tuples(
    st.just("junk"), st.integers(4, 9), st.sampled_from(["9" * 400 + ":00:00", "9" * 400])
)

# A cell one character longer than the csv module accepts.
oversized_cell = st.just("x" * (csv.field_size_limit() + 1))

# The reference rows with swim and bike scaled to about 1e-100 min, written
# as plain decimals: each variance is positive, but their product is 0.0.
TINY_ROWS = [
    (*row[:4], f"{float(row[4]) * 1e-100:.120f}", row[5], f"{float(row[6]) * 1e-100:.120f}",
     row[7], row[8], f"{float(row[5]) + float(row[7]) + float(row[8]):.2f}")
    for row in TABLE1_ROWS
]


def _garbled(fields):
    """A CSV row from ``fields`` with some replaced by junk, dropped or added."""
    edits = st.lists(
        st.tuples(st.sampled_from(["junk", "drop", "add"]), st.integers(0, 9), st.text(max_size=8))
        | long_digits
        | st.tuples(st.just("junk"), st.integers(0, 9), oversized_cell),
        min_size=1,
        max_size=3,
    )

    def apply(changes):
        out = [str(f) for f in fields]
        for kind, index, junk in changes:
            index %= len(out) or 1
            if kind == "junk" and out:
                out[index] = junk
            elif kind == "drop" and out:
                del out[index]
            else:
                out.insert(index, junk)
        return ",".join(out)

    return edits.map(apply)


@st.composite
def csv_texts(draw):
    """The reference rows, or their tiny-split copies, some garbled, with blank
    and junk lines between."""
    header = draw(mostly(st.just(",".join(CSV_COLUMNS)), st.text(max_size=40) | oversized_cell))
    lines = [header]
    for fields in draw(st.permutations(draw(mostly(st.just(TABLE1_ROWS), st.just(TINY_ROWS))))):
        lines.append(draw(mostly(st.just(",".join(str(f) for f in fields)), _garbled(fields))))
        extra = draw(rarely(st.sampled_from(["", ",,,,,,,,,"]) | st.text(max_size=30)))
        if extra is not None:
            lines.append(extra)
    return "\n".join(lines) + "\n"


@st.composite
def json_texts(draw):
    """The reference rows as JSON objects, some with values replaced."""
    entries = []
    for fields in draw(st.permutations(TABLE1_ROWS)):
        entry = dict(zip(CSV_COLUMNS, fields))
        keys = mostly(st.sampled_from(CSV_COLUMNS), st.text(max_size=5))
        changes = draw(rarely(st.dictionaries(keys, json_values, min_size=1, max_size=2)))
        junk = draw(rarely(json_values))
        entries.append({**entry, **(changes or {})} if junk is None else junk)
    malformed = json_values.map(json.dumps) | st.text(max_size=40) | deep_json
    return draw(mostly(st.just(json.dumps(entries)), malformed))


archive_files = st.one_of(
    st.tuples(st.just(".csv"), csv_texts()),
    st.tuples(st.just(".json"), json_texts()),
    st.tuples(st.sampled_from([".csv", ".json", ".txt"]), st.binary(max_size=64)),
)


@st.composite
def command_lines(draw):
    """(argv, archive file or None): one ``tripace`` call to make."""
    command = draw(mostly(st.sampled_from(["predict", "correlate", "synth"]), st.just("bogus")))
    argv = [command]
    archive = None
    source = draw(
        mostly(st.sampled_from(["archive", "spec"]), st.sampled_from(["spec-text", "none", "both"]))
    )
    if source in ("archive", "both"):
        archive = draw(archive_files)
        argv += ["--archive", "{archive}"]
        group = draw(rarely(st.sampled_from(["M", ""]) | st.text(max_size=5)))
        if group != "":
            argv += ["--group", "PRO-M" if group is None else group]
        options = {
            "--format": st.sampled_from(["auto", "csv", "json", "xml"]),
            "--top-n": int_tokens(3, 40),
        }
        for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True)):
            argv += [option, draw(options[option])]
    if source in ("spec", "both"):
        argv += ["--synth-spec", json.dumps(draw(synth_specs()))]
    if source == "spec-text":
        argv += ["--synth-spec", draw(json_arg_text)]
    if command == "synth":
        argv += ["--out", "{out}"]
    if command == "predict":
        argv += ["--np", draw(int_tokens(1, 8))]
        argv += ["--max-fes", draw(int_tokens(8, 40))]
        argv += ["--runs", draw(int_tokens(1, 3))]
        options = {
            "--seed": int_tokens(0, 1000),
            "--kmax": float_tokens(250, 365),
            "--personal-best": float_tokens(265, 385),
            "--c1": float_tokens(0, 3),
            "--c2": float_tokens(0, 3),
            "--bounds": bounds_args(),
            "--output": mostly(st.sampled_from(["text", "csv", "json"]), st.text(max_size=5)),
        }
        for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True)):
            argv += [option, draw(options[option])]
    return argv, archive


# A learning factor whose swarm step would overflow, with a budget that moves
# the swarm: pinned, so that it does not rest on a draw of ``tokens``.
OVERFLOWING_STEP = [
    "predict",
    "--synth-spec",
    json.dumps({
        "seed": 1, "size": 30, "r_swim_bike": 0.73, "r_bike_run": 0.0,
        "means": list(SYNTH_MEANS), "spreads": list(SYNTH_SPREADS),
    }),
    "--np", "50", "--max-fes", "2000", "--c1", "1.5e308",
]


def write_archive(tmp: str, archive: tuple[str, str | bytes]) -> str:
    """Write one ``archive_files`` example into ``tmp``; return its path."""
    suffix, content = archive
    path = Path(tmp) / f"results{suffix}"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(call=command_lines())
@example(call=(OVERFLOWING_STEP, None))
def test_malformed_input_ends_in_an_exit_code(call):
    argv, archive = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"archive": "", "out": str(Path(tmp) / "out.csv")}
        if archive is not None:
            paths["archive"] = write_archive(tmp, archive)
        argv = [token.format(**paths) if token in ("{archive}", "{out}") else token for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
                from_argparse = False
            except SystemExit as exc:
                code = exc.code
                from_argparse = True
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 2 and not from_argparse:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith("error: "), (argv, err.getvalue())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(archive=archive_files)
def test_malformed_archive_ends_in_an_exit_code(archive):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["correlate", "--archive", write_archive(tmp, archive), "--group", "PRO-M", "--top-n", "5"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (archive, code, err.getvalue())
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: "), (archive, err.getvalue())
