"""The split schema and result archives: loading, group selection, extension, synthesis.

An archive is the ordered finisher rows of one race and one category, and
is the reference population against which a candidate split assignment is
judged.  It is stored by column: the six times of every row sit in one
read-only (6, n) float64 array, one C-contiguous row per time column, so the
correlation code reads a column without a copy, the synthetic generator
builds an archive from its draws with a few numpy calls, and extending an
archive appends one column.

The row rules are written once, in :func:`_row_faults`, and checked on
whole columns: a finish place of at least 1, five strictly positive splits,
and an overall within :data:`OVERALL_SLACK` of the split sum.  Every
:class:`Archive` keeps them, and its places never decrease.  Loading
accepts the CSV/JSON exports described in the README and keeps their rows
by column too (:class:`ResultRows`): it reads a block of rows at a time,
parses each time column of the block in one pass, which reads every cell
once, and keeps the rows that keep the row rules and whose places are at
most :data:`MAX_PLACE`, a cap of result files only.  A block of CSV lines
is split into its columns on its commas in one call, which reads each line
as the csv module does, unless it holds a quote, a line of another number
of fields than the header's or a field over ``csv.field_size_limit()``;
from the first block that does, the csv module reads the rest of the file,
since a quoted field may span lines and run past any block's end.  Rows
that fail (splits not positive, overall not matching the split sum, a time
that does not read) are skipped and reported rather than aborting the
load, since public race exports routinely contain DNF/DSQ rows; a blank
CSV row fails too, and is dropped without a word.  The split schema, the
five disciplines in race order and the vector of their times, lives here,
below the model that predicts splits, and so does the synthesis spec: its
keys are the parameters of :func:`synthesize_archive`.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import eq
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .pso import finite_number, integer_setting
from .stats import pearson
from .timekit import DurationParseError, parse_duration, parse_durations

DISCIPLINES = ("swim", "t1", "bike", "t2", "run")

# the time columns of a result row, in the order of an archive's rows of times
TIME_COLUMNS = (*DISCIPLINES, "overall")

CSV_COLUMNS = ("name", "nation", "category", "place", *TIME_COLUMNS)

# Slack allowed between a row's overall time and the sum of its five splits,
# in minutes; covers per-split rounding in source data.
OVERALL_SLACK = 0.05

MIN_ARCHIVE_SIZE = 3

# Largest finish place of a result file: an archive keeps places as int64,
# and this leaves room to append rows, so an archive itself has no such cap.
MAX_PLACE = 2**62

# Rows that load_archive reads and parses per pass: enough to spread the cost
# of each pass, few enough that the raw rows of a large file are never all
# held at once.
_BLOCK_ROWS = 1024

# Normals that synthesize_archive draws at most per chunk of tries (at least
# one try), the tries of its first chunk, which doubles up to that cap, and
# the band of variances that its screen of the tries trusts.
_CHUNK_NORMALS = 2**14
_FIRST_CHUNK_TRIES = 16
_SAFE_LOW = 2 * sys.float_info.min
_SAFE_HIGH = sys.float_info.max / 2


class ArchiveError(ValueError):
    """Malformed archive input or an operation on an unusable archive."""


class SynthesisError(RuntimeError):
    """The synthetic generator could not hit the requested correlations."""


class SplitVector(NamedTuple):
    """One candidate or predicted split assignment, minutes per discipline."""

    swim: float
    t1: float
    bike: float
    t2: float
    run: float

    def total(self) -> float:
        return self.swim + self.t1 + self.bike + self.t2 + self.run


@dataclass(frozen=True, eq=False)
class Archive:
    """Finisher rows of one race and group, ordered by finish place, by column.

    ``places`` is an int64 array and ``names`` and ``nations`` are tuples, one
    entry per row.  ``times`` is a (6, n) float64 array with one row per
    column of :data:`TIME_COLUMNS`; each of its rows is C-contiguous, so a
    column is read without a copy.  Both arrays are read-only.  The
    constructor keeps an array given as a C-contiguous array of the right
    type, and makes it read-only in place; anything else it copies into one.
    Every row keeps the row rules of :func:`_row_faults`, and places never
    decrease: finishers tied on a place may share it.  Two archives compare
    equal only when they are the same object.
    """

    label: str
    group: str
    places: np.ndarray
    names: tuple[str, ...]
    nations: tuple[str, ...]
    times: np.ndarray

    def __post_init__(self) -> None:
        places = _int64_places(self.places)
        times = _read_only(self.times, np.float64)
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "nations", tuple(self.nations))
        object.__setattr__(self, "times", times)
        n = len(self.names)
        if places.shape != (n,) or len(self.nations) != n or times.shape != (6, n):
            raise ArchiveError(
                f"columns of unequal length: {n} names, {len(self.nations)} nations, "
                f"places of shape {places.shape}, times of shape {times.shape}"
            )
        if not n:
            raise ArchiveError("archive must contain at least one record")
        for _, fault in _row_faults(places, times):
            raise ArchiveError(fault)
        if (places[1:] < places[:-1]).any():
            raise ArchiveError("finish places must not decrease")

    def __len__(self) -> int:
        return len(self.names)

    def swim_column(self) -> np.ndarray:
        return self.times[0]

    def bike_column(self) -> np.ndarray:
        return self.times[2]

    def run_column(self) -> np.ndarray:
        return self.times[4]


@dataclass(frozen=True, eq=False)
class ResultRows:
    """The rows of a result file by column, as :func:`load_archive` keeps them.

    ``categories``, ``names`` and ``nations`` are tuples and ``places`` an
    int64 array, one entry per row in file order; ``times`` is a (6, n)
    float64 array with one row per column of :data:`TIME_COLUMNS`.  Every
    row keeps the row rules of :func:`_row_faults`, and its place is at most
    :data:`MAX_PLACE`; places need not be in order.
    """

    categories: tuple[str, ...]
    places: np.ndarray
    names: tuple[str, ...]
    nations: tuple[str, ...]
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.categories)


def _read_only(values: object, dtype: type) -> np.ndarray:
    """``values`` as a read-only C-contiguous array of ``dtype``, copied only
    when it is not one already."""
    array = np.ascontiguousarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _int64_places(places: object) -> np.ndarray:
    """``places`` as a read-only int64 array, or an ArchiveError naming the
    first place that is not an integer or does not fit int64.

    Anything but an int64 array is checked place by place before the cast,
    which would wrap an unsigned place, truncate a fraction and reject a NaN
    with numpy's own error.
    """
    if not (isinstance(places, np.ndarray) and places.dtype == np.int64):
        for place in places.ravel().tolist() if isinstance(places, np.ndarray) else places:
            try:
                value = integer_setting("place", place)
            except ValueError:
                raise ArchiveError(f"finish place {place!r} is not an integer") from None
            if not -(2**63) <= value < 2**63:
                raise ArchiveError(f"finish place {place} does not fit int64")
    return _read_only(places, np.int64)


def _row_faults(places: np.ndarray, times: np.ndarray) -> Iterator[tuple[int, str]]:
    """The row rules, checked on whole columns of ``places`` and the (6, n) ``times``.

    Yields each row that breaks one, in row order, as its index and the
    message of the first rule it breaks: a place below 1, then a split that
    is not strictly positive, in the order of :data:`DISCIPLINES`, then an
    overall that differs from the split sum by more than
    :data:`OVERALL_SLACK`.  A NaN time breaks a rule, and so does an
    infinite overall with an infinite split sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        split_sum = times[0] + times[1] + times[2] + times[3] + times[4]
        # comparisons with a NaN are false, so a NaN split or difference fails
        placed = places >= 1
        positive = times[:5] > 0.0
        fits = np.abs(times[5] - split_sum) <= OVERALL_SLACK
    broken = np.flatnonzero(~(placed & positive.all(axis=0) & fits))
    # the first rule each broken row breaks
    holds = np.vstack((placed[broken], positive[:, broken], fits[broken]))
    for i, rule in zip(broken.tolist(), holds.argmin(axis=0).tolist()):
        if rule == 0:
            yield i, f"finish place must be positive, got {places[i]}"
        elif rule <= len(DISCIPLINES):
            yield i, f"split {DISCIPLINES[rule - 1]!r} must be strictly positive"
        else:
            yield i, (
                f"overall {times[5, i]:.4f} differs from split sum "
                f"{split_sum[i]:.4f} by more than {OVERALL_SLACK} min"
            )


def _skip_message(
    header: Sequence[str], row: list[str] | ArchiveError, times: np.ndarray
) -> str:
    """Why :func:`load_archive` skips ``row``, whose six times the column pass
    read as ``times``: its shape, then the first time that did not read,
    then its place, then the rules, as a per-row load checks them."""
    if isinstance(row, ArchiveError):  # a CSV row the csv module could not read
        return str(row)
    if len(row) > len(header):
        return f"{len(row) - len(header)} field(s) beyond the header's columns"
    if len(row) < len(header):
        missing = [key for key in CSV_COLUMNS if key not in header[:len(row)]]
        return f"row too short: no value for column(s) {missing}"
    cells = dict(zip(header, row))
    # parse_duration raises exactly where the column pass gave NaN
    for key in compress(TIME_COLUMNS, np.isnan(times).tolist()):
        try:
            parse_duration(cells[key])
        except DurationParseError as exc:
            return f"column {key!r}: {exc}"
    try:
        place = int(cells["place"])
    except ValueError:
        return f"column 'place': not an integer: {cells['place']!r}"
    if place > MAX_PLACE:
        return f"finish place must be at most {MAX_PLACE}, got {place}"
    # a place below the int64 range makes an object array, which compares alike
    return next(_row_faults(np.array([place]), times[:, None]))[1]


class _Block(NamedTuple):
    """Up to ``_BLOCK_ROWS`` consecutive rows of a result file.

    ``numbers`` names each row by its CSV line or JSON entry number.  A
    block of lines split on their commas holds ``columns``, one list of
    fields per column of ``header``, and no ``rows``.  Any other block
    holds ``rows`` and no ``columns``: each row as read, a list of its
    fields or the :class:`ArchiveError` of a CSV row the csv module could
    not read.  A CSV block may hold blank rows, with no field but
    whitespace, which are no rows of the file: ``drops_blank`` says to drop
    them without a word.
    """

    header: Sequence[str]
    numbers: Sequence[int]
    columns: Sequence[Sequence[str]] | None
    rows: Sequence[list[str] | ArchiveError] | None
    drops_blank: bool


def _split_columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The ``width`` columns of ``lines``, each line split on its commas, or
    None when the csv module might read a line otherwise.

    The csv module reads a line as exactly its split unless the line has a
    quote, another number of fields than ``width`` or a field over
    ``csv.field_size_limit()``, which a line over that limit is taken to
    hold.  Read with ``newline=""``, a line holds a carriage return only as
    its line end, alone or before a LF, so each line end becomes one LF.
    The lines are checked as one text and split in one call, each line end
    becoming a field of its own, ``"\\n"``, which no other field is: the
    line ends sit every ``width + 1`` fields exactly when every line has
    ``width`` fields.
    """
    text = "".join(lines)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):  # the file's last line may have no line end
        text += "\n"
    if '"' in text:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    flat = text.replace("\n", ",\n,").split(",")  # and an empty field after the last
    stride = width + 1
    size = len(lines) * stride
    if len(flat) != size + 1 or flat[width::stride].count("\n") != len(lines):
        return None
    return [flat[k:size:stride] for k in range(width)]


def _csv_blocks(path: Path) -> Iterator[_Block]:
    """The rows of a CSV file in blocks, each row with the file line it ends on.

    The header is read by the csv module.  Then each block of
    ``_BLOCK_ROWS`` lines is split on its commas by :func:`_split_columns`,
    one row per line, unless it holds a quote, a line of another number of
    fields or a field over ``csv.field_size_limit()``.  From the first block
    that does, the csv module reads the rest of the file, that block
    included, as it reads quoted fields, fields that span lines and blank or
    ragged rows; a quoted field may run past any block's end, so the split
    does not take over again.  Its reader counts only the lines it reads, so
    each of its rows is numbered by that count plus the lines read before
    that block, the header's and the split blocks'.  A row the csv module
    cannot read, such as one with a field over ``csv.field_size_limit()``,
    ends its block as an :class:`ArchiveError`; the next block resumes at
    the next line.  An unreadable header raises it.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports start with
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ArchiveError(f"{path}: header: {exc}") from exc
        if header is None:
            raise ArchiveError(f"{path}: missing header row")
        _check_columns(header, path)
        start = reader.line_num  # the lines read so far
        while True:
            # with newline="", the file gives the lines the csv module reads
            lines = list(islice(fh, _BLOCK_ROWS))
            if not lines:
                return
            columns = _split_columns(lines, len(header))
            if columns is None:
                break
            numbers = range(start + 1, start + 1 + len(lines))
            yield _Block(header, numbers, columns, None, drops_blank=True)
            start += len(lines)
        reader = csv.reader(chain(lines, fh))
        while True:
            numbers: list[int] = []
            rows: list[list[str] | ArchiveError] = []
            try:
                for fields in islice(reader, _BLOCK_ROWS):
                    rows.append(fields)
                    numbers.append(start + reader.line_num)
            except csv.Error as exc:
                rows.append(ArchiveError(str(exc)))
                numbers.append(start + reader.line_num)
            if not rows:
                return
            yield _Block(header, numbers, None, rows, drops_blank=True)


def read_json(text: str, source: object) -> object:
    """The value of the JSON ``text``, or an :class:`ArchiveError` naming ``source`` and why
    not: a syntax error (from its JSONDecodeError), too deep, or too long an integer."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ArchiveError(f"{source}: invalid JSON: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"{source}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses a literal of that many digits
        limit = sys.get_int_max_str_digits()
        raise ArchiveError(f"{source}: an integer of more than {limit} digits") from exc


def _json_blocks(path: Path) -> Iterator[_Block]:
    """The result objects of a JSON array in blocks, each with its 1-based
    entry number, their values as strings in the order of :data:`CSV_COLUMNS`."""
    payload = read_json(path.read_text(encoding="utf-8-sig"), path)
    if not isinstance(payload, list):
        raise ArchiveError(f"{path}: expected a JSON array of result objects")
    for start in range(0, len(payload), _BLOCK_ROWS):
        rows = []
        for i, entry in enumerate(payload[start:start + _BLOCK_ROWS], start=start + 1):
            if not isinstance(entry, dict):
                raise ArchiveError(f"{path}: entry {i} is not a result object: {entry!r}")
            _check_columns(entry.keys(), path)
            rows.append([str(entry[key]) for key in CSV_COLUMNS])
        numbers = range(start + 1, start + 1 + len(rows))
        yield _Block(CSV_COLUMNS, numbers, None, rows, drops_blank=False)


def _check_columns(names: Iterable[str], path: Path) -> None:
    names = list(names)
    got = set(names)
    expected = set(CSV_COLUMNS)
    unknown = got - expected
    missing = expected - got
    if unknown:
        raise ArchiveError(f"{path}: unknown column(s) {sorted(unknown)}")
    if missing:
        raise ArchiveError(f"{path}: missing column(s) {sorted(missing)}")
    if len(names) > len(got):
        repeated = sorted(n for n in got if names.count(n) > 1)
        raise ArchiveError(f"{path}: duplicate column(s) {repeated}")


def _places(texts: Sequence[str]) -> np.ndarray:
    """Each text as ``int()`` reads it, 0 where that is no place in [1, MAX_PLACE]."""
    try:
        places = list(map(int, texts))
    except ValueError:
        places = []
        for text in texts:
            try:
                places.append(int(text))
            except ValueError:
                places.append(0)
    if min(places) < 1 or max(places) > MAX_PLACE:
        places = [place if 1 <= place <= MAX_PLACE else 0 for place in places]
    return np.array(places, dtype=np.int64)


def _read_block(block: _Block, skipped: list[str], name: str) -> ResultRows:
    """The rows of ``block`` that keep the row rules, by column.

    Every time column is parsed in one pass, NaN where a cell does not read,
    and :func:`_row_faults` checks the rules on whole columns, where a NaN
    time or a place outside [1, :data:`MAX_PLACE`] breaks one.  A row that
    breaks one is skipped: a blank row of a block that ``drops_blank``
    without a word, any other with the message of :func:`_skip_message`
    appended to ``skipped``, so the kept rows and the messages are the ones
    a per-row load gives.
    """
    fields = block.columns
    if fields is None:
        # Made here, not by the reader, the columns are gone before the next
        # block is read; while they live, each garbage collection that the
        # next block's row lists set off passes over all their fields.
        width = len(block.header)
        filler = [""] * width  # reads as no time, so a misshapen row breaks a rule
        shaped = [
            row if type(row) is list and len(row) == width else filler for row in block.rows
        ]
        fields = list(zip(*shaped))
    columns = dict(zip(block.header, fields))
    times = np.vstack([parse_durations(columns[key]) for key in TIME_COLUMNS])
    places = _places(columns["place"])
    kept = np.ones(len(block.numbers), dtype=bool)
    for i, _ in _row_faults(places, times):  # in file order
        kept[i] = False
        row = [column[i] for column in fields] if block.rows is None else block.rows[i]
        if block.drops_blank and type(row) is list and not any(map(str.strip, row)):
            continue  # a blank line reads as no time, so it is never kept
        message = _skip_message(block.header, row, times[:, i])
        skipped.append(f"{name} row {block.numbers[i]}: {message}")
    mask = kept.tolist()
    return ResultRows(
        tuple(compress(columns["category"], mask)),
        places[kept],
        tuple(compress(columns["name"], mask)),
        tuple(compress(columns["nation"], mask)),
        times[:, kept],
    )


def load_archive(path: str | Path, format: str = "auto") -> tuple[ResultRows, list[str]]:
    """Load result rows from a CSV or JSON export, by column.

    Returns ``(rows, skipped)``.  ``rows`` holds the rows that keep the row
    rules of :func:`_row_faults` and whose places are at most
    :data:`MAX_PLACE`, in file order, as :class:`ResultRows`; tied places
    are kept.  ``skipped`` holds one message per row that was dropped, in
    file order, naming the row by its line in a CSV file (the line it ends
    on) or its entry number in a JSON array.  The file is read and parsed
    ``_BLOCK_ROWS`` rows at a time, each time column of a block in one
    :func:`~tripace.timekit.parse_durations` pass, so no row costs a record
    or a dict of its own unless it fails a check, and no cell is parsed
    twice but the one that names why a row is skipped.  A CSV file is read
    as the csv module reads it, but its blocks up to the first one with a
    quote, a line of another number of fields or a field over
    ``csv.field_size_limit()`` are split on their commas, with no list per
    row (:func:`_csv_blocks`).
    A CSV row with no field but whitespace fails a check, and is dropped
    there without a message.
    Raises :class:`ArchiveError` for structural problems: unreadable file or
    header, a file that is not UTF-8 text, JSON that :func:`read_json`
    refuses, unknown or missing columns, or zero parseable rows; its message
    then counts the skipped rows and quotes the first one's.
    """
    p = Path(path)
    if format == "auto":
        format = "json" if p.suffix.lower() == ".json" else "csv"
    if format not in ("csv", "json"):
        raise ValueError(f"unknown archive format {format!r}")
    blocks = _json_blocks(p) if format == "json" else _csv_blocks(p)
    parts: list[ResultRows] = []
    skipped: list[str] = []
    try:
        for block in blocks:  # reading happens here, one block at a time
            parts.append(_read_block(block, skipped, p.name))
    except OSError as exc:
        raise ArchiveError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:  # its position counts from the reader's chunk
        raise ArchiveError(f"{p}: not UTF-8 text ({exc.reason})") from exc
    rows = ResultRows(
        tuple(chain.from_iterable(part.categories for part in parts)),
        np.concatenate([part.places for part in parts] or [np.empty(0, np.int64)]),
        tuple(chain.from_iterable(part.names for part in parts)),
        tuple(chain.from_iterable(part.nations for part in parts)),
        np.concatenate([part.times for part in parts] or [np.empty((6, 0))], axis=1),
    )
    if not len(rows):
        # the caller prints no skip line then, so the error says why
        why = f"; {len(skipped)} row(s) skipped, the first: {skipped[0]}" if skipped else ""
        raise ArchiveError(f"{p}: zero parseable rows{why}")
    return rows, skipped


def write_archive_csv(archive: Archive, path: str | Path) -> None:
    """Write an archive out in the CSV schema, its group as every row's
    category and times as decimal minutes, straight from its columns."""
    times = [list(map("{:.6f}".format, column)) for column in archive.times.tolist()]
    places = archive.places.tolist()
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(archive.names, archive.nations, repeat(archive.group), places, *times))


def select_group(rows: ResultRows, group: str, top_n: int, label: str = "") -> Archive:
    """Archive of the best ``top_n`` finishers in one category.

    Picks the rows of the category, orders them by finish place (ties kept
    in file order), truncates, and builds the :class:`Archive` from the
    columns.  Fewer than three matching rows leave correlation undefined
    and raise.
    """
    if top_n < MIN_ARCHIVE_SIZE:
        raise ArchiveError(f"top_n must be at least {MIN_ARCHIVE_SIZE}, got {top_n}")
    matching = np.flatnonzero(
        np.fromiter(map(eq, rows.categories, repeat(group)), dtype=bool, count=len(rows))
    )
    if len(matching) < MIN_ARCHIVE_SIZE:
        raise ArchiveError(
            f"only {len(matching)} record(s) in group {group!r}; "
            f"need at least {MIN_ARCHIVE_SIZE}"
        )
    chosen = matching[np.argsort(rows.places[matching], kind="stable")][:top_n]
    picked = chosen.tolist()
    return Archive(
        label,
        group,
        rows.places[chosen],
        tuple(rows.names[i] for i in picked),
        tuple(rows.nations[i] for i in picked),
        rows.times[:, chosen],
    )


def extend_archive(base: Archive, prediction: SplitVector) -> Archive:
    """Copy of ``base`` with the predicted splits appended as one row.

    The appended row carries placeholder identity fields; only its split
    columns matter downstream.  ``base`` is never mutated.
    """
    appended = np.array([*prediction, prediction.total()])
    # the next place as a Python int, which cannot wrap as an int64 sum does
    place = _int64_places([int(base.places[-1]) + 1])
    return Archive(
        base.label,
        base.group,
        np.concatenate((base.places, place)),
        base.names + ("PREDICTION",),
        base.nations + ("-",),
        np.concatenate((base.times, appended[:, None]), axis=1),
    )


def _spec_value(key: str, value: object, kind: str) -> object:
    """``value`` as ``kind`` (numbers finite, as floats), or raise :class:`ArchiveError`."""
    if kind == "an integer":
        try:
            return integer_setting(key, value)
        except ValueError:
            pass
    elif kind == "a number" and finite_number(value):
        return float(value)
    elif kind == "a string" and isinstance(value, str):
        return value
    elif kind == "a list of 5 numbers" and isinstance(value, (list, tuple)) and len(value) == 5:
        if all(map(finite_number, value)):
            return [float(v) for v in value]
    raise ArchiveError(f"synthesis spec key {key!r} must be {kind}, got {value!r}")


def synthesize_archive(
    seed: int,
    size: int,
    r_swim_bike: float,
    r_bike_run: float,
    means: Sequence[float],
    spreads: Sequence[float],
    *,
    tolerance: float = 0.02,
    max_tries: int = 500,
    label: str = "synthetic",
    group: str = "SYN",
) -> Archive:
    """Generate an archive whose column correlations hit the given targets.

    The parameters are the keys of a synthesis spec: ``means`` and
    ``spreads`` are five numbers each, in the order of :data:`DISCIPLINES`.
    Swim and run columns share a latent component with the bike column, which
    pins their pairwise correlations; draws are retried until both measured
    correlations land within ``tolerance`` of the targets and all splits are
    positive.  Deterministic in ``seed``.

    A try draws ``5 * size`` normals: the latent, swim, run, T1 and T2
    draws, in that order.  Tries are drawn in chunks, one
    ``standard_normal((k, 5, size))`` call each, which is the stream of
    drawing them one try at a time.  The first chunk holds 16 tries and
    each next one twice as many, up to about 2**14 normals (``k`` at least
    1), so a spec that succeeds early draws few tries.  Positivity is
    checked for the whole chunk at once, and :func:`_surely_missed` screens
    out the positive tries whose correlations surely miss; the rest go to
    :func:`pearson` and the tolerance test in try order, as if every try
    went there.  So the archive, any :class:`CorrelationUndefinedError` and
    the :class:`SynthesisError` text, whose last achieved pair is that of
    the last positive try, do not depend on the screen.

    An argument of the wrong type (numbers must be finite, integers may be
    integral floats but not bools), a negative seed or tolerance, a
    ``max_tries`` below 1, a size below 5, a target outside [-1, 1] or a
    spread that is not positive raises :class:`ArchiveError` before any draw;
    draws that miss the targets ``max_tries`` times raise
    :class:`SynthesisError`.
    """
    seed = _spec_value("seed", seed, "an integer")
    size = _spec_value("size", size, "an integer")
    r_swim_bike = _spec_value("r_swim_bike", r_swim_bike, "a number")
    r_bike_run = _spec_value("r_bike_run", r_bike_run, "a number")
    means = _spec_value("means", means, "a list of 5 numbers")
    spreads = _spec_value("spreads", spreads, "a list of 5 numbers")
    tolerance = _spec_value("tolerance", tolerance, "a number")
    max_tries = _spec_value("max_tries", max_tries, "an integer")
    label = _spec_value("label", label, "a string")
    group = _spec_value("group", group, "a string")
    for key, value, least in (
        ("seed", seed, 0), ("tolerance", tolerance, 0.0), ("max_tries", max_tries, 1)
    ):
        if value < least:
            raise ArchiveError(
                f"synthesis spec key {key!r} must be at least {least}, got {value!r}"
            )
    if size < 5:
        raise ArchiveError(f"synthetic archive size must be at least 5, got {size}")
    for name, target in (("swim-bike", r_swim_bike), ("bike-run", r_bike_run)):
        if not -1.0 <= target <= 1.0:
            raise ArchiveError(f"{name} correlation target {target} outside [-1, 1]")
    if any(s <= 0.0 for s in spreads):
        raise ArchiveError("split spreads must be positive")

    rng = np.random.default_rng(seed)
    weights = (np.sqrt(1.0 - r_swim_bike**2), np.sqrt(1.0 - r_bike_run**2))
    per_chunk = max(1, _CHUNK_NORMALS // (5 * size))
    chunk = min(_FIRST_CHUNK_TRIES, per_chunk)
    bound = tolerance + 8 * size * sys.float_info.epsilon
    last = None  # the swim, bike and run columns of the last positive try
    tried = 0
    while tried < max_tries:
        chunk = min(chunk, max_tries - tried)
        tried += chunk
        # one try per row: the latent, swim, run, T1 and T2 draws of a try
        draws = rng.standard_normal((chunk, 5, size))
        swim = means[0] + spreads[0] * (r_swim_bike * draws[:, 0] + weights[0] * draws[:, 1])
        run = means[4] + spreads[4] * (r_bike_run * draws[:, 0] + weights[1] * draws[:, 2])
        t1 = means[1] + spreads[1] * draws[:, 3]
        bike = means[2] + spreads[2] * draws[:, 0]
        t2 = means[3] + spreads[3] * draws[:, 4]
        del draws  # freed before the screen's temporaries are made
        lowest = reduce(np.minimum, (swim, t1, bike, t2, run)).min(axis=1)
        positive = ~(lowest <= 0.0)
        ruled_out = _surely_missed(swim, bike, run, (r_swim_bike, r_bike_run), bound)
        for i in np.flatnonzero(positive & ~ruled_out).tolist():
            achieved = (pearson(swim[i], bike[i]), pearson(bike[i], run[i]))
            if (
                abs(achieved[0] - r_swim_bike) <= tolerance
                and abs(achieved[1] - r_bike_run) <= tolerance
            ):
                totals = swim[i] + t1[i] + bike[i] + t2[i] + run[i]
                order = np.argsort(totals, kind="stable")
                return Archive(
                    label,
                    group,
                    np.arange(1, size + 1),
                    tuple(map("SYN-%03d".__mod__, range(1, size + 1))),
                    ("SYN",) * size,
                    np.vstack((swim[i], t1[i], bike[i], t2[i], run[i], totals))[:, order],
                )
        if positive.any():
            i = np.flatnonzero(positive)[-1]
            last = (swim[i], bike[i], run[i])
        chunk = min(2 * chunk, per_chunk)
    achieved = (float("nan"), float("nan"))
    if last is not None:
        achieved = (pearson(last[0], last[1]), pearson(last[1], last[2]))
    raise SynthesisError(
        f"could not reach correlations ({r_swim_bike}, {r_bike_run}) "
        f"within +/-{tolerance} after {max_tries} tries; "
        f"last achieved ({achieved[0]:.4f}, {achieved[1]:.4f})"
    )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _surely_missed(
    swim: np.ndarray, bike: np.ndarray, run: np.ndarray, targets: tuple[float, float], bound: float
) -> np.ndarray:
    """Per try (row) of the (k, n) columns, whether :func:`pearson` surely
    gives both pairs and one of them misses its target by more than ``bound``.

    A row whose first two values differ is not constant, so :func:`pearson`
    centres it on numpy's mean of the row, the same pairwise sum as the
    mean along ``axis=1`` takes of that row; the screen centres it the same
    way, so the centred values are pearson's own and only the order in
    which the dot products sum them differs.  A try with a column whose
    first two values are equal is never screened out.

    Either order puts a sum of n products within ``n*eps*sum|x_i*y_i|`` of
    its exact value, and ``sum|x_i*y_i| <= sqrt(Sxx*Syy)`` by
    Cauchy-Schwarz, so each order puts r within about ``2*n*eps`` of the
    exact r, and the two orders differ by ``|dr| <= 4*n*eps + O(eps) <=
    8*n*eps`` for n >= 5: the margin the caller adds to the tolerance.  A
    try counts only when its variances and their products lie a factor of
    2 inside the normal, finite floats, far more than the relative
    ``2*n*eps`` by which the two orders can differ, so pearson does not
    raise on it.
    """
    s, b, r = (column - column.mean(axis=1)[:, None] for column in (swim, bike, run))
    sbb = np.einsum("ij,ij->i", b, b)
    sure = (_SAFE_LOW < sbb) & (sbb < _SAFE_HIGH)
    for column in (swim, bike, run):
        sure &= column[:, 0] != column[:, 1]
    missed = np.zeros(len(sbb), dtype=bool)
    for x, target in zip((s, r), targets):
        sxx = np.einsum("ij,ij->i", x, x)
        product = sxx * sbb
        sure &= (_SAFE_LOW < sxx) & (sxx < _SAFE_HIGH)
        sure &= (_SAFE_LOW < product) & (product < _SAFE_HIGH)
        coefficient = np.einsum("ij,ij->i", x, b) / np.sqrt(product)
        missed |= np.abs(coefficient.clip(-1.0, 1.0) - target) > bound
    return sure & missed
