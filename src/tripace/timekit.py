"""Race-time strings to floating-point minutes, and report splits back.

Every module in this package trades in plain floats carrying minutes; strings
only appear at the I/O edges (result files, reports).  :func:`parse_duration`
reads three grammars, told apart by colon count:

* two colons -- ``h:mm:ss[.ss]``, hours unbounded
* one colon  -- ``m:ss[.ss]``, minutes below 60
* none       -- a bare non-negative number of minutes, e.g. ``102.63``

:func:`parse_duration` reads them with one regex of the three.
:func:`parse_durations` reads a whole column per call: each value is
:func:`parse_duration`'s float, bit for bit, and NaN exactly where that
raises.  It checks the grammars on the column's bytes and reads every field
from its digit bytes, a few numpy passes over all of them at once, so a
result file's common row costs no call per cell.  A string with no
digit, such as ``DNF``, which fits no grammar, is NaN after one regex
search.  Each other string the byte rules do not read, such as a padded
one or one with a number longer than 15 digits, goes to
:func:`parse_duration` within the same call.  The byte rules state the
grammars a second time; the tests hold the two statements to the same
strings.

:func:`format_split` renders the split cells of a report, in the first
grammar from an hour up and in the second below, so every rendered split
parses back to within half a centisecond.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

# The three grammars in one pattern: h:mm:ss[.ss] (hours, then minutes
# checked for two digits by the lookahead) and m:ss[.ss] share the minutes
# and seconds groups, and a bare decimal has a group of its own.
_DURATION_RE = re.compile(r"(?:(\d+):(?=\d\d:))?(\d{1,2}):(\d\d(?:\.\d+)?)|(\d+(?:\.\d+)?)")

# A digit, which every branch of _DURATION_RE needs.
_DIGIT = re.compile(r"\d")

# The bytes of a column that end a field or split one.
_NEWLINE, _COLON, _POINT = b"\n:."

# The most digits of a number that parse_durations reads from its bytes: a
# decimal of at most 15 significant digits and every power of ten up to
# 10**15 are exact floats (Clinger 1990), and int64 holds them.
_EXACT_DIGITS = 15
_TENS = 10 ** np.arange(_EXACT_DIGITS + 1, dtype=np.int64)
_SCALES = _TENS.astype(np.float64)


class DurationParseError(ValueError):
    """A time string fits none of the grammars."""


def parse_duration(text: str) -> float:
    """Parse a time string into floating-point minutes.

    The colon count picks the grammar.  Positional fields are range-checked:
    minutes and seconds must stay below 60, and the time in minutes must
    be finite.  Raises :class:`DurationParseError` on malformed input,
    naming the offending field.
    """
    stripped = text.strip()
    m = _DURATION_RE.fullmatch(stripped)
    if m is None:
        raise _diagnosis(text, stripped)
    hours, minutes, seconds, decimal = m.groups()
    if decimal is not None:
        total = float(decimal)
    else:
        if int(minutes) >= 60:
            raise DurationParseError(f"minutes field {int(minutes)} out of range in {text!r}")
        if float(seconds) >= 60.0:
            raise DurationParseError(f"seconds field {seconds} out of range in {text!r}")
        # float, not int: an hours field too long for a float reads as inf
        total = (float(hours) * 60.0 if hours else 0.0) + int(minutes) + float(seconds) / 60.0
    if not math.isfinite(total):
        raise DurationParseError(f"time too large for a float: {text!r}")
    return total


def _diagnosis(text: str, stripped: str) -> DurationParseError:
    """The error that says why ``text``, ``stripped`` of whitespace, fits no grammar."""
    if not stripped:
        return DurationParseError("empty time string")
    if stripped.startswith("-"):
        return DurationParseError(f"negative component in {text!r}")
    colons = stripped.count(":")
    if colons == 2:
        return DurationParseError(f"not an h:mm:ss[.ss] time: {text!r}")
    if colons == 1:
        return DurationParseError(f"not an m:ss[.ss] time: {text!r}")
    if colons:
        return DurationParseError(f"too many fields in {text!r}")
    return DurationParseError(f"not a decimal-minutes value: {text!r}")


def parse_durations(texts: Sequence[str]) -> np.ndarray:
    """Minutes of each string of ``texts``, a whole column per call.

    Every value is the float :func:`parse_duration` returns for its string,
    bit for bit, and NaN exactly where :func:`parse_duration` raises: for a
    string that fits no grammar, is out of range or is too large.  NaN is a
    value :func:`parse_duration` never returns.

    The column is checked as one text, on its bytes.  Every byte that is
    not a digit is a mark: a colon, a point, a line end or any other byte,
    a non-ASCII character among them.  Each mark is checked against the
    grammars from its neighbours and the digits before it, all marks at
    once; a string is read here when none of its marks breaks a rule.  Each
    field is then read from the digit bytes before its mark: a run of digits
    is summed in int64, one place at a time, and a field with a point is
    that integer over a power of ten, one division that rounds as
    ``float()`` does.  Both are exact only up to 15 digits, so a number
    longer than that, integer and fraction digits counted together, breaks
    a rule too.  A string with no digit, ASCII or not, is NaN: every
    grammar needs one.  Every other string that breaks a rule, or that is
    out of range, goes to :func:`parse_duration`, one call each.
    """
    n = len(texts)
    if not n:
        return np.empty(0)
    joined = "\n".join(texts)
    if joined.count("\n") != n - 1:  # a string that spans lines is not read here
        joined = "\n".join("" if "\n" in t else t for t in texts)
    # One byte per character: a non-ASCII one becomes a "?", which breaks a
    # rule.  With a closing line end, every string ends at one.
    text = np.frombuffer((joined + "\n").encode("ascii", "replace"), dtype=np.uint8)
    # every byte but a digit is a mark; uint8 bytes below "0" wrap round past 9
    figures = text - ord("0")
    at = (figures > 9).nonzero()[0]
    mark = text[at]
    digits = at - np.concatenate(([-1], at[:-1])) - 1  # the run of digits before each mark
    newline = mark == _NEWLINE
    colon = mark == _COLON
    point = mark == _POINT
    before = np.concatenate(([_NEWLINE], mark[:-1]))
    after = np.concatenate((mark[1:], [_NEWLINE]))
    following = np.concatenate((digits[1:], [0]))  # the run of digits after each mark
    hours_end = colon & (after == _COLON)
    last_colon = colon & ~hours_end
    # a string is read here when none of its marks breaks a rule of the grammars
    broken = (
        (digits == 0)  # every field holds digits, and so does each side of a point
        | ~(newline | colon | point)  # and nothing else
        | point & (after != _NEWLINE)  # a point sits in the last field, once
        | hours_end & (before != _NEWLINE)  # hours come first, so two colons at most
        | colon & (before == _COLON) & (digits != 2)  # minutes after hours have two digits
        # minutes have one or two digits, and seconds two before any point
        | last_colon & ((digits > 2) | (following != 2))
        # a number of at most _EXACT_DIGITS digits; a point's runs on past it
        | (digits + np.where(point, following, 0) > _EXACT_DIGITS)
    )
    ends = newline.nonzero()[0]  # the line end of each string
    read = np.ones(n, dtype=bool)
    read[ends.searchsorted(broken.nonzero()[0])] = False
    # The integer of each run of digits, one place at a time; a longer run
    # keeps its last digits, and its string is not read here.  Every field
    # is below 10**15, so the total below is finite.
    run = np.minimum(digits, _EXACT_DIGITS)
    value = np.zeros(len(at), dtype=np.int64)
    for k in range(run.max()):
        # uint8 digits times the int64 power are int64 only under numpy 2 promotion
        value += np.where(run > k, figures.take(at - 1 - k), 0) * _TENS[k]
    fields_at = (newline | colon).nonzero()[0]  # the mark that ends each field
    last = newline[fields_at].nonzero()[0]  # each string's last field
    colons = last - np.concatenate(([-1], last[:-1])) - 1
    # A field with a point is its digits as one integer over a power of ten:
    # both are exact floats, so the one division rounds as float() does.
    fraction = before[fields_at] == _POINT
    scale = _SCALES[np.where(fraction, run[fields_at], 0)]
    whole = np.where(fraction, value.take(fields_at - 1), 0)
    fields = (whole * scale + value[fields_at]) / scale
    seconds = fields[last]
    # clipped: before a string's first field lie another string's, or none
    minutes = np.where(colons > 0, fields.take(last - 1, mode="clip"), 0.0)
    hours = np.where(colons > 1, fields.take(last - 2, mode="clip"), 0.0)
    total = np.where(colons > 0, hours * 60.0 + minutes + seconds / 60.0, seconds)
    read &= (minutes < 60.0) & ((seconds < 60.0) | (colons == 0))
    for i in (~read).nonzero()[0].tolist():
        if _DIGIT.search(texts[i]) is None:  # such as DNF: every grammar needs a digit
            total[i] = np.nan
            continue
        try:
            total[i] = parse_duration(texts[i])
        except DurationParseError:
            total[i] = np.nan
    return total


def format_split(minutes: float) -> str:
    """Render a split the way race reports do: ``m:ss.hh`` under an hour,
    ``h:mm:ss.hh`` from an hour up.

    The value is rounded half away from zero to centiseconds first, and the
    fields are split from the rounded value, so 59:59.996 renders as
    ``1:00:00.00`` rather than ``60:00.00``.  Raises ``ValueError`` for a
    non-finite or negative duration.
    """
    if not math.isfinite(minutes):
        raise ValueError(f"duration must be finite, got {minutes!r}")
    if minutes < 0.0:
        raise ValueError(f"duration must be non-negative, got {minutes!r}")
    # round() would go half to even; race listings round half away from zero
    centiseconds = int(minutes * 6000.0 + 0.5)
    hours, rem = divmod(centiseconds, 360000)
    mins, rem = divmod(rem, 6000)
    if hours:
        return f"{hours}:{mins:02d}:{rem / 100.0:05.2f}"
    return f"{mins}:{rem / 100.0:05.2f}"
