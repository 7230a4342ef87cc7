"""Race-time strings to floating-point minutes, and report splits back.

Every module in this package trades in plain floats carrying minutes; strings
only appear at the I/O edges (result files, reports).  :func:`parse_duration`
reads three grammars, told apart by colon count:

* two colons -- ``h:mm:ss[.ss]``, hours unbounded
* one colon  -- ``m:ss[.ss]``, minutes below 60
* none       -- a bare non-negative number of minutes, e.g. ``102.63``

:func:`format_split` renders the split cells of a report, in the first
grammar from an hour up and in the second below, so every rendered split
parses back to within half a centisecond.
"""

from __future__ import annotations

import math
import re

_HMS_RE = re.compile(r"^(\d+):(\d{2}):(\d{2}(?:\.\d+)?)$")
_MS_RE = re.compile(r"^(\d{1,2}):(\d{2}(?:\.\d+)?)$")
_DECIMAL_RE = re.compile(r"^\d+(?:\.\d+)?$")


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
    if not stripped:
        raise DurationParseError("empty time string")
    if stripped.startswith("-"):
        raise DurationParseError(f"negative component in {text!r}")

    colons = stripped.count(":")
    if colons == 2:
        m = _HMS_RE.match(stripped)
        if m is None:
            raise DurationParseError(f"not an h:mm:ss[.ss] time: {text!r}")
        # float, not int: an hours field too long for a float reads as inf
        hours, minutes, seconds = float(m.group(1)), int(m.group(2)), float(m.group(3))
        if minutes >= 60:
            raise DurationParseError(f"minutes field {minutes} out of range in {text!r}")
        if seconds >= 60.0:
            raise DurationParseError(f"seconds field {m.group(3)} out of range in {text!r}")
        total = hours * 60.0 + minutes + seconds / 60.0
    elif colons == 1:
        m = _MS_RE.match(stripped)
        if m is None:
            raise DurationParseError(f"not an m:ss[.ss] time: {text!r}")
        minutes, seconds = int(m.group(1)), float(m.group(2))
        if minutes >= 60:
            raise DurationParseError(f"minutes field {minutes} out of range in {text!r}")
        if seconds >= 60.0:
            raise DurationParseError(f"seconds field {m.group(2)} out of range in {text!r}")
        total = minutes + seconds / 60.0
    elif colons:
        raise DurationParseError(f"too many fields in {text!r}")
    elif _DECIMAL_RE.match(stripped) is None:
        raise DurationParseError(f"not a decimal-minutes value: {text!r}")
    else:
        total = float(stripped)
    if not math.isfinite(total):
        raise DurationParseError(f"time too large for a float: {text!r}")
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
