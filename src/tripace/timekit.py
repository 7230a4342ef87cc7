"""Conversion between race-time strings and floating-point minutes.

Every module in this package trades in plain floats carrying minutes; strings
only appear at the I/O edges (result files, reports).  Three grammars are
supported:

* ``hms``             -- ``h:mm:ss[.ss]``, hours unbounded
* ``ms``              -- ``m:ss[.ss]``, minutes below 60
* ``decimal_minutes`` -- a bare non-negative number, e.g. ``102.63``

``auto`` detection goes by colon count (two colons -> hms, one -> ms,
none -> decimal minutes), which is unambiguous under the grammars above.

The ``ms`` bound holds in both directions: :func:`parse_duration` rejects a
minutes field of 60 or more, and :func:`format_duration` rejects, with
``ValueError``, any value that rounded to hundredths of a second reaches 60
minutes (so 59.99992 minutes, which would print ``60:00.00``, is refused
rather than rendered as a string that does not parse back).
"""

from __future__ import annotations

import math
import re

STYLES = ("hms", "ms", "decimal_minutes")

_HMS_RE = re.compile(r"^(\d+):(\d{2}):(\d{2}(?:\.\d+)?)$")
_MS_RE = re.compile(r"^(\d{1,2}):(\d{2}(?:\.\d+)?)$")
_DECIMAL_RE = re.compile(r"^\d+(?:\.\d+)?$")


class DurationParseError(ValueError):
    """A time string does not fit the requested grammar."""


def parse_duration(text: str, format_hint: str = "auto") -> float:
    """Parse a time string into floating-point minutes.

    ``format_hint`` is one of ``auto``, ``hms``, ``ms`` or
    ``decimal_minutes``.  Positional fields are range-checked: minutes and
    seconds must stay below 60.  Raises :class:`DurationParseError` on
    malformed input, naming the offending field.
    """
    if format_hint not in ("auto",) + STYLES:
        raise ValueError(f"unknown format hint {format_hint!r}")
    stripped = text.strip()
    if not stripped:
        raise DurationParseError("empty time string")
    if stripped.startswith("-"):
        raise DurationParseError(f"negative component in {text!r}")

    fmt = format_hint
    if fmt == "auto":
        colons = stripped.count(":")
        if colons == 2:
            fmt = "hms"
        elif colons == 1:
            fmt = "ms"
        elif colons == 0:
            fmt = "decimal_minutes"
        else:
            raise DurationParseError(f"too many fields in {text!r}")

    if fmt == "hms":
        m = _HMS_RE.match(stripped)
        if m is None:
            raise DurationParseError(f"not an h:mm:ss[.ss] time: {text!r}")
        hours, minutes, seconds = int(m.group(1)), int(m.group(2)), float(m.group(3))
        if minutes >= 60:
            raise DurationParseError(f"minutes field {minutes} out of range in {text!r}")
        if seconds >= 60.0:
            raise DurationParseError(f"seconds field {m.group(3)} out of range in {text!r}")
        return hours * 60.0 + minutes + seconds / 60.0

    if fmt == "ms":
        m = _MS_RE.match(stripped)
        if m is None:
            raise DurationParseError(f"not an m:ss[.ss] time: {text!r}")
        minutes, seconds = int(m.group(1)), float(m.group(2))
        if minutes >= 60:
            raise DurationParseError(f"minutes field {minutes} out of range in {text!r}")
        if seconds >= 60.0:
            raise DurationParseError(f"seconds field {m.group(2)} out of range in {text!r}")
        return minutes + seconds / 60.0

    m = _DECIMAL_RE.match(stripped)
    if m is None:
        raise DurationParseError(f"not a decimal-minutes value: {text!r}")
    return float(stripped)


def _require_finite(minutes: float) -> None:
    if not math.isfinite(minutes):
        raise ValueError(f"duration must be finite, got {minutes!r}")


def _round_half_up(value: float) -> int:
    # round() would go half-to-even; race listings round half away from zero
    # and all durations here are non-negative.
    return int(value + 0.5)


def format_duration(minutes: float, style: str) -> str:
    """Render minutes as a time string in the given style.

    ``hms`` and ``ms`` carry hundredths of seconds; ``decimal_minutes``
    carries hundredths of minutes.  Rounding is half away from zero at the
    last rendered digit, with carries resolved before splitting into fields
    (so 59.999 s renders as the next full minute, never ``60.00``).

    Raises ``ValueError`` for a non-finite or negative duration, and for
    ``ms`` when the value rounded to hundredths of a second is 60 minutes or
    more, which the ``m:ss[.ss]`` grammar cannot hold.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}")
    _require_finite(minutes)
    if minutes < 0.0:
        raise ValueError(f"duration must be non-negative, got {minutes!r}")

    if style == "decimal_minutes":
        hundredths = _round_half_up(minutes * 100.0)
        return f"{hundredths // 100}.{hundredths % 100:02d}"

    centiseconds = _round_half_up(minutes * 6000.0)
    if style == "ms":
        if centiseconds >= 360000:
            raise ValueError(f"{minutes!r} minutes rounds to 60 minutes or more, beyond m:ss[.ss]")
        mins, rem = divmod(centiseconds, 6000)
        return f"{mins}:{rem / 100.0:05.2f}"
    hours, rem = divmod(centiseconds, 360000)
    mins, rem = divmod(rem, 6000)
    return f"{hours}:{mins:02d}:{rem / 100.0:05.2f}"


def format_split(minutes: float) -> str:
    """Render a split the way race reports do: ``m:ss.hh`` under an hour,
    ``h:mm:ss.hh`` from an hour up.  The style switch looks at the rounded
    value, so 59:59.996 renders as ``1:00:00.00`` rather than ``60:00.00``.
    Raises ``ValueError`` as :func:`format_duration` does."""
    _require_finite(minutes)
    style = "hms" if _round_half_up(minutes * 6000.0) >= 360000 else "ms"
    return format_duration(minutes, style)
