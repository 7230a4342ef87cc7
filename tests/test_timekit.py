import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_parse_duration
from tripace.timekit import DurationParseError, format_split, parse_duration, parse_durations


class TestParse:
    def test_hms(self):
        assert parse_duration("4:59:59.82") == pytest.approx(299.997, abs=1e-9)

    def test_decimal_minutes(self):
        assert parse_duration("24.00") == 24.0

    def test_ms_zero(self):
        assert parse_duration("0:00") == 0.0

    def test_ms_minutes_out_of_range(self):
        with pytest.raises(DurationParseError, match="minutes field 61"):
            parse_duration("61:30")

    def test_hms_minutes_out_of_range(self):
        with pytest.raises(DurationParseError, match="minutes"):
            parse_duration("1:61:30")

    def test_seconds_out_of_range(self):
        with pytest.raises(DurationParseError, match="seconds"):
            parse_duration("1:10:60.5")
        with pytest.raises(DurationParseError, match="seconds"):
            parse_duration("10:61.2")

    def test_negative(self):
        with pytest.raises(DurationParseError, match="negative"):
            parse_duration("-5.0")

    @pytest.mark.parametrize("bad", ["", "  ", "1:2:3:4", "abc", "1:2", "4:5", "12:", "1.2.3"])
    def test_malformed(self, bad):
        with pytest.raises(DurationParseError):
            parse_duration(bad)

    @pytest.mark.parametrize("huge", ["9" * 400 + ":00:00", "9" * 400], ids=["hms", "decimal"])
    def test_minutes_must_be_finite(self, huge):
        with pytest.raises(DurationParseError, match="too large"):
            parse_duration(huge)

    def test_fractional_seconds_kept(self):
        assert parse_duration("0:00:00.01") == pytest.approx(0.01 / 60.0)


# The two grammars format_split renders, by colon count, and a finite split
# that falls in each.
COLONS = {"hms": 2, "ms": 1}
FINITE_EXAMPLE = {"hms": 75.0, "ms": 2.81}


class TestFormat:
    def test_hms(self):
        assert format_split(299.997) == "4:59:59.82"

    def test_ms(self):
        assert format_split(2.81) == "2:48.60"

    def test_zero(self):
        assert format_split(0.0) == "0:00.00"

    def test_rounding_half_away_from_zero(self):
        # 2.5 / 6000 minutes is exactly 2.5 centiseconds; half to even gives 0:00.02
        assert format_split(2.5 / 6000.0) == "0:00.03"

    def test_second_carry(self):
        assert format_split(59.99999) == "1:00:00.00"

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            format_split(-1.0)

    def test_ms_just_below_the_hour(self):
        assert format_split(59.9999) == "59:59.99"

    # A finite value of each grammar renders; a non-finite one is refused
    # before any grammar is picked.
    @pytest.mark.parametrize("style", ["hms", "ms"])
    @pytest.mark.parametrize("minutes", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, minutes, style):
        assert format_split(FINITE_EXAMPLE[style]).count(":") == COLONS[style]
        with pytest.raises(ValueError, match="must be finite"):
            format_split(minutes)


class TestFormatSplit:
    def test_under_an_hour(self):
        assert format_split(33.8525) == "33:51.15"

    def test_over_an_hour(self):
        assert format_split(91.96133333333333) == "1:31:57.68"

    def test_rounds_up_to_the_hour(self):
        assert format_split(59.9999999) == "1:00:00.00"

    @pytest.mark.parametrize("minutes", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, minutes):
        with pytest.raises(ValueError, match="must be finite"):
            format_split(minutes)


@given(minutes=st.floats(min_value=0.0, max_value=6000.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
# The hour edge: the first value rounds to 60:00.00 of clock time and must
# render as 1:00:00.00; the second renders 59:59.99, the last centisecond
# below it.  Pinned so that the edge runs every time, not only when the
# random search finds it.
@example(minutes=59.999916666666664)
@example(minutes=59.9999)
def test_format_split_parses_back(minutes):
    # half of the last rendered digit, a hundredth of a second
    assert abs(parse_duration(format_split(minutes)) - minutes) <= 1.0 / 12000.0 + 1e-9


@given(
    minutes=st.floats(min_value=0.0, max_value=6000.0, allow_nan=False),
    style=st.sampled_from(["hms", "ms"]),
)
@settings(max_examples=300, deadline=None)
# The 60-minute edge: the first two round to 60:00.00 of clock time and must
# render as 1:00:00.00; the third renders 59:59.99, the last centisecond below
# it.  Pinned so that the edge runs every time, not only when the random
# search finds it.
@example(minutes=1499.999999999999, style="ms")
@example(minutes=59.999916666666664, style="ms")
@example(minutes=59.9999, style="ms")
def test_round_trip_property(minutes, style):
    # "ms" draws a split below the hour, "hms" one from the hour up
    if style == "ms":
        minutes = minutes % 60.0
    else:
        minutes = 60.0 + minutes
    text = format_split(minutes)
    # a value that rounds up to the hour takes the hour grammar
    expected = "hms" if int(minutes * 6000.0 + 0.5) >= 360000 else style
    assert text.count(":") == COLONS[expected]
    assert abs(parse_duration(text) - minutes) <= 1.0 / 12000.0 + 1e-9


# Time strings near and inside the grammars: digit runs of every length that
# matters, colons, points, padding, signs, non-ASCII digits, line breaks and
# digits too long for a float, glued together in any order.
PIECES = [
    "0", "1", "5", "9", "00", "05", "59", "60", "99", "123", "59.999", "60.0",
    ":", ".", " ", "\t", "\n", "-", "+", "_", "e", "DNF", "\u0663", "\uff15",
    "9" * 400, "9" * 40,
]
# Colon-separated fields of one to three digits with a fraction or none:
# every grammar, and each field one step out of its range.
clock_texts = st.builds(
    lambda fields, fraction: ":".join(fields) + fraction,
    st.lists(
        st.sampled_from(["0", "5", "00", "07", "59", "60", "61", "99", "123"]), min_size=1, max_size=4
    ),
    st.sampled_from(["", ".5", ".999", ".9999999999999999", ".", ".0001"]),
)
duration_texts = st.one_of(
    clock_texts,
    st.lists(st.sampled_from(PIECES), max_size=7).map("".join),
    st.text(max_size=10),
    st.floats(0.0, 6000.0).map(format_split),
    st.floats(0.0, 6000.0).map(lambda m: f"{m:.2f}"),
)


def outcome(parse, text):
    try:
        return parse(text).hex()
    except DurationParseError as exc:
        return str(exc)


@given(text=duration_texts)
@settings(max_examples=600, deadline=None)
@example(text="1:59:59.999")
@example(text="9" * 400 + ":00:00")
@example(text=" 24.00 ")
@example(text="\u0662\u0664.00")
def test_one_regex_parses_as_the_three_grammars_did(text):
    assert outcome(parse_duration, text) == outcome(reference_parse_duration, text)


def assert_column_path_contract(texts):
    """Each value of ``parse_durations(texts)`` is the bits of ``parse_duration``
    on its string, and NaN exactly where that raises."""
    values = parse_durations(texts)
    assert values.dtype == np.float64 and values.shape == (len(texts),)
    for text, value in zip(texts, values.tolist()):
        try:
            expected = parse_duration(text)
        except DurationParseError:
            assert math.isnan(value), text
            continue
        assert value.hex() == expected.hex(), text


@given(texts=st.lists(duration_texts, max_size=12))
@settings(max_examples=400, deadline=None)
@example(texts=["24.00"])
@example(texts=["DNF"])
@example(texts=["0:24:00", "24.00", "24:00", "x", "", "1:59:59.999", "9" * 400])
@example(texts=["60:00", "1:60:00", "0:60", "1:00:60", "59:59.9999999999999999"])
def test_column_path_gives_parse_duration_bits_or_falls_back(texts):
    assert_column_path_contract(texts)


@st.composite
def long_columns(draw):
    """Columns of 500 to 3 000 strings, as long as a block of a result file,
    each string taken from a drawn pool of time strings: drawn one by one,
    columns this long overrun the input size Hypothesis allows."""
    pool = draw(st.lists(duration_texts, min_size=1, max_size=40))
    size = draw(st.integers(500, 3000))
    rng = draw(st.randoms(use_true_random=False))
    return [rng.choice(pool) for _ in range(size)]


# The byte check of the column path sees every string beside others; the
# examples put strings at the edges of its rules between strings it reads.
@given(texts=long_columns())
@settings(max_examples=100, deadline=None)
@example(texts=["0:24:00", "\u0663", "24.00"])
@example(texts=["0:24:00", "\ud800", "24.00"])
@example(texts=["0:24:00", "1\r", "24.00"])
@example(texts=["0:24:00", "5.", "24.00"])
@example(texts=["0:24:00", ".5", "24.00"])
@example(texts=["0:24:00", "1..2", "24.00"])
@example(texts=["0:24:00", "1:2:3", "24.00"])
@example(texts=["0:24:00", "12:34:", "24.00"])
@example(texts=["0:24:00", ":", "24.00"])
@example(texts=["0:24:00", "1:00:00:00", "24.00"])
@example(texts=["0:24:00", "1:5.5:00", "24.00"])
@example(texts=["0:24:00", "059:00", "24.00"])
@example(texts=["0:24:00", "1.5:30", "24.00"])
@example(texts=["0:24:00", "1:5:07", "24.00"])
@example(texts=["0:24:00", "1:000", "24.00"])
@example(texts=["0:24:00", "1e5", "24.00"])
@example(texts=["0:24:00", " 24.00 ", "24.00"])
@example(texts=["0:24:00", "\u0662\u0664.00", "24.00"])
@example(texts=["0:24:00", "24.00\n", "24.00"])
@example(texts=["0:24:00", "1:00\n:00", "24.00"])
def test_column_path_contract_holds_on_long_columns(texts):
    assert_column_path_contract(texts)


def digit_run(size):
    return st.text(alphabet="0123456789", min_size=size, max_size=size)


@st.composite
def near_exact_numbers(draw):
    """A time string whose one long number has 13 to 17 digits, the integer
    and fraction digits of a point counted together: 15 is the most that the
    column path reads from its bytes."""
    size = draw(st.integers(13, 17))
    place = draw(st.sampled_from(["hours", "seconds", "decimal", "integer"]))
    if place == "hours":
        return draw(digit_run(size)) + draw(st.sampled_from([":00:00", ":59:59.5", ":60:00"]))
    if place == "seconds":
        clock = draw(st.sampled_from(["1:00:", "7:", "59:", "1:59:"]))
        return clock + draw(st.sampled_from(["00", "59", "60"])) + "." + draw(digit_run(size - 2))
    if place == "integer":
        return draw(digit_run(size))
    whole = draw(st.integers(1, size - 1))
    return draw(digit_run(whole)) + "." + draw(digit_run(size - whole))


# The number of at most 15 digits is read from its bytes and a longer one by
# parse_duration; past 15, a sum of place values can round otherwise than
# float(), as on the two 16-digit decimals below.
@given(
    texts=st.lists(
        st.one_of(near_exact_numbers(), st.sampled_from(["0:24:00", "24.00", "5:07.5", "DNF", ""])),
        max_size=12,
    )
)
@settings(max_examples=300, deadline=None)
@example(texts=["999999999999999", "9999999999999999"])
@example(texts=["9.645669701700019", "0.9820518287519073"])
@example(texts=["123456789012345:00:00", "1:00:59.9999999999999"])
@example(texts=["0:24:00", "9.645669701700019", "24.00", "1234567890123456:00:00", "5:07.5"])
def test_column_path_reads_15_digits_and_hands_longer_numbers_on(texts):
    # The 15-digit examples are the largest fields read from the bytes; their
    # totals are finite, so the column path needs no check for it.
    assert_column_path_contract(texts)


def test_cells_with_no_digit_need_no_call_per_cell():
    texts = ["DNF", "", " ", "--:--", "24.00"]
    with mock.patch("tripace.timekit.parse_duration", wraps=parse_duration) as spy:
        values = parse_durations(texts)
    assert spy.call_count == 0
    assert values[4] == 24.0 and np.isnan(values[:4]).all()


def test_cells_with_a_digit_the_bytes_do_not_read_go_to_parse_duration():
    # a non-ASCII digit is a digit to the one regex, a line end strips, and
    # a number of more than 15 digits is not read from the bytes
    texts = ["\u0662\u0664.00", "24.00\n", "9.645669701700019", "\n", "x"]
    with mock.patch("tripace.timekit.parse_duration", wraps=parse_duration) as spy:
        values = parse_durations(texts)
    assert spy.call_count == 3
    assert values[:3].tolist() == [24.0, 24.0, 9.645669701700019]
    assert np.isnan(values[3:]).all()
