import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripace.timekit import (
    DurationParseError,
    format_duration,
    format_split,
    parse_duration,
)


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

    def test_explicit_hint_rejects_other_grammar(self):
        with pytest.raises(DurationParseError):
            parse_duration("24.00", "ms")
        with pytest.raises(DurationParseError):
            parse_duration("2:48.60", "hms")

    def test_unknown_hint(self):
        with pytest.raises(ValueError, match="format hint"):
            parse_duration("24.00", "clock")

    def test_fractional_seconds_kept(self):
        assert parse_duration("0:00:00.01") == pytest.approx(0.01 / 60.0)


class TestFormat:
    def test_hms(self):
        assert format_duration(299.997, "hms") == "4:59:59.82"

    def test_ms(self):
        assert format_duration(2.81, "ms") == "2:48.60"

    def test_zero_hms(self):
        assert format_duration(0.0, "hms") == "0:00:00.00"

    def test_decimal(self):
        assert format_duration(24.0, "decimal_minutes") == "24.00"

    def test_rounding_half_away_from_zero(self):
        assert format_duration(0.005, "decimal_minutes") == "0.01"

    def test_second_carry(self):
        assert format_duration(59.99999, "hms") == "1:00:00.00"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1.0, "hms")

    @pytest.mark.parametrize("minutes", [60.0, 75.0, 100.5])
    def test_ms_rejects_an_hour_or_more(self, minutes):
        with pytest.raises(ValueError, match="m:ss"):
            format_duration(minutes, "ms")

    def test_ms_just_below_the_hour(self):
        assert format_duration(59.9999, "ms") == "59:59.99"

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_duration(1.0, "centuries")

    @pytest.mark.parametrize("style", ["hms", "ms", "decimal_minutes"])
    @pytest.mark.parametrize("minutes", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, minutes, style):
        with pytest.raises(ValueError, match="must be finite"):
            format_duration(minutes, style)


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


# Half of the last rendered digit: hundredth-seconds for clock styles,
# hundredth-minutes for decimal.
TOLERANCE = {"hms": 1.0 / 12000.0 + 1e-9, "ms": 1.0 / 12000.0 + 1e-9, "decimal_minutes": 0.005 + 1e-9}


@given(
    minutes=st.floats(min_value=0.0, max_value=6000.0, allow_nan=False),
    style=st.sampled_from(["hms", "ms", "decimal_minutes"]),
)
@settings(max_examples=300, deadline=None)
# The 60-minute edge of ``ms``: the first two round to 60:00.00 and must be
# refused; the third renders 59:59.99, the last centisecond below it.  Pinned
# so that the edge runs every time, not only when the random search finds it.
@example(minutes=1499.999999999999, style="ms")
@example(minutes=59.999916666666664, style="ms")
@example(minutes=59.9999, style="ms")
def test_round_trip_property(minutes, style):
    if style == "ms" and minutes >= 60.0:
        minutes = minutes % 60.0
    if style == "ms" and round(minutes * 6000.0) >= 360000:
        with pytest.raises(ValueError):
            format_duration(minutes, style)
        return
    text = format_duration(minutes, style)
    assert abs(parse_duration(text, style) - minutes) <= TOLERANCE[style]


@given(minutes=st.floats(min_value=0.0, max_value=6000.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_format_split_parses_back(minutes):
    assert abs(parse_duration(format_split(minutes)) - minutes) <= 1.0 / 12000.0 + 1e-9
