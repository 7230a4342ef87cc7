import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import oracle_pearson
from tables import TABLE1_BIKE, TABLE1_RUN, TABLE1_SWIM
from tripace.stats import (
    CorrelationUndefinedError,
    appended_correlation_sum,
    archive_correlation,
    pearson,
)


class TestPearsonReference:
    def test_swim_bike(self):
        assert pearson(TABLE1_SWIM, TABLE1_BIKE) == pytest.approx(0.9938, abs=5e-4)

    def test_bike_run(self):
        assert pearson(TABLE1_BIKE, TABLE1_RUN) == pytest.approx(0.1804, abs=5e-4)

    def test_perfect_positive(self):
        assert pearson((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 1.0

    def test_perfect_negative(self):
        assert pearson((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)) == -1.0

    def test_zero_variance(self):
        with pytest.raises(CorrelationUndefinedError, match="zero variance"):
            pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    # constants whose numpy mean over 30 copies is an ulp off
    @pytest.mark.parametrize("constant", [0.1, 1 / 3, 167.13])
    def test_constant_sample_raises(self, constant):
        varied = [float(i * i) for i in range(30)]
        with pytest.raises(CorrelationUndefinedError, match="zero variance in x"):
            pearson([constant] * 30, varied)
        with pytest.raises(CorrelationUndefinedError, match="zero variance in y"):
            pearson(varied, [constant] * 30)

    def test_underflowing_variances_raise(self):
        # both variances are positive, but their product is 0.0
        with pytest.raises(CorrelationUndefinedError, match="variances underflow"):
            pearson([0.0, 1e-100, 2e-100], [0.0, 1e-100, 3e-100])

    def test_varied_column_whose_squares_underflow_is_not_constant(self):
        # the centred squares of y underflow to 0.0, yet y is not constant
        with pytest.raises(CorrelationUndefinedError, match="variances underflow"):
            pearson([1.0, 2.0, 3.0], [1e-320, 2e-320, 4e-320])
        with pytest.raises(CorrelationUndefinedError, match="variances underflow"):
            pearson([1e-320, 2e-320, 4e-320], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_overflowing_variances_raise(self, scale):
        swim = [v * scale for v in TABLE1_SWIM]
        bike = [v * scale for v in TABLE1_BIKE]
        with pytest.raises(CorrelationUndefinedError, match="variances overflow"):
            pearson(swim, bike)

    def test_subnormal_variance_raises(self):
        # the product of the variances is normal, but the swim variance is not
        swim = [v * 2.0**-530 for v in TABLE1_SWIM]
        bike = [v * 2.0**500 for v in TABLE1_BIKE]
        with pytest.raises(CorrelationUndefinedError, match="variances underflow"):
            pearson(swim, bike)

    def test_length_mismatch(self):
        with pytest.raises(CorrelationUndefinedError, match="length mismatch"):
            pearson((1.0, 2.0, 3.0), (1.0, 2.0))

    def test_too_short(self):
        with pytest.raises(CorrelationUndefinedError, match="at least 3"):
            pearson((1.0, 2.0), (1.0, 2.0))

    def test_clamped_to_unit_interval(self):
        x = np.linspace(0.1, 117.3, 50)
        y = 2.0 * x + 3.0
        r = pearson(x, y)
        assert 1.0 - 1e-12 <= r <= 1.0


class TestAppendedPearson:
    """``appended_correlation_sum``: the swim-bike plus bike-run correlation
    of three columns with one row appended."""

    def test_reference_values(self):
        correlation_sum = appended_correlation_sum(
            TABLE1_SWIM[:-1], TABLE1_BIKE[:-1], TABLE1_RUN[:-1]
        )
        expected = pearson(TABLE1_SWIM, TABLE1_BIKE) + pearson(TABLE1_BIKE, TABLE1_RUN)
        appended = correlation_sum(TABLE1_SWIM[-1], TABLE1_BIKE[-1], TABLE1_RUN[-1])
        assert appended == pytest.approx(expected, abs=1e-14)

    def test_base_unchanged_across_calls(self):
        correlation_sum = appended_correlation_sum(TABLE1_SWIM, TABLE1_BIKE, TABLE1_RUN)
        first = correlation_sum(30.0, 120.0, 85.0)
        correlation_sum(20.0, 90.0, 95.0)
        assert correlation_sum(30.0, 120.0, 85.0) == first

    def test_constant_base_with_new_point_is_defined(self):
        correlation_sum = appended_correlation_sum(
            (1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (3.0, 1.0, 2.0)
        )
        bike = (1.0, 2.0, 3.0, 4.0)
        expected = pearson((1.0, 1.0, 1.0, 2.0), bike) + pearson(bike, (3.0, 1.0, 2.0, 5.0))
        assert correlation_sum(2.0, 4.0, 5.0) == pytest.approx(expected, abs=1e-14)

    def test_zero_variance(self):
        varied, constant = (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)
        for column in range(3):
            columns = [varied] * 3
            columns[column] = constant
            row = [4.0] * 3
            row[column] = 1.0
            name = ("swim", "bike", "run")[column]
            with pytest.raises(CorrelationUndefinedError, match=f"zero variance in {name}"):
                appended_correlation_sum(*columns)(*row)

    @pytest.mark.parametrize("constant", [0.1, 1 / 3, 167.13])
    def test_constant_extended_sample_raises(self, constant):
        varied = [float(i) for i in range(30)]
        correlation_sum = appended_correlation_sum([constant] * 30, varied, varied[::-1])
        with pytest.raises(CorrelationUndefinedError, match="zero variance in swim"):
            correlation_sum(constant, 5.0, 7.0)
        correlation_sum = appended_correlation_sum(varied, varied[::-1], [constant] * 30)
        with pytest.raises(CorrelationUndefinedError, match="zero variance in run"):
            correlation_sum(5.0, 7.0, constant)

    def test_underflowing_variances_raise(self):
        # both extended variances are positive, but their product is 0.0
        tiny = (0.0, 1e-100, 2e-100)
        correlation_sum = appended_correlation_sum(tiny, tiny, (1.0, 2.0, 4.0))
        with pytest.raises(CorrelationUndefinedError, match="variances underflow"):
            correlation_sum(3e-100, 5e-100, 3.0)

    def test_varied_column_whose_squares_underflow_is_not_constant(self):
        # the extended bike column is not constant, but its centred squares
        # and the appended term underflow to 0.0
        correlation_sum = appended_correlation_sum(
            (1.0, 2.0, 3.0), (1e-320, 2e-320, 4e-320), (1.0, 2.0, 4.0)
        )
        with pytest.raises(CorrelationUndefinedError, match="variances underflow"):
            correlation_sum(1.0, 3e-320, 2.0)

    def test_too_short(self):
        with pytest.raises(CorrelationUndefinedError, match="at least 3"):
            appended_correlation_sum((1.0,), (1.0,), (1.0,))

    def test_length_mismatch(self):
        three, two = (1.0, 2.0, 3.0), (1.0, 2.0)
        for columns in ((three, two, two), (three, three, two)):
            with pytest.raises(CorrelationUndefinedError, match="length mismatch"):
                appended_correlation_sum(*columns)

    def test_clamped_to_unit_interval(self):
        # both pairs overshoot 1.0 by a few ulps before the clamp
        swim = np.linspace(0.1, 117.3, 17)
        bike = 3.0 * swim + 3.0
        run = 1.3 * bike + 1.0
        s = appended_correlation_sum(swim, bike, run)(118.0, 357.0, 1.3 * 357.0 + 1.0)
        assert 2.0 - 2e-12 <= s <= 2.0


class TestArchiveCorrelation:
    def test_reference_values(self, table1_archive):
        pair = archive_correlation(table1_archive)
        assert pair.r_swim_bike == pytest.approx(0.9938, abs=5e-4)
        assert pair.r_bike_run == pytest.approx(0.1804, abs=5e-4)
        assert pair.sum == pytest.approx(1.1742, abs=1e-3)
        assert pair.sum == pair.r_swim_bike + pair.r_bike_run

    def test_high_corr_archive_near_target(self, high_corr_archive):
        assert archive_correlation(high_corr_archive).sum == pytest.approx(0.7256, abs=0.05)

    def test_low_corr_archive_near_target(self, low_corr_archive):
        assert archive_correlation(low_corr_archive).sum == pytest.approx(0.2051, abs=0.05)

    def test_names_the_constant_column(self, table1_archive):
        from tripace.archive import Archive

        a = table1_archive
        swim, t1, _, t2, run, _ = a.times
        flat_bike = np.vstack((swim, t1, [100.0] * len(a), t2, run, swim + t1 + 100.0 + t2 + run))
        flat = Archive("flat", "PRO-M", a.places, a.names, a.nations, flat_bike)
        with pytest.raises(CorrelationUndefinedError, match="zero variance in bike"):
            archive_correlation(flat)


def _spread_ok(values):
    return max(values) - min(values) > 1e-3


vectors = st.integers(min_value=3, max_value=100).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
    )
)


@given(pair=vectors)
@settings(max_examples=300, deadline=None)
def test_symmetry(pair):
    x, y = pair
    if not (_spread_ok(x) and _spread_ok(y)):
        return
    assert pearson(x, y) == pearson(y, x)


@given(pair=vectors)
@settings(max_examples=300, deadline=None)
def test_matches_two_pass_oracle(pair):
    x, y = pair
    if not (_spread_ok(x) and _spread_ok(y)):
        return
    assert pearson(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-12)


@given(
    pair=vectors,
    a=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    b=st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
    negate=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_affine_invariance(pair, a, b, negate):
    x, y = pair
    if not (_spread_ok(x) and _spread_ok(y)):
        return
    if negate:
        a = -a
    scaled = [a * v + b for v in x]
    sign = 1.0 if a > 0 else -1.0
    assert pearson(scaled, y) == pytest.approx(sign * pearson(x, y), abs=1e-12)


@given(pair=vectors, exponent=st.integers(min_value=-600, max_value=600))
@settings(max_examples=300, deadline=None)
def test_power_of_two_scaling_is_exact_or_raises(pair, exponent):
    x, y = pair
    try:
        unscaled = pearson(x, y)
    except CorrelationUndefinedError:
        return
    scale = 2.0**exponent
    try:
        scaled = pearson([v * scale for v in x], [v * scale for v in y])
    except CorrelationUndefinedError:
        return
    assert scaled == unscaled


# Samples shaped like split columns: a centre at most 100 spreads from zero
# and standardised values of real spread.  Both routes round within about
# 1e-15 there; a spread tiny next to the mean leaves either route only a
# few correct digits.
def _column(scale, ratio, z):
    return [ratio * scale + scale * v for v in z]


standard = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@given(
    n=st.integers(min_value=2, max_value=150),
    data=st.data(),
    scales=st.tuples(st.floats(0.5, 100.0), st.floats(0.5, 100.0), st.floats(0.5, 100.0)),
    ratios=st.tuples(
        st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)
    ),
    rhos=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    new=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
@settings(max_examples=300, deadline=None)
def test_appended_matches_pearson_on_appended_arrays(n, data, scales, ratios, rhos, new):
    def standard_list():
        return data.draw(st.lists(standard, min_size=n, max_size=n))

    # swim and run each correlate with bike through their own rho
    zb = standard_list()
    zs, zr = ([rho * a + (1.0 - abs(rho)) * b for a, b in zip(zb, standard_list())] for rho in rhos)
    assume(all(np.std(z) >= 0.5 for z in (zs, zb, zr)))
    *swim, s_new = _column(scales[0], ratios[0], zs + [new[0]])
    *bike, b_new = _column(scales[1], ratios[1], zb + [new[1]])
    *run, r_new = _column(scales[2], ratios[2], zr + [new[2]])
    closed = appended_correlation_sum(swim, bike, run)(s_new, b_new, r_new)
    bike.append(b_new)
    expected = pearson(swim + [s_new], bike) + pearson(bike, run + [r_new])
    assert closed == pytest.approx(expected, abs=1e-12)
