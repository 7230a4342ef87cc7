import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TABLE1_BIKE, TABLE1_RUN, TABLE1_SWIM
from helpers import oracle_pearson
from tripace.stats import (
    CorrelationUndefinedError,
    appended_pearson,
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
    def test_reference_values(self):
        for x, y in ((TABLE1_SWIM, TABLE1_BIKE), (TABLE1_BIKE, TABLE1_RUN)):
            appended = appended_pearson(x[:-1], y[:-1])(x[-1], y[-1])
            assert appended == pytest.approx(pearson(x, y), abs=1e-14)

    def test_base_unchanged_across_calls(self):
        correlation = appended_pearson(TABLE1_SWIM, TABLE1_BIKE)
        first = correlation(30.0, 120.0)
        correlation(20.0, 90.0)
        assert correlation(30.0, 120.0) == first

    def test_constant_base_with_new_point_is_defined(self):
        correlation = appended_pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        expected = pearson((1.0, 1.0, 1.0, 2.0), (1.0, 2.0, 3.0, 4.0))
        assert correlation(2.0, 4.0) == pytest.approx(expected, abs=1e-14)

    def test_zero_variance(self):
        correlation = appended_pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(CorrelationUndefinedError, match="zero variance in x"):
            correlation(1.0, 4.0)

    @pytest.mark.parametrize("constant", [0.1, 1 / 3, 167.13])
    def test_constant_extended_sample_raises(self, constant):
        correlation = appended_pearson([constant] * 30, [float(i) for i in range(30)])
        with pytest.raises(CorrelationUndefinedError, match="zero variance in x"):
            correlation(constant, 5.0)

    def test_too_short(self):
        with pytest.raises(CorrelationUndefinedError, match="at least 3"):
            appended_pearson((1.0,), (1.0,))

    def test_length_mismatch(self):
        with pytest.raises(CorrelationUndefinedError, match="length mismatch"):
            appended_pearson((1.0, 2.0, 3.0), (1.0, 2.0))

    def test_clamped_to_unit_interval(self):
        x = np.linspace(0.1, 117.3, 50)
        r = appended_pearson(x, 2.0 * x + 3.0)(118.0, 239.0)
        assert 1.0 - 1e-12 <= r <= 1.0


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
        from tripace.archive import Archive, ResultRecord

        flat_bike = tuple(
            ResultRecord(
                athlete_name=r.athlete_name,
                nation=r.nation,
                category=r.category,
                finish_place=r.finish_place,
                swim=r.swim,
                t1=r.t1,
                bike=100.0,
                t2=r.t2,
                run=r.run,
                overall=r.swim + r.t1 + 100.0 + r.t2 + r.run,
            )
            for r in table1_archive.records
        )
        flat = Archive(label="flat", group="PRO-M", records=flat_bike)
        with pytest.raises(CorrelationUndefinedError, match="bike"):
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
    scales=st.tuples(st.floats(0.5, 100.0), st.floats(0.5, 100.0)),
    ratios=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    rho=st.floats(min_value=-1.0, max_value=1.0),
    new=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
@settings(max_examples=300, deadline=None)
def test_appended_matches_pearson_on_appended_arrays(n, data, scales, ratios, rho, new):
    zx = data.draw(st.lists(standard, min_size=n, max_size=n))
    noise = data.draw(st.lists(standard, min_size=n, max_size=n))
    zy = [rho * a + (1.0 - abs(rho)) * b for a, b in zip(zx, noise)]
    assume(np.std(zx) >= 0.5 and np.std(zy) >= 0.5)
    *x, x_new = _column(scales[0], ratios[0], zx + [new[0]])
    *y, y_new = _column(scales[1], ratios[1], zy + [new[1]])
    closed = appended_pearson(x, y)(x_new, y_new)
    assert closed == pytest.approx(pearson(x + [x_new], y + [y_new]), abs=1e-12)
