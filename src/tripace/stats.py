"""Pearson correlation, the per-archive correlation pair and its O(1)
appended-row sum.

The fitness machinery watches two column pairs of a result archive: the
swim-bike correlation and the bike-run correlation.  Transition times never
enter these; only the three sport disciplines do.  A coefficient is finished
only from variances, and a product of variances, that are normal, finite
floats, so scaling the samples by a power of two either leaves it unchanged
or raises :class:`CorrelationUndefinedError`.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .archive import Archive

_NORMAL = sys.float_info.min  # the smallest normal float


class CorrelationUndefinedError(ValueError):
    """Correlation is undefined: too few points, a constant column, or
    variances too small or too large for a float to carry them."""


class CorrelationPair(NamedTuple):
    """Swim-bike and bike-run correlations of one archive, plus their sum."""

    r_swim_bike: float
    r_bike_run: float

    @property
    def sum(self) -> float:
        return self.r_swim_bike + self.r_bike_run


def _centred(
    samples: Sequence[Sequence[float]], appended: int = 0
) -> list[tuple[float, np.ndarray]]:
    """Mean and centred copy ``(mean, sample - mean)`` of each sample.

    Two-pass: the means first, then the centred copies, whose dot products
    are the centred sums.  A constant sample is centred on its own value, so
    its centred sums are exactly 0.0; its numpy mean can be an ulp off.
    Raises :class:`CorrelationUndefinedError` for samples of unequal length,
    or when a sample plus ``appended`` points to come number fewer than 3.
    """
    arrays = [np.asarray(s, dtype=float) for s in samples]
    shapes = [a.shape for a in arrays]
    if len(set(shapes)) != 1 or arrays[0].ndim != 1:
        raise CorrelationUndefinedError(
            f"correlation undefined: length mismatch ({' vs '.join(map(str, shapes))})"
        )
    n = arrays[0].size + appended
    if n < 3:
        raise CorrelationUndefinedError(f"correlation undefined: need at least 3 points, got {n}")
    means = [float(a[0]) if a.min() == a.max() else float(a.mean()) for a in arrays]
    return [(mean, a - mean) for mean, a in zip(means, arrays)]


def _finish(sxy: float, sxx: float, syy: float, **centred: np.ndarray) -> float:
    """``Sxy / sqrt(Sxx * Syy)`` clamped to [-1, 1].

    ``Sxx``, ``Syy`` and their product must be normal, finite floats.  A zero
    variance or one below ``sys.float_info.min`` raises the
    :func:`_zero_variance` error for the two ``centred`` columns, given by
    name; an infinite or NaN one raises "variances overflow".
    """
    product = sxx * syy
    if sxx < _NORMAL or syy < _NORMAL or product < _NORMAL:
        raise _zero_variance(**centred)
    if not product < math.inf:  # an infinity, or a NaN from one
        raise CorrelationUndefinedError("correlation undefined: variances overflow")
    return min(1.0, max(-1.0, sxy / math.sqrt(product)))


# numpy's overflow warnings stay off stderr: _finish reports the overflow
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson's correlation coefficient of two equal-length samples.

    Two-pass evaluation (means first, then centred products), clamped to
    [-1, 1] to absorb floating-point overshoot.  Requires at least 3 points,
    and variances and a product of variances that are normal, finite floats
    (see :func:`_finish`); anything else raises
    :class:`CorrelationUndefinedError`.
    """
    (_, xc), (_, yc) = _centred((x, y))
    return _finish(float(np.dot(xc, yc)), float(np.dot(xc, xc)), float(np.dot(yc, yc)), x=xc, y=yc)


@_QUIET
def appended_correlation_sum(
    swim: Sequence[float], bike: Sequence[float], run: Sequence[float]
) -> Callable[[float, float, float], float]:
    """Swim-bike plus bike-run correlation with one more row appended, in O(1).

    Returns a function of the appended row ``(x_swim, x_bike, x_run)`` that
    gives ``pearson(swim+, bike+) + pearson(bike+, run+)`` on the columns
    extended by that row.  The means and centred sums of the n given rows
    are computed once, with :func:`pearson`'s two-pass arithmetic; each call
    then applies the updating formula of Welford (1962) and Chan, Golub &
    LeVeque (1983),

        S'xy = Sxy + n / (n + 1) * (x_new - mean_x) * (y_new - mean_y),

    to the five sums, sharing the bike deviation and ``S'bb`` between the
    two pairs, and finishes each pair as :func:`pearson` does:
    ``S'xy / sqrt(S'xx * S'yy)`` clamped to [-1, 1], where a product of
    extended variances that is 0.0 raises the :func:`_zero_variance` error
    for the extended columns.
    Unlike :func:`_finish` it does not test for variances out of the normal
    range, so a caller checks the given columns and the row it keeps with
    :func:`archive_correlation`, as ``predict`` does.  It rounds
    differently from :func:`pearson`, within about 1e-15 per pair on samples
    whose spread is not tiny next to their mean.  Construction raises for
    mismatched lengths or fewer than two rows.
    """
    (mean_s, s), (mean_b, b), (mean_r, r) = _centred((swim, bike, run), appended=1)
    sss, sbb, srr = float(np.dot(s, s)), float(np.dot(b, b)), float(np.dot(r, r))
    ssb, sbr = float(np.dot(s, b)), float(np.dot(b, r))
    n = len(swim)
    weight = n / (n + 1)
    sqrt = math.sqrt

    def correlation_sum(x_swim: float, x_bike: float, x_run: float) -> float:
        ds = x_swim - mean_s
        db = x_bike - mean_b
        dr = x_run - mean_r
        wds = weight * ds
        wdb = weight * db
        s_ss = sss + wds * ds
        s_bb = sbb + wdb * db
        s_rr = srr + weight * dr * dr
        try:  # the zero-product part of _finish's rule, inline
            swim_bike = (ssb + wds * db) / sqrt(s_ss * s_bb)
            bike_run = (sbr + wdb * dr) / sqrt(s_bb * s_rr)
        except ZeroDivisionError:
            # the given rows' deviations and the appended row's: all 0.0
            # exactly when the extended column is constant
            raise _zero_variance(
                swim=np.append(s, ds), bike=np.append(b, db), run=np.append(r, dr)
            ) from None
        if not -1.0 <= swim_bike <= 1.0:
            swim_bike = min(1.0, max(-1.0, swim_bike))
        if not -1.0 <= bike_run <= 1.0:
            bike_run = min(1.0, max(-1.0, bike_run))
        return swim_bike + bike_run

    return correlation_sum


def _zero_variance(**centred: np.ndarray) -> CorrelationUndefinedError:
    """The error for variances, or a product of them, below the smallest
    normal float, given each column's deviations from its mean: zero
    variance in the first constant column, whose deviations are all 0.0,
    else variances that underflow."""
    zero = [name for name, deviations in centred.items() if not deviations.any()]
    what = f"zero variance in {zero[0]}" if zero else "variances underflow"
    return CorrelationUndefinedError(f"correlation undefined: {what}")


@_QUIET
def archive_correlation(archive: Archive) -> CorrelationPair:
    """Correlation pair of an archive's swim-bike and bike-run columns: each
    column centred once, each pair finished by :func:`_finish`."""
    columns = (archive.swim_column(), archive.bike_column(), archive.run_column())
    (_, s), (_, b), (_, r) = _centred(columns)
    sbb = float(np.dot(b, b))
    return CorrelationPair(
        r_swim_bike=_finish(float(np.dot(s, b)), float(np.dot(s, s)), sbb, swim=s, bike=b),
        r_bike_run=_finish(float(np.dot(b, r)), sbb, float(np.dot(r, r)), bike=b, run=r),
    )
