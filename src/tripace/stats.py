"""Pearson correlation, the per-archive correlation pair and its O(1)
appended-row sum.

The fitness machinery watches two column pairs of a result archive: the
swim-bike correlation and the bike-run correlation.  Transition times never
enter these; only the three sport disciplines do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .archive import Archive


class CorrelationUndefinedError(ValueError):
    """Correlation is undefined: too few points or a constant column."""


@dataclass(frozen=True)
class CorrelationPair:
    """Swim-bike and bike-run correlations of one archive, plus their sum."""

    r_swim_bike: float
    r_bike_run: float

    @property
    def sum(self) -> float:
        return self.r_swim_bike + self.r_bike_run


def _centred_sums(
    x: Sequence[float], y: Sequence[float], appended: int = 0
) -> tuple[float, float, float, float, float]:
    """Means and centred sums ``(mean_x, mean_y, Sxx, Syy, Sxy)`` of two samples.

    Two-pass: the means first, then dot products of the centred samples.  A
    constant sample is centred on its own value, whose centred sums are then
    exactly 0.0; its numpy mean can be an ulp off.  Raises
    :class:`CorrelationUndefinedError` for mismatched lengths, or when the
    samples plus ``appended`` points to come number fewer than 3.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise CorrelationUndefinedError(
            f"correlation undefined: length mismatch ({xs.shape} vs {ys.shape})"
        )
    if xs.size + appended < 3:
        raise CorrelationUndefinedError(
            f"correlation undefined: need at least 3 points, got {xs.size + appended}"
        )
    mean_x = _mean(xs)
    mean_y = _mean(ys)
    xc = xs - mean_x
    yc = ys - mean_y
    return mean_x, mean_y, float(np.dot(xc, xc)), float(np.dot(yc, yc)), float(np.dot(xc, yc))


def _mean(sample: np.ndarray) -> float:
    return float(sample[0]) if sample.min() == sample.max() else float(sample.mean())


def _correlation(sxx: float, syy: float, sxy: float) -> float:
    """``Sxy / sqrt(Sxx * Syy)`` clamped to [-1, 1]; a zero variance raises."""
    if sxx == 0.0 or syy == 0.0:
        which = "x" if sxx == 0.0 else "y"
        raise CorrelationUndefinedError(f"correlation undefined: zero variance in {which}")
    return min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy)))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson's correlation coefficient of two equal-length samples.

    Two-pass evaluation (means first, then centered products), clamped to
    [-1, 1] to absorb floating-point overshoot.  Requires at least 3 points
    and non-constant inputs; anything else raises
    :class:`CorrelationUndefinedError`.
    """
    _, _, sxx, syy, sxy = _centred_sums(x, y)
    return _correlation(sxx, syy, sxy)


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
    ``S'xy / sqrt(S'xx * S'yy)`` clamped to [-1, 1].  An extended column of
    zero variance raises :class:`CorrelationUndefinedError`.  It rounds
    differently from :func:`pearson`, within about 1e-15 per pair on samples
    whose spread is not tiny next to their mean.  Construction raises for
    mismatched lengths or fewer than two rows.
    """
    mean_s, mean_b, sss, sbb, ssb = _centred_sums(swim, bike, appended=1)
    _, mean_r, _, srr, sbr = _centred_sums(bike, run, appended=1)
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
        try:
            swim_bike = (ssb + wds * db) / sqrt(s_ss * s_bb)
            bike_run = (sbr + wdb * dr) / sqrt(s_bb * s_rr)
        except ZeroDivisionError:
            raise _zero_variance(swim=s_ss, bike=s_bb, run=s_rr) from None
        if not -1.0 <= swim_bike <= 1.0:
            swim_bike = min(1.0, max(-1.0, swim_bike))
        if not -1.0 <= bike_run <= 1.0:
            bike_run = min(1.0, max(-1.0, bike_run))
        return swim_bike + bike_run

    return correlation_sum


def _zero_variance(**variances: float) -> CorrelationUndefinedError:
    """The error for a product of centred sums that is 0.0: a zero variance,
    or two variances so small that their product underflows."""
    zero = [name for name, s in variances.items() if s == 0.0]
    what = f"zero variance in {zero[0]}" if zero else "variances underflow"
    return CorrelationUndefinedError(f"correlation undefined: {what}")


def archive_correlation(archive: Archive) -> CorrelationPair:
    """Correlation pair of an archive's swim-bike and bike-run columns."""
    columns = {
        "swim": archive.swim_column(),
        "bike": archive.bike_column(),
        "run": archive.run_column(),
    }
    for name, col in columns.items():
        if col.size >= 3 and col.max() == col.min():
            raise CorrelationUndefinedError(
                f"correlation undefined: column {name!r} is constant"
            )
    return CorrelationPair(
        r_swim_bike=pearson(columns["swim"], columns["bike"]),
        r_bike_run=pearson(columns["bike"], columns["run"]),
    )
