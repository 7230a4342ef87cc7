"""Pearson correlation and the per-archive correlation pair.

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


def appended_pearson(x: Sequence[float], y: Sequence[float]) -> Callable[[float, float], float]:
    """Correlation of ``x`` and ``y`` with one more point appended, in O(1).

    Returns a function of the appended point ``(x_new, y_new)`` that gives
    what :func:`pearson` gives on the two samples extended by that point.
    The means and centred sums of the n given points are computed once,
    with :func:`pearson`'s two-pass arithmetic; each call then applies the
    updating formula of Welford (1962) and Chan, Golub & LeVeque (1983),

        S'xy = Sxy + n / (n + 1) * (x_new - mean_x) * (y_new - mean_y),

    and finishes as :func:`pearson` does: ``S'xy / sqrt(S'xx * S'yy)``
    clamped to [-1, 1], and :class:`CorrelationUndefinedError` when an
    extended sample has zero variance.  It rounds differently from
    :func:`pearson`, within about 1e-15 on samples whose spread is not tiny
    next to their mean.  Construction raises for mismatched lengths or
    fewer than two points.
    """
    mean_x, mean_y, sxx, syy, sxy = _centred_sums(x, y, appended=1)
    n = len(x)
    weight = n / (n + 1)

    def correlation(x_new: float, y_new: float) -> float:
        dx = x_new - mean_x
        dy = y_new - mean_y
        return _correlation(
            sxx + weight * dx * dx, syy + weight * dy * dy, sxy + weight * dx * dy
        )

    return correlation


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
