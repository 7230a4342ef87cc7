"""Host-speed calibration.

On a shared VM the same call can take up to twice as long while neighbours
load the host.  CPU time rises with wall time, so this is not preemption:
the core itself runs slower.  So every call is timed together with a fixed
calibration loop shaped like one fitness evaluation: a swarm step on
5-vectors plus a two-pass correlation of an archive column.  The loop lives
here, outside tripace, so a change to the program never changes it.  A
call's time is multiplied by ``REFERENCE_S`` over the mean of the
calibrations timed just before and just after it, giving seconds at a fixed
host speed: roughly the unloaded speed of the 2-core VM on which the bounds
were measured.

The loop comes in two sizes, because numpy passes over 10 000-element
arrays slow down differently from interpreter-bound code.  ``predict_field``
correlates 10 001 points; scaled by the 31-point loop instead, its
``work_per_s`` spread over ten runs rose from 2-7 % to 13 %.  ``predict_ref``
and ``load_correlate`` use the 31-point loop; a time-string parsing loop
shaped like ``load_correlate`` did not lower its spread.  ``calibration`` in
``baseline.json`` has the figures.

Set-up is an import, not arithmetic, so it has a calibration of its own: a
fresh interpreter that imports numpy, timed right before each cold import of
``tripace.cli``.  numpy is most of that import, and both load bytecode and
shared libraries into a new process, so the two slow down together.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one calibration of either kind took on the unloaded reference VM.
REFERENCE_S = 0.025

# Seconds a fresh interpreter took to import numpy on the unloaded reference VM.
REFERENCE_IMPORT_S = 0.115

# Points each kind correlates, and the rounds that take REFERENCE_S there.
LOOPS = {"swarm_small": (31, 1400), "swarm_field": (10_001, 500)}


def calibrate(kind: str) -> float:
    """Wall seconds of one calibration loop of ``kind``."""
    points, rounds = LOOPS[kind]
    rng = np.random.default_rng(0)
    x, v, p, g = (rng.random(5) for _ in range(4))
    low, high = np.zeros(5), np.ones(5)
    a, b = rng.random(points), rng.random(points)
    start = perf_counter()
    for _ in range(rounds):
        v = v + 2.0 * 0.3 * (p - x) + 2.0 * 0.6 * (g - x)
        x = x + v
        below, above = x < low, x > high
        if below.any() or above.any():
            x = np.where(below, low, np.where(above, high, x))
            v = np.where(below | above, 0.0, v)
        a[-1] = x[0]
        ac = a - a.mean()
        bc = b - b.mean()
        float(np.dot(ac, bc)) / (float(np.dot(ac, ac)) * float(np.dot(bc, bc))) ** 0.5
    return perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a call timed between two calibrations."""
    return 2.0 * REFERENCE_S / (before + after)
