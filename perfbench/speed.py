"""Machine-speed calibration for the end-to-end times.

On the shared 2-core host this benchmark was written on, the same
pure-Python work ran anywhere from 1.0x to 1.9x its fastest time, in
swings that last from a second to several minutes, so raw times of two
sets of runs of the same code could differ by 20 % or more.

The worker therefore times a fixed calibration kernel before the first
operation and after every operation (and once after each set-up probe),
and reports each time at the reference speed, at which one kernel call
takes ``REFERENCE_UNIT_S``:

    reported = measured * REFERENCE_UNIT_S / mean(unit before, unit after)

The kernel is fixed-step Runge-Kutta on a small closed loop, once with
Python floats and once with numpy scalars (the two kinds of arithmetic the
program's hot loops do).  It uses nothing from sitctl, so a change to the
program moves the reported times in full.  Unscaled times are printed
beside the scaled ones.
"""
from __future__ import annotations

import statistics
import time

# Seconds of one kernel call on a quiet stretch of the 2-core Xeon host the benchmark was written on.
REFERENCE_UNIT_S = 0.010
FLOAT_STEPS = 1000
NUMPY_STEPS = 300
UNIT_REPEATS = 5

_RATES = (0.5, 1000.0, 0.1, 40.0, 200.0)


def _rk4(rates, steps: int) -> float:
    """RK4 steps of a logistic population under a saturating release."""
    r, k, d, a, b = rates

    def field(s):
        x, y = s
        u = a * x / (b + x) if x > 0.0 else 0.0
        return (r * x * (1.0 - x / k) - x * y / (1.0 + y), u - d * y)

    s, h = (900.0, 0.0), 0.05
    for _ in range(steps):
        k1 = field(s)
        k2 = field(tuple(v + 0.5 * h * dv for v, dv in zip(s, k1)))
        k3 = field(tuple(v + 0.5 * h * dv for v, dv in zip(s, k2)))
        k4 = field(tuple(v + h * dv for v, dv in zip(s, k3)))
        s = tuple(v + h / 6.0 * (p + 2.0 * (q + w) + z) for v, p, q, w, z in zip(s, k1, k2, k3, k4))
    return float(s[0])


def unit_time() -> float:
    """Median time of one kernel call over UNIT_REPEATS calls."""
    import numpy as np  # here, so that importing this module leaves numpy unloaded

    numpy_rates = tuple(np.float64(x) for x in _RATES)
    times = []
    for _ in range(UNIT_REPEATS):
        t0 = time.perf_counter()
        _rk4(_RATES, FLOAT_STEPS)
        _rk4(numpy_rates, NUMPY_STEPS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, unit_before: float, unit_after: float) -> float:
    """``seconds`` at the reference speed, given the kernel times taken around it."""
    return seconds * REFERENCE_UNIT_S / (0.5 * (unit_before + unit_after))
