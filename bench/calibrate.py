"""Machine-speed probe that the benchmark interleaves with its timed units.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by a
factor of up to three over minutes (CPU time follows wall time, so the
process is not waiting; it runs slower).  Longer runs do not average that
out: on such a VM the medians of 25-second and of 55-second windows of the
sweep spread alike, by 12-18% between the quartiles, while the scaled
medians spread by 2-3%.  The benchmark therefore times this fixed kernel between its units
and reports each unit's wall time scaled to the speed at which the kernel
takes ``NOMINAL_S``: ``normalised = wall * NOMINAL_S / kernel_time``.

The kernel is frozen benchmark code, not program code, so a change to etsmc
cannot move it.  It does the kind of work etsmc's hot loop does: scalar
float arithmetic with ``math.exp`` inside an RK4 step, stores into numpy
arrays, and a short vectorised pass at the end.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Grid steps per kernel run: about 0.03 s on a 2-core Xeon VM, though
#: from 0.018 to 0.06 s over ten minutes on the same VM.
STEPS = 3000
#: Kernel runs per reading; the reading is their mean.
REPS = 5
#: Kernel time that defines the reference speed, in seconds: the median
#: reading over ten minutes on that VM.  Normalised times are the wall times
#: the machine would show at that speed.
NOMINAL_S = 0.03


def _kernel(steps: int) -> float:
    h = 1e-3
    x1, x2 = 0.1, 0.2
    xs = np.empty(steps)
    ys = np.empty(steps)

    def f(a: float, b: float) -> tuple[float, float]:
        ex = math.exp(b / (1.0 + b / 20.0))
        return (-a + 0.072 * (1.0 - a) * ex,
                -b + 8.0 * 0.072 * (1.0 - a) * ex - 0.3 * b)

    for i in range(steps):
        for _ in range(4):
            a1, a2 = f(x1, x2)
            b1, b2 = f(x1 + 0.5 * h * a1, x2 + 0.5 * h * a2)
            c1, c2 = f(x1 + 0.5 * h * b1, x2 + 0.5 * h * b2)
            d1, d2 = f(x1 + h * c1, x2 + h * c2)
            x1 += h / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            x2 += h / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        xs[i] = x1
        ys[i] = math.hypot(x1, x2)
    return float(np.abs(np.diff(xs)).sum() + ys.max())


def probe(steps: int = STEPS, reps: int = REPS) -> float:
    """Mean wall time of ``reps`` kernel runs, in seconds.

    The mean, not the median: a timed unit is slowed by every slow patch
    it runs through, so the probe should be too."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel(steps)
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class Speed:
    """Probe readings taken between timed units.

    Make one before the first unit, then call ``scale`` right after each
    unit: it takes the next reading and scales the unit's wall time by the
    mean of the readings on either side of it.
    """

    def __init__(self) -> None:
        self.readings = [probe()]

    def scale(self, wall: float) -> float:
        self.readings.append(probe())
        return wall * NOMINAL_S / (0.5 * (self.readings[-2]
                                          + self.readings[-1]))
