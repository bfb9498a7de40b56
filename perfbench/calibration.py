"""Machine-speed calibration for the end-to-end timings.

The machine this benchmark was built on is shared, and its speed drifts by
up to +-30 % over minutes: the same scenario run took 1.6 s in one minute
and 1.1 s five minutes later, and the Python start-up time drifted with it.
Raw medians of ten measurements then spread by more than any usable
regression bound.  So right before and after every timed sample the worker
times a fixed job that shares no code with susyjc: a DOP853 solve with a
scalar Python right-hand side, on the same interpreter, numpy and scipy as
the package, in the same thread as the sample.  Its time over its nominal
0.1 s is the machine's current slowness, and each sample is divided by the
mean slowness before and after it: seconds on a machine on which the job
takes 0.1 s.  (A second job, a dense 64x64 complex solve like the oracle's,
was tried and dropped: it runs on both cores, so it swings with the other
core's load while the single-threaded workloads do not.)
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

NOMINAL_S = 0.1  # the job's time on the reference machine


def _pendulum(t, y):
    return np.array([y[1], -math.sin(y[0]) - 0.01 * y[1]])


def calibrate() -> float:
    """Current slowness: 1.0 when the job takes its nominal time."""
    start = perf_counter()
    solve_ivp(_pendulum, (0.0, 500.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    return (perf_counter() - start) / NOMINAL_S
