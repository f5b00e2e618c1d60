"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
a factor of up to two within seconds to minutes: one trivial shot at
mu=12 took 77-89 ms in a quiet minute and 100-200 ms in a busy one, with
CPU time equal to wall time, so neither CPU time nor a longer run removes
the drift.  A fixed reference kernel, timed right before and right after
each op and every ``PERIOD_S`` of CPU time while it runs, slows down with
the host, so the ratio of the op's time to the kernel's stays put while
both drift.

The kernel does the two kinds of work mtlab does, and nothing of mtlab:
an adaptive SciPy ``solve_ivp`` with a Python right-hand side (like
``radial_ode``), about three quarters of its time, and vectorized NumPy
passes over an 8192-point array (like the maximizer's mesh work).  With
that mix, over windows of ten samples, the log time of a trivial shot at
mu=10 and of a 2048-node maximization each moved with slope 1.0-1.1
against the kernel's; the solve alone gave 0.8-0.9, the NumPy part alone
1.8-1.9.  It never changes, so a faster or slower
mtlab moves the normalized times exactly as much as it moves the raw ones.

A normalized time is ``raw * KERNEL_REF_S / kernel``: the raw time scaled
to a host on which one kernel run takes ``KERNEL_REF_S`` seconds, where
``kernel`` is the mean of the samples taken around and during it.  The
samples taken during an op run in a signal handler between two Python
bytecodes of mtlab; their time is subtracted from the op's.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List

import numpy as np
from scipy.integrate import solve_ivp

# the reference host runs the kernel in 20 ms; a 2-vCPU Intel Xeon virtual
# machine took 17 ms in a quiet minute
KERNEL_REF_S = 0.02
# one kernel run per PERIOD_S of CPU time inside an op: about 8% extra work
PERIOD_S = 0.25
_X = np.linspace(0.0, 1.0, 8192)


def _rhs(t, y):
    return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])


def kernel() -> float:
    """One run of the reference kernel; returns a value so nothing is skipped."""
    sol = solve_ivp(_rhs, (0.0, 12.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    x = _X
    for _ in range(40):
        x = np.cumsum(np.sin(x) + _X) / x.size
    return float(sol.y[0, -1] + x[-1])


def sample(budget_s: float) -> float:
    """Median seconds of one kernel run over runs filling ``budget_s``."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < budget_s:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def normalize(raw_s: float, kernel_s: List[float]) -> float:
    """``raw_s`` at the reference speed, given kernel samples around it."""
    return raw_s * KERNEL_REF_S / statistics.fmean(kernel_s)


class Sampler:
    """Kernel runs every ``PERIOD_S`` of CPU time while the block runs.

    ``samples`` holds their times and ``spent`` the seconds the handler
    took, to be subtracted from the block's time."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self._busy = False

    def tick(self, *signal_args) -> None:
        """Take one sample; the SIGPROF handler."""
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        try:
            kernel()
            self.samples.append(perf_counter() - t0)
        finally:
            self._busy = False
            self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        return False
