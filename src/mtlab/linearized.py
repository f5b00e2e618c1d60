"""Solvers for the linearized radial family -Delta w = 4 e^{2 eta0}(f + 2w).

Every member is solved with zero Cauchy data at the origin, stepped from
the series of the core that :func:`mtlab.radial_ode.solve` fits (at
r = 1e-2, a rung lower when r_max is below it); the w0 core starts at r^4,
since its source vanishes at the origin, which the fit's absolute check
handles.  Solutions grow at most logarithmically, w(r) = beta log r + O(1),
and the log-slope beta is best read off from the integrated quantity
r w'(r), which converges to beta with rate O(log^q r / r^2).  The same beta
is computable by a weighted planar integral (see :mod:`mtlab.quadrature`),
giving an independent cross-check.

The sources of w0, z0 and w_a, like the profiles they are built from,
take a float or a float ndarray: a float gives a NumPy scalar (the
profiles' ufuncs return one), with no 0-d array built on the way, and the
solver's state calls them on one float per evaluation.  The state converts
that scalar to a float once, so its rates, and every stage of the float
stepper after them, are Python floats (a NumPy scalar would turn every
stage's arithmetic into NumPy-scalar arithmetic, several times slower).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import profiles as pf
from .radial_ode import R_START, RadialSolution, solve

__all__ = [
    "source_w0",
    "source_z0",
    "source_wa",
    "solve_linearized",
    "extract_log_slope",
]

LINEARIZED_TOL = 1e-12  # relative and absolute tolerance of solve_linearized
SLOPE_R_LO = 1e3  # bottom of extract_log_slope's window
SLOPE_R_HI = 1e6  # top of extract_log_slope's window: the solve must reach it
SLOPE_SAMPLES = 64  # log-spaced radii that extract_log_slope reads


def source_w0(r):
    """f = eta0 + eta0^2 (produces the profile w0)."""
    e = pf.eta0(r)
    return e + e * e


def source_z0(r):
    """f = w0 + 2 w0^2 + 4 eta0 w0 + 2 eta0^2 w0 + eta0^3 + eta0^4 / 2."""
    e = pf.eta0(r)
    w = pf.w0(r)
    return w + 2.0 * w * w + 4.0 * e * w + 2.0 * e * e * w \
        + e ** 3 + 0.5 * e ** 4


def source_wa(a: float) -> Callable:
    """f = eta0 + eta0^2 - a (produces w_a = w0 - a zeta0)."""

    def f(r):
        e = pf.eta0(r)
        return e + e * e - a

    return f


def solve_linearized(source: Callable, r_max: float = 1e6) -> RadialSolution:
    """Solve -Delta w = 4 e^{2 eta0}(source(r) + 2 w), w(0) = w'(0) = 0.

    ``source`` is a radial rule with at most log^4 growth; the state calls
    it on one float r per evaluation, the fit of the start included, and
    converts what it returns to a float: the
    solve starts from the core's fitted series at the largest radius of
    ``radial_ode.START_LADDER`` below r_max that passes its check.  An
    r_max outside (R_START, 1e8], NaN included, raises ValueError before
    the solve.  Both tolerances of the integrator (DOP853) are
    LINEARIZED_TOL.
    """
    # written so that a NaN fails the test
    if not R_START < r_max <= 1e8:
        raise ValueError(f"need R_START = {R_START:g} < r_max <= 1e8 (the solve "
                         f"starts below r_max, at R_START at the lowest), "
                         f"got r_max={r_max}")

    def state(t, y):
        r = math.exp(t)
        one = 1.0 + r * r
        return y[1], -r * r * (4.0 / (one * one) * (float(source(r)) + 2.0 * y[0]))

    return solve(state, np.log(r_max), LINEARIZED_TOL, LINEARIZED_TOL)


def extract_log_slope(sol: RadialSolution):
    """Estimate beta in w(r) = beta log r + O(1) from the tail of r w'(r).

    Returns (beta_hat, error_estimate); beta_hat is the median of r w'(r)
    over SLOPE_SAMPLES log-spaced samples in [SLOPE_R_LO, SLOPE_R_HI], the
    error estimate is the half-spread of the central 80% of the samples.
    A solution that ends below SLOPE_R_HI raises ValueError.
    """
    if not np.log(SLOPE_R_HI) <= sol.t_max:
        raise ValueError(f"solution not defined up to SLOPE_R_HI = {SLOPE_R_HI:g}")
    t = np.linspace(np.log(SLOPE_R_LO), np.log(SLOPE_R_HI), SLOPE_SAMPLES)
    _, v = sol.eval_t(t)
    beta_hat = float(np.median(v))
    lo, hi = np.quantile(v, [0.1, 0.9])
    return beta_hat, float(0.5 * (hi - lo))
