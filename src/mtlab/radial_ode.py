"""Adaptive initial-value integration of radial equations in log radius.

A radial equation Delta u = u'' + u'/r on the plane becomes, in the
coordinate t = log r with v = r u'(r),

    du/dt = v,      dv/dt = e^{2t} Delta u.

:func:`solve` integrates the Cauchy problem u(0) = u'(0) = 0 to t_end or
to the first crossing of a level.  The caller supplies one state function
of t for the whole state (u, v, q...), so each right-hand-side evaluation
shares its work between the equation and any quadrature states q (e.g. a
running energy integral, state 2 of a shot), which share the same error
control and vanish at the origin.  The stepper is DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.10), an embedded Runge-Kutta
pair of order 8(5,3), the only pair used: on the linearized solves at
tolerance 1e-12 it takes a fifth of RK45's accepted steps and a little
over half its right-hand-side evaluations.

Near the origin every state is an even power series in r, and the solve
works that analytic core out from the state function instead of stepping
through it.  At a start radius r0 it fits y = sum_{m=1..3} c_m r^{2m} to
every state, with v tied to u by v = r u', by FIT_SWEEPS fixed-point
sweeps of the state function at the three radii r0 sqrt(j/3), j = 1, 2, 3.
It then checks the fitted rates dy/dt against the state function at
log-spaced radii from R_START to r0, absolutely, within each state's
atol (a relative check would fail on a state whose rates start at r^4).
DOP853 starts at the largest r0 on START_LADDER (1e-2 down to R_START =
1e-6) that lies below t_end, keeps u on the start's side of the level up
to r0, and passes the check; R_START is taken when no larger rung does.
The start costs FIT_SWEEPS * 3 state-function calls plus the checks, and
saves the 20-30 step attempts that DOP853 spends between 1e-6 and 1e-2.
Below its first node a solution evaluates that series.

The steps are taken by :func:`solve_ivp`, this module's own DOP853 on
Python floats.  A shot's state is 3 floats, and NumPy's per-call cost on
arrays that small (the stage products, the state arrays, the norms) was
about three quarters of each right-hand-side evaluation under SciPy's
stepper.  So each attempt writes its 11 stages out as ``dop853.f`` does,
one comprehension over the state lists per stage, with the tableau read
from SciPy's ``DOP853`` class, and keeps SciPy's controller and continuous
extension.  The numbers are not bit-identical to
``scipy.integrate.solve_ivp``: the error estimate cancels to about 1e-5 of
its terms, so another summation order moves the step sizes a little.  The
tests bound the difference (one step within 4 eps of SciPy's, whole
solves within a few rtol).  Of SciPy's event machinery the loop keeps
only the one stop that :func:`solve` asks for, a level, whose first
crossing ends the solve; a step that fails raises IntegrationError on
the spot, and so does a step size that is not finite (SciPy's initial
step is NaN when the state function is NaN at the start).
It keeps SciPy's name, ``solve_ivp``, so that code wrapping
``radial_ode.solve_ivp`` (the benchmark's tracer, a test counting calls)
still sees every solve; :func:`solve` looks the name up at call time for
that reason.

Every solution evaluates between its nodes on the pair's continuous
extension, its dense output, which ``eval*`` read.  DOP853 builds it from
3 extra right-hand-side evaluations per accepted step, about a fifth of a
solve's work, and most solves never read it between nodes: a shot reads
it at one point, its split radius.  So the loop keeps each accepted
step's start, size, states and stage rows, and the solve's
:class:`ContinuousExtension` reads every point, a scalar t or one of an
array, off its own step alone, on Python floats.  One helper,
:func:`_step_reader`, makes a step's reader from its 3 extra stages and
its Horner coefficients (one product with DOP853's D) on the step's
first read, and the extension keeps it; the readers evaluate SciPy's
Horner form in SciPy's order, so they give the bits of SciPy's
``OdeSolution`` of ``Dop853DenseOutput`` pieces with the same
coefficients.  A point then costs about 1.7 us, where a NumPy evaluation
vectorized over the points of all steps cost about 0.2 us (the 667
nodes and Gauss points of a shot's PDE residual at mu = 12, 2-vCPU
host).  So a read that touches every step, such as that residual, costs
more than it would on one container of all steps, and a read that
touches few costs less: the 64 slope radii of ``mtlab beta`` lie on 12
of the z0 solve's 72 steps, and only those 12 take their extra stages.
The root search for the crossing evaluates the crossing step's reader,
which the extension keeps, so the state at the crossing and at any t is
the one that a read gives there.  The extension's calls are not the
stepper's: ``solve_ivp``'s ``nfev`` leaves them out, the crossing step's
3 apart, and ``RadialSolution.nfev`` counts them as they are made.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp.common import select_initial_step
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

__all__ = [
    "IntegrationError",
    "NoCrossingError",
    "LogRadialGrid",
    "RadialSolution",
    "R_START",
    "START_LADDER",
    "MIN_RTOL",
    "solve",
]

R_START = 1e-6
# start radii tried from the top; the first that passes the series check wins
START_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, R_START)
FIT_SWEEPS = 3  # fixed-point sweeps of the series fit, 3 state calls each
CHECKS_PER_DECADE = 2  # log-spaced radii per decade at which a fit is checked
# the floor on rtol: below it the error estimate, which cancels to about
# 1e-5 of its terms, is rounding noise (SciPy's DOP853 runs at it instead)
MIN_RTOL = 100.0 * np.finfo(float).eps
EVENT_XTOL = 4.0 * np.finfo(float).eps  # brentq's xtol and rtol on the crossing, SciPy's

# DOP853's tableau as Python floats, read from SciPy's class: stage s of a
# step reads the earlier stages _STAGES[s - 1], the solution and both error
# estimates read _SOLUTION, and the dense output's extra stages 13-15 read
# _EXTRA; every other coefficient is zero (dop853.f writes the same pattern)
_STAGES = ((0,), (0, 1), (0, 2), (0, 2, 3), (0, 3, 4), (0, 3, 4, 5), (0, 3, 4, 5, 6),
           (0, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7, 8), (0, 3, 4, 5, 6, 7, 8, 9),
           (0, 3, 4, 5, 6, 7, 8, 9, 10))
_SOLUTION = (0, 5, 6, 7, 8, 9, 10, 11)
_EXTRA = ((0, 6, 7, 8, 9, 10, 11, 12), (0, 5, 6, 7, 10, 11, 12, 13),
          (0, 5, 6, 7, 8, 12, 13, 14))
_DENSE = (0, *range(5, 16))  # the stages that the dense output's D reads
_AB = tuple([float(DOP853.A[s, j]) for s, row in enumerate(_STAGES, 1) for j in row]
            + [float(DOP853.B[j]) for j in _SOLUTION])
_C = tuple(map(float, DOP853.C[1:]))
_E5 = tuple(float(DOP853.E5[j]) for j in _SOLUTION)
_E3 = tuple(float(DOP853.E3[j]) for j in _SOLUTION)
_A_EXTRA = tuple(float(DOP853.A_EXTRA[s, j]) for s, row in enumerate(_EXTRA) for j in row)
_C_EXTRA = tuple(map(float, DOP853.C_EXTRA))
_D = DOP853.D[:, _DENSE]
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)

# the fit in s = (r/r0)^2: y = sum_m d_m s^m at the nodes s = j/3, whose
# rates are dy/dt = sum_m 2m d_m s^m and, for u through v, sum_m 4m^2 d_m s^m
_ORDERS = np.arange(1.0, 4.0)
_FIT_S = _ORDERS / 3.0
_FIT_POW = _FIT_S[:, None] ** _ORDERS
_RATE_INV = np.linalg.inv(2.0 * _ORDERS * _FIT_POW)
_U_INV = np.linalg.inv(4.0 * _ORDERS ** 2 * _FIT_POW)


class IntegrationError(RuntimeError):
    """The adaptive stepper failed (step underflow / non-finite rhs)."""


class NoCrossingError(RuntimeError):
    """The solution never crossed the requested level before t_end."""


@dataclass(frozen=True)
class LogRadialGrid:
    """Accepted step locations t = log r, starting at the fitted start."""

    t_nodes: np.ndarray


class RadialSolution:
    """Samples of a radial function u and of v = r u'(r) on a log grid.

    ``eval*`` interpolate between nodes with the integrator's continuous
    extension (the dense output of the Runge-Kutta pair): every t, scalar
    or in an array, reads its own step on floats.  They evaluate the
    fitted series below the first node; a t past ``t_max`` or a NaN t
    raises ValueError, where the last step's extension would extrapolate
    quietly.
    ``end_state`` is the whole state (u, r*u', quadrature states...) at the
    last node, the level crossing when there is one.  ``nfev`` counts the
    state-function calls, those of the start fit included and those of the
    extension as its reads make them, and ``accepted_steps`` the steps
    DOP853 took.
    """

    def __init__(self, grid: LogRadialGrid, values, r_derivs,
                 extension: ContinuousExtension, t_event: Optional[float],
                 end_state, series: np.ndarray, nfev: int, accepted_steps: int):
        self.grid = grid
        self.values = values
        self.r_derivs = r_derivs
        self._extension = extension
        self.t_event = t_event
        self.end_state = end_state
        self._series = series
        self._nfev = nfev
        self.accepted_steps = accepted_steps

    @property
    def nfev(self) -> int:
        return self._nfev + self._extension.nfev

    @property
    def t_min(self) -> float:
        return float(self.grid.t_nodes[0])

    @property
    def t_max(self) -> float:
        return float(self.grid.t_nodes[-1])

    def eval_state_t(self, t):
        """Dense evaluation of the whole state (u, r*u', ...) at t = log r."""
        t = np.asarray(t, dtype=float)
        if not np.all(t <= self.t_max):
            raise ValueError(f"t = {np.max(t)!r} lies past the end of the solution, "
                             f"t_max = {self.t_max!r}")
        below = t < self.t_min
        if not below.any():
            return self._extension(t)
        y = _series_state(self._series, self.t_min, np.minimum(t, self.t_min))
        if not below.all():
            y[:, ~below] = self._extension(t[~below])
        return y

    def eval_t(self, t):
        """Dense evaluation at t = log r; returns (u, r*u')."""
        y = self.eval_state_t(t)
        return y[0], y[1]

    def eval(self, r):
        """Dense evaluation at radius r > 0."""
        r = np.asarray(r, dtype=float)
        return self.eval_t(np.log(r))


class ContinuousExtension:
    """DOP853's continuous extension over every accepted step of a solve.

    It is made from what the stepper kept: the state function, the nodes
    and, for each step, its start t_old, size h, start and end states
    (lists of floats; a crossing does not cut the step short here) and
    stage rows (stages 0 and 5-11 and the rate at the step's end), with
    the float readers of :func:`_step_reader` already made, by step.  A
    point t reads the step that ``bisect_left(nodes, t) - 1`` picks,
    clipped to the steps, so a node reads the step that ends there.  Every
    point, a scalar t or one of an array, reads that step's float reader,
    made on the step's first read and kept, in SciPy's Horner form and
    order: the same numbers as an ``OdeSolution`` of ``Dop853DenseOutput``
    pieces with the same coefficients.  Like it, a scalar t gives the
    state, shape (states,), and m points give shape (states, m).
    ``nfev`` counts the calls made here, 3 per reader.
    """

    def __init__(self, fun: Callable, nodes: list, steps: list, readers: dict):
        self._fun, self._nodes, self._steps, self._readers = fun, nodes, steps, readers
        self.nfev = 0

    def _read(self, t: float) -> list:
        i = min(max(bisect_left(self._nodes, t) - 1, 0), len(self._steps) - 1)
        read = self._readers.get(i)
        if read is None:
            read = self._readers[i] = _step_reader(self._fun, *self._steps[i])
            self.nfev += 3
        return read(t)

    def __call__(self, t):
        if np.ndim(t) == 0:
            return np.array(self._read(float(t)))
        ys = [self._read(s) for s in np.asarray(t, dtype=float).tolist()]
        return np.array(ys).reshape(-1, len(self._steps[0][2])).T


class IvpResult(NamedTuple):
    """What :func:`solve_ivp` returns: the nodes (the crossing last) and
    their states, one row per state, the extension (read as its docstring
    says), the crossing (None without one) and the stepper's state-function
    calls, the crossing step's 3 extra stages included."""

    t: np.ndarray
    y: np.ndarray
    sol: ContinuousExtension
    t_event: Optional[float]
    nfev: int


def solve_ivp(fun: Callable, t_span, y0, rtol: float, atol,
              level: Optional[float] = None) -> IvpResult:
    """DOP853 on Python floats from t_span[0] to t_span[1], or to u = level.

    ``fun(t, y)`` gets the state as a list of floats and returns a sequence
    of as many rates; a first call that returns another number raises
    ValueError, as does a ``t_span`` that does not increase.  Each attempt
    is SciPy's DOP853 step with its 11 stages written out as in
    ``dop853.f``, one comprehension over the state per stage, and the
    controller is SciPy's: its initial step, its safety factor and error
    exponent, growth between MIN_FACTOR and MAX_FACTOR, none right after a
    rejection, and IntegrationError below a 10-ulp step or on a step size
    that is not finite.  The solve stops at the first step on which
    y[0] - level changes sign (two-sided, so a zero at either node counts):
    ``brentq`` at EVENT_XTOL finds the crossing on that step's float reader
    (:func:`_step_reader`, its 3 extra stages the only ones the loop
    takes), and the crossing becomes the last node.  Every step keeps its
    size and its stage rows for the solve's :class:`ContinuousExtension`,
    which keeps the crossing step's reader; ``nfev`` counts the loop's
    calls alone.
    """
    t, tf = map(float, t_span)
    if not t < tf:
        raise ValueError(f"t_span must increase, got {t_span}")
    rtol = float(rtol)
    y = [float(p) for p in y0]
    n = len(y)
    atol = [float(a) for a in np.broadcast_to(atol, n)]
    f = fun(t, y)
    if len(f) != n:
        raise ValueError(f"the state function returned {len(f)} rates for {n} states")
    # SciPy's rule calls fun once on NumPy values, so fun gets them as floats
    h_abs = float(select_initial_step(lambda s, z: fun(float(s), z.tolist()), t, np.array(y), tf,
                                      np.inf, np.asarray(f, dtype=float), 1.0,
                                      DOP853.error_estimator_order, rtol, np.array(atol)))
    nfev = 2  # f and the initial step's trial rate
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C
    (a1_0, a2_0, a2_1, a3_0, a3_2, a4_0, a4_2, a4_3, a5_0, a5_3, a5_4,
     a6_0, a6_3, a6_4, a6_5, a7_0, a7_3, a7_4, a7_5, a7_6,
     a8_0, a8_3, a8_4, a8_5, a8_6, a8_7,
     a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8,
     a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9,
     a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10,
     b0, b5, b6, b7, b8, b9, b10, b11) = _AB
    e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = _E5
    e3_0, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11 = _E3
    g = None if level is None else y[0] - level
    ts, ys = [t], [y]
    steps = []  # each accepted step's start, size, states and stage rows, for the extension
    t_event = None
    readers = {}  # the crossing step's reader, for the extension
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN fails it: SciPy's initial step on a NaN rate
                raise IntegrationError(f"integration failed near t={t:.6g} (r={np.exp(t):.6g}): "
                                       f"the step fell below 10 ulp of t or is not finite")
            t_new = min(t + h_abs, tf)
            h = h_abs = t_new - t
            k0 = f
            k1 = fun(t + c1 * h, [p + h * (a1_0 * q0) for p, q0 in zip(y, k0)])
            k2 = fun(t + c2 * h, [p + h * (a2_0 * q0 + a2_1 * q1)
                                  for p, q0, q1 in zip(y, k0, k1)])
            k3 = fun(t + c3 * h, [p + h * (a3_0 * q0 + a3_2 * q2)
                                  for p, q0, q2 in zip(y, k0, k2)])
            k4 = fun(t + c4 * h, [p + h * (a4_0 * q0 + a4_2 * q2 + a4_3 * q3)
                                  for p, q0, q2, q3 in zip(y, k0, k2, k3)])
            k5 = fun(t + c5 * h, [p + h * (a5_0 * q0 + a5_3 * q3 + a5_4 * q4)
                                  for p, q0, q3, q4 in zip(y, k0, k3, k4)])
            k6 = fun(t + c6 * h, [p + h * (a6_0 * q0 + a6_3 * q3 + a6_4 * q4 + a6_5 * q5)
                                  for p, q0, q3, q4, q5 in zip(y, k0, k3, k4, k5)])
            k7 = fun(t + c7 * h, [p + h * (a7_0 * q0 + a7_3 * q3 + a7_4 * q4 + a7_5 * q5
                                           + a7_6 * q6)
                                  for p, q0, q3, q4, q5, q6 in zip(y, k0, k3, k4, k5, k6)])
            k8 = fun(t + c8 * h, [p + h * (a8_0 * q0 + a8_3 * q3 + a8_4 * q4 + a8_5 * q5
                                           + a8_6 * q6 + a8_7 * q7)
                                  for p, q0, q3, q4, q5, q6, q7
                                  in zip(y, k0, k3, k4, k5, k6, k7)])
            k9 = fun(t + c9 * h, [p + h * (a9_0 * q0 + a9_3 * q3 + a9_4 * q4 + a9_5 * q5
                                           + a9_6 * q6 + a9_7 * q7 + a9_8 * q8)
                                  for p, q0, q3, q4, q5, q6, q7, q8
                                  in zip(y, k0, k3, k4, k5, k6, k7, k8)])
            k10 = fun(t + c10 * h, [p + h * (a10_0 * q0 + a10_3 * q3 + a10_4 * q4 + a10_5 * q5
                                             + a10_6 * q6 + a10_7 * q7 + a10_8 * q8
                                             + a10_9 * q9)
                                    for p, q0, q3, q4, q5, q6, q7, q8, q9
                                    in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)])
            k11 = fun(t + c11 * h, [p + h * (a11_0 * q0 + a11_3 * q3 + a11_4 * q4 + a11_5 * q5
                                             + a11_6 * q6 + a11_7 * q7 + a11_8 * q8
                                             + a11_9 * q9 + a11_10 * q10)
                                    for p, q0, q3, q4, q5, q6, q7, q8, q9, q10
                                    in zip(y, k0, k3, k4, k5, k6, k7, k8, k9, k10)])
            y_new = [p + h * (b0 * q0 + b5 * q5 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9
                              + b10 * q10 + b11 * q11)
                     for p, q0, q5, q6, q7, q8, q9, q10, q11
                     in zip(y, k0, k5, k6, k7, k8, k9, k10, k11)]
            f_new = fun(t + h, y_new)
            nfev += 12
            # SciPy's error norm of the pair: the 5th- and 3rd-order estimates,
            # each a root mean square in units of atol + rtol max(|y|, |y_new|)
            norm5 = norm3 = 0.0
            for a, p, q, q0, q5, q6, q7, q8, q9, q10, q11 in zip(
                    atol, y, y_new, k0, k5, k6, k7, k8, k9, k10, k11):
                s = a + max(abs(p), abs(q)) * rtol
                e = (e5_0 * q0 + e5_5 * q5 + e5_6 * q6 + e5_7 * q7 + e5_8 * q8 + e5_9 * q9
                     + e5_10 * q10 + e5_11 * q11) / s
                norm5 += e * e
                e = (e3_0 * q0 + e3_5 * q5 + e3_6 * q6 + e3_7 * q7 + e3_8 * q8 + e3_9 * q9
                     + e3_10 * q10 + e3_11 * q11) / s
                norm3 += e * e
            denom = norm5 + 0.01 * norm3
            error_norm = h * norm5 / math.sqrt(denom * n) if denom else 0.0
            if error_norm < 1.0:
                factor = (min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                          if error_norm else MAX_FACTOR)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        steps.append((t_old, h, y_old, y, (k0, k5, k6, k7, k8, k9, k10, k11, f)))
        if level is not None:
            g_old, g = g, y[0] - level
            if g_old <= 0.0 <= g or g_old >= 0.0 >= g:
                read = readers[len(steps) - 1] = _step_reader(fun, *steps[-1])
                nfev += 3
                t = t_event = brentq(lambda s: read(s)[0] - level, t_old, t,
                                     xtol=EVENT_XTOL, rtol=EVENT_XTOL)
                y = read(t)
        ts.append(t)
        ys.append(y)
        if t_event is not None or t == tf:
            break
    sol = ContinuousExtension(fun, ts, steps, readers)
    return IvpResult(np.array(ts), np.array(ys).T, sol, t_event, nfev)


def _extra_stages(fun: Callable, t_old: float, h: float, y_old, stages) -> list:
    """The stage rows that the continuous extension of the step [t_old, t_old + h] reads.

    ``stages`` holds the step's stages 0 and 5-11 and the rate at its end
    (stage 12); the three extra stages 13-15 are written out as in the
    step, and all twelve come back in the order of ``_DENSE``.
    """
    k0, k5, k6, k7, k8, k9, k10, k11, k12 = stages
    c13, c14, c15 = _C_EXTRA
    (a13_0, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12,
     a14_0, a14_5, a14_6, a14_7, a14_10, a14_11, a14_12, a14_13,
     a15_0, a15_5, a15_6, a15_7, a15_8, a15_12, a15_13, a15_14) = _A_EXTRA
    k13 = fun(t_old + c13 * h, [p + h * (a13_0 * q0 + a13_6 * q6 + a13_7 * q7 + a13_8 * q8
                                         + a13_9 * q9 + a13_10 * q10 + a13_11 * q11
                                         + a13_12 * q12)
                                for p, q0, q6, q7, q8, q9, q10, q11, q12
                                in zip(y_old, k0, k6, k7, k8, k9, k10, k11, k12)])
    k14 = fun(t_old + c14 * h, [p + h * (a14_0 * q0 + a14_5 * q5 + a14_6 * q6 + a14_7 * q7
                                         + a14_10 * q10 + a14_11 * q11 + a14_12 * q12
                                         + a14_13 * q13)
                                for p, q0, q5, q6, q7, q10, q11, q12, q13
                                in zip(y_old, k0, k5, k6, k7, k10, k11, k12, k13)])
    k15 = fun(t_old + c15 * h, [p + h * (a15_0 * q0 + a15_5 * q5 + a15_6 * q6 + a15_7 * q7
                                         + a15_8 * q8 + a15_12 * q12 + a15_13 * q13
                                         + a15_14 * q14)
                                for p, q0, q5, q6, q7, q8, q12, q13, q14
                                in zip(y_old, k0, k5, k6, k7, k8, k12, k13, k14)])
    return [k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15]


def _coefficients(h: float, y_old: np.ndarray, y: np.ndarray, K: np.ndarray) -> np.ndarray:
    """SciPy's Horner coefficients F, shape (7, states), of one step's extension.

    Of the step from y_old over h to y, K its rows from :func:`_extra_stages`:
    the product with ``_D`` that SciPy's ``Dop853DenseOutput`` is given.
    """
    dy = y - y_old
    F = np.empty((7, K.shape[1]))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[8] + K[0])
    F[3:] = h * _D @ K
    return F


def _step_reader(fun: Callable, t_old: float, h: float, y_old: list, y: list, stages) -> Callable:
    """The continuous extension of the step [t_old, t_old + h] from y_old to y, on floats.

    It takes the step's 3 extra stages (:func:`_extra_stages`) and its
    Horner coefficients (:func:`_coefficients`), and reads the whole state
    at a t as a list of floats.  The operations are SciPy's, in its order,
    so the bits are those of ``Dop853DenseOutput``.
    """
    K = _extra_stages(fun, t_old, h, y_old, stages)
    columns = list(zip(y_old, *_coefficients(h, np.array(y_old), np.array(y),
                                              np.array(K)).tolist()))

    def read(t: float) -> list:
        x = (t - t_old) / h
        x1 = 1.0 - x
        return [(((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1 + f0) * x
                + p for p, f0, f1, f2, f3, f4, f5, f6 in columns]

    return read


def _series_state(series: np.ndarray, t0: float, t):
    """The whole state sum_m d_m s^m, s = e^{2(t - t0)}, at t <= t0."""
    s = np.exp(2.0 * (np.asarray(t, dtype=float) - t0))
    return np.tensordot(series, s[..., None] ** _ORDERS, axes=([1], [-1]))


def _fit_start(fun: Callable, t0: float) -> np.ndarray:
    """Scaled series coefficients d (state, m) of the core at t0 = log r0.

    Each sweep evaluates the state function on the current series at the
    three fit radii and solves for the coefficients whose rates match it;
    the v row is tied to the u row by v = r u'.  The first sweep passes
    the zero series as (u, v) = (0, 0) alone, and the number of rates that
    the state function returns sets the number of states.
    """
    ts = t0 + 0.5 * np.log(_FIT_S)
    d = None
    for _ in range(FIT_SWEEPS):
        cols = [[0.0, 0.0]] * 3 if d is None else _series_state(d, t0, ts).T.tolist()
        rates = np.array([fun(t, col) for t, col in zip(ts.tolist(), cols)])
        d = np.empty((rates.shape[1], 3))
        d[0] = _U_INV @ rates[:, 1]
        d[1] = 2.0 * _ORDERS * d[0]
        d[2:] = (_RATE_INV @ rates[:, 2:]).T
    return d


def _start_holds(fun: Callable, d: np.ndarray, t0: float, atol,
                 level: Optional[float]) -> bool:
    """Whether the fitted rates match the state function from R_START to r0.

    A start past the level crossing fails too: the stepper cannot see a
    crossing at its first point.
    """
    decades = (t0 - np.log(R_START)) / np.log(10.0)
    ts = np.linspace(np.log(R_START), t0, int(round(CHECKS_PER_DECADE * decades)) + 1)
    y = _series_state(d, t0, ts)
    if level is not None and not np.all((y[0] - level) * -level > 0.0):
        return False
    fitted = _series_state(2.0 * _ORDERS * d, t0, ts)
    return all(np.all(np.abs(fun(t, col) - fitted_col) <= atol)
               for t, col, fitted_col in zip(ts.tolist(), y.T.tolist(), fitted.T))


def solve(fun: Callable, t_end: float, rtol: float, atol,
          level: Optional[float] = None) -> RadialSolution:
    """Integrate from the fitted start to t_end, or to the first crossing u = level.

    ``fun(t, y)`` returns dy/dt for the state y = (u, v, q...):
    (v, e^{2t} Delta u) and the rates of any quadrature states q, running
    integrals whose rates depend on t, u and v alone; the number of rates
    sets the number of states.  Every state vanishes at the origin, the
    start is fitted to the core as the module docstring says, and ``fun``
    gets the state as a list of floats, in the start fit as in the stepper.
    The stepper is this module's DOP853 on floats, :func:`solve_ivp`; the
    name is looked up at each call, so a wrapper patched over it sees every
    solve (the benchmark's tracer counts solves that way until it reads the
    counts off the result).  With a ``level`` the crossing is located by
    root-finding on the continuous extension of its step, and a missing
    crossing raises NoCrossingError (distinct from integrator failure).
    A read of the solution evaluates only the extensions of the steps that
    its points lie on.  An ``rtol`` below MIN_RTOL raises ValueError: there
    the error estimate is rounding noise.  So do an ``rtol`` of 1 or more
    and an infinite ``atol``, which accept every step.
    """
    # written so that a NaN fails each test, before the stepper starts
    if not (0 < rtol < 1 and 0 < np.min(atol) and np.max(atol) < np.inf
            and np.log(R_START) < t_end < np.inf):
        raise ValueError(f"need 0 < rtol < 1, finite positive atol and a finite t_end "
                         f"above log R_START, got rtol={rtol}, atol={atol}, t_end={t_end}")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol={rtol:g} is below the floor 100 eps = {MIN_RTOL:.3g}, "
                         f"where the error estimate is rounding noise")
    fit_calls = 0

    def counted(t, y):
        nonlocal fit_calls
        fit_calls += 1
        return fun(t, y)

    rungs = [np.log(r) for r in START_LADDER if np.log(r) < t_end]
    for t0 in rungs:
        d = _fit_start(counted, t0)
        if t0 == rungs[-1] or _start_holds(counted, d, t0, atol, level):
            break
    res = solve_ivp(fun, (t0, t_end), d.sum(axis=1), rtol=rtol, atol=atol, level=level)
    if level is not None and res.t_event is None:
        raise NoCrossingError(f"u never reached level {level} before t_end={t_end}")
    return RadialSolution(LogRadialGrid(res.t), res.y[0], res.y[1], res.sol, res.t_event,
                          res.y[:, -1], d, fit_calls + res.nfev, len(res.t) - 1)
