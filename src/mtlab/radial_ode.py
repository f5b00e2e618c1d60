"""Adaptive initial-value integration of radial equations in log radius.

A radial equation Delta u = u'' + u'/r on the plane becomes, in the
coordinate t = log r with v = r u'(r),

    du/dt = v,      dv/dt = e^{2t} Delta u.

:func:`solve` integrates the Cauchy problem u(0) = u'(0) = 0 to t_end or
to the first crossing of a level.  The caller supplies one state function
``fun(t, u, v)`` that returns the rates of the whole state (u, v, q...),
so each right-hand-side evaluation shares its work between the equation
and any quadrature states q (e.g. a running energy integral, state 2 of
a shot), which share the same error control and vanish at the origin.
A quadrature is a running integral of t, u and v, so no rate reads q, and
the call passes u and v alone: a stage builds the inputs of those two
states and no others, while every state still enters the step's
solution, its error norm and its dense output.  The stepper is DOP853
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10), an embedded Runge-Kutta
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

The start runs on Python floats, as the steps do.  One evaluator,
:func:`_series`, takes s = e^{2(t - t0)}, then s^2 and s^3, then each
state's sum, for the fit's sweeps, the check, the start state and the
reads below the first node.  The fit solves with the inverses as float
rows and left-to-right sums, the check takes ``np.linspace``'s radii, and
the initial step is SciPy's rule (``select_initial_step``) written on
floats, :func:`_initial_step`.  On NumPy's 3-row arrays the fit and the
check took 11-13% of the time of 18 sweep shots (both families, mu = 2
to 24, 10 rounds, 2-vCPU host); on floats they take 5%, and the
benchmark's sweep takes 13% less time.  Their sums round otherwise
than NumPy's products, within a few eps of each state's largest
coefficient.

The steps are taken by :func:`solve_ivp`, this module's own DOP853 on
Python floats.  A shot's state is 3 floats, and NumPy's per-call cost on
arrays that small (the stage products, the state arrays, the norms) was
about three quarters of each right-hand-side evaluation under SciPy's
stepper.  So each attempt writes its 11 stages out as ``dop853.f`` does,
and keeps SciPy's controller and continuous extension.  Of SciPy the
module takes two things: the ``DOP853`` class, for its tableau, and
``brentq`` for the crossing.  The controller constants SAFETY = 0.9,
MIN_FACTOR = 0.2 and MAX_FACTOR = 10 are SciPy's, written out as
literals because the module that defines them is private.  Even on floats,
a loop over the state per stage (one comprehension over ``zip(y, k0,
...)`` each) cost more than the equation: the state calls of a mu = 12
shot, replayed alone, were about 30% of the shot (trivial family) and
40% (log-power).  So the attempt is straight-line code with one local
per state and the tableau's floats as literals, and so are the dense
output's 3 extra stages and its Horner reader.  Hand-written copies for
2 and 3 states would be a fork; instead :func:`_source` writes the code
from the couplings of the tableau (``_STAGES``, ``_SOLUTION``,
``_EXTRA``) and SciPy's ``DOP853`` class, and :func:`_compiled` compiles
it once per state count, in about 2-3 ms, on first use.  Each expression
keeps the operands and the order of a loop over the states, so the bits
are those of that loop.  That left the state calls at about half of a
mu = 12 shot (42-45% trivial, 50-57% log-power, replayed alone), paying
for a list around each stage's state and for the inputs of the energy
state, which no rate reads.  With the ``(t, u, v)`` call, and the shot
kernel's clamps written as comparisons, a trivial shot at mu = 12 takes
1.2 ms instead of 1.8-1.9 ms and its state calls 31% of it (0.35 us a
call), and a log-power shot 1.8 ms instead of 2.4-2.7 ms and its calls
about half (0.8 us, 0.5 of them in the family's ``point``), on a 2-vCPU
host.  The numbers are not bit-identical to
``scipy.integrate.solve_ivp``: the error estimate cancels to about 1e-5 of
its terms, so another summation order moves the step sizes a little.  The
tests bound the difference (one step within 4 eps of SciPy's, whole
solves within a few rtol).  Of SciPy's event machinery the loop keeps
only the one stop that :func:`solve` asks for, a level, whose first
crossing ends the solve; a step that fails raises IntegrationError on
the spot, and so does a step size that is not finite (the initial step
is NaN when the state function is NaN at the start).
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
array, off its own step alone, on Python floats.  The generated reader
factory makes a step's reader from its 3 extra stages and its Horner
coefficients (:func:`_coefficients`, one product with DOP853's D) on the
step's first read, and the extension keeps it; the readers evaluate SciPy's
Horner form in SciPy's order, so they give the bits of SciPy's
``OdeSolution`` of ``Dop853DenseOutput`` pieces with the same
coefficients.  A point then costs about 1.3 us, where a NumPy evaluation
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
# the step-size controller's constants, SciPy's values for its RK solvers
SAFETY = 0.9  # the factor on the error-optimal step
MIN_FACTOR = 0.2  # a step shrinks to no less than this fraction of itself
MAX_FACTOR = 10  # a step grows by no more than this factor

# the couplings of DOP853's tableau (SciPy's class): stage s of a step reads
# the earlier stages _STAGES[s - 1], the solution and both error estimates
# read _SOLUTION, and the dense output's extra stages 13-15 read _EXTRA;
# every other coefficient is zero (dop853.f writes the same pattern)
_STAGES = ((0,), (0, 1), (0, 2), (0, 2, 3), (0, 3, 4), (0, 3, 4, 5), (0, 3, 4, 5, 6),
           (0, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7, 8), (0, 3, 4, 5, 6, 7, 8, 9),
           (0, 3, 4, 5, 6, 7, 8, 9, 10))
_SOLUTION = (0, 5, 6, 7, 8, 9, 10, 11)
_EXTRA = ((0, 6, 7, 8, 9, 10, 11, 12), (0, 5, 6, 7, 10, 11, 12, 13),
          (0, 5, 6, 7, 8, 12, 13, 14))
_DENSE = (0, *range(5, 16))  # the stages that the dense output's D reads
_D = DOP853.D[:, _DENSE]
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)

# the fit in s = (r/r0)^2: y = sum_m d_m s^m at the nodes s = j/3, whose
# rates are dy/dt = sum_m 2m d_m s^m and, for u through v, sum_m 4m^2 d_m s^m;
# the inverses are float rows, the nodes their offsets t - t0 = log(s) / 2
_ORDERS = np.arange(1.0, 4.0)
_FIT_S = _ORDERS / 3.0
_FIT_POW = _FIT_S[:, None] ** _ORDERS
_RATE_INV = np.linalg.inv(2.0 * _ORDERS * _FIT_POW).tolist()
_U_INV = np.linalg.inv(4.0 * _ORDERS ** 2 * _FIT_POW).tolist()
_FIT_DT = [0.5 * math.log(s) for s in _FIT_S.tolist()]
_LOG_R_START = math.log(R_START)
_LOG_RUNGS = [math.log(r) for r in START_LADDER]
_LOG_10 = math.log(10.0)


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
                 end_state, series: list, nfev: int, accepted_steps: int):
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
        """Dense evaluation of the whole state (u, r*u', ...) at t = log r.

        Every point reads, on floats, the fitted series below the first node
        and its step's extension above it; a float t builds no array but
        the state it returns.
        """
        shape = () if isinstance(t, float) else np.shape(t)
        points = [float(t)] if not shape else np.asarray(t, dtype=float).ravel().tolist()
        t_min, t_max = self.t_min, self.t_max
        for p in points:
            if not p <= t_max:
                raise ValueError(f"t = {p!r} lies past the end of the solution, "
                                 f"t_max = {t_max!r}")
        read = self._extension._read
        y = [read(p) if p >= t_min else _series(self._series, t_min, p) for p in points]
        return np.array(y).T.reshape((len(self._series),) + shape)

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
    the float readers already made, by step, and the reader factory that
    :func:`_compiled` made for the state count.  A
    point t reads the step that ``bisect_left(nodes, t) - 1`` picks,
    clipped to the steps, so a node reads the step that ends there.  Every
    point, a scalar t or one of an array, reads that step's float reader,
    made on the step's first read and kept, in SciPy's Horner form and
    order: the same numbers as an ``OdeSolution`` of ``Dop853DenseOutput``
    pieces with the same coefficients.  Like it, a scalar t gives the
    state, shape (states,), and m points give shape (states, m).
    ``nfev`` counts the calls made here, 3 per reader.
    """

    def __init__(self, fun: Callable, nodes: list, steps: list, readers: dict,
                 make_reader: Callable):
        self._fun, self._nodes, self._steps, self._readers = fun, nodes, steps, readers
        self._make_reader = make_reader
        self.nfev = 0

    def _read(self, t: float) -> list:
        i = min(max(bisect_left(self._nodes, t) - 1, 0), len(self._steps) - 1)
        read = self._readers.get(i)
        if read is None:
            read = self._readers[i] = self._make_reader(self._fun, *self._steps[i])
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

    ``fun(t, u, v)`` gets t and the first two states as floats and returns
    a sequence of the rates of every state, as many as y0 holds, 2 or
    more: the rates depend on t, u and v alone, so the states after v are
    quadratures, whose stage inputs are never built.  A call that returns
    another number of rates (a lone number is one) raises ValueError, as
    do fewer than 2 states, a ``t_span`` that does not increase and an
    ``atol`` that is neither a scalar nor one value per state, or not
    finite and positive.  Each attempt is SciPy's DOP853 step, run by the
    straight-line float code that :func:`_compiled` makes for the state
    count: its 11 stages as in ``dop853.f``, the solution, the rate at the
    step's end and both error sums.  The controller is SciPy's: its initial
    step (on floats, :func:`_initial_step`), its safety factor and error
    exponent, growth between MIN_FACTOR and MAX_FACTOR, none right after a
    rejection, and IntegrationError below a 10-ulp step or on a step size
    that is not finite.  The solve stops at the first step
    on which y[0] - level changes sign (two-sided, so a zero at either
    node counts): ``brentq`` at EVENT_XTOL finds the crossing on that
    step's float reader (its 3 extra stages the only ones the loop
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
    if n < 2:
        raise _too_few_states_error(n)
    atol = _atol_per_state(atol, n)
    f = _rates(fun, t, y[0], y[1], n)
    h_abs = _initial_step(fun, t, y, f, tf, rtol, atol)
    nfev = 2  # f and the initial step's trial rate
    attempt, make_reader = _compiled(n)
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
            if not h_abs >= min_step:  # a NaN fails it: the initial step on a NaN rate
                raise IntegrationError(f"integration failed near t={t:.6g} (r={np.exp(t):.6g}): "
                                       f"the step fell below 10 ulp of t or is not finite")
            t_new = min(t + h_abs, tf)
            h = h_abs = t_new - t
            y_new, f_new, stages, norm5, norm3 = attempt(fun, t, h, y, f, atol, rtol)
            nfev += 12
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
        steps.append((t_old, h, y_old, y, stages))
        if level is not None:
            g_old, g = g, y[0] - level
            if g_old <= 0.0 <= g or g_old >= 0.0 >= g:
                read = readers[len(steps) - 1] = make_reader(fun, *steps[-1])
                nfev += 3
                t = t_event = brentq(lambda s: read(s)[0] - level, t_old, t,
                                     xtol=EVENT_XTOL, rtol=EVENT_XTOL)
                y = read(t)
        ts.append(t)
        ys.append(y)
        if t_event is not None or t == tf:
            break
    sol = ContinuousExtension(fun, ts, steps, readers, make_reader)
    return IvpResult(np.array(ts), np.array(ys).T, sol, t_event, nfev)


def _initial_step(fun: Callable, t0: float, y0: list, f0, t_bound: float, rtol: float,
                  atol: list) -> float:
    """SciPy's initial step (``select_initial_step``, Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.4) from (t0, y0) towards t_bound, f0 the rate
    there, on floats.

    It takes SciPy's operations in its order, with no cap on the step, so
    it differs only in the sums of the norms, within a few eps.  Its trial
    rate is one more call of fun; a NaN rate gives a NaN step.
    """
    n = len(y0)
    interval = t_bound - t0
    scale = [a + abs(y) * rtol for a, y in zip(atol, y0)]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = _rates(fun, t0 + h0, y0[0] + h0 * f0[0], y0[1] + h0 * f0[1], n)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval)


def _rms(x: list) -> float:
    """SciPy's RMS norm of the floats x."""
    return math.sqrt(sum(e * e for e in x)) / len(x) ** 0.5


def _atol_per_state(atol, n: int) -> list:
    """atol as n floats: a scalar is every state's, a sequence gives one per
    state.  Another count of values, or a value that is not finite and
    positive (NaN included), raises ValueError."""
    try:
        values = [float(a) for a in atol]
    except TypeError:  # a scalar does not iterate
        values = [float(atol)] * n
    if len(values) != n:
        raise ValueError(f"atol holds {len(values)} values for {n} states: give a scalar "
                         f"or one value per state")
    if not all(0.0 < a < math.inf for a in values):
        raise ValueError(f"need a finite positive atol, got atol={atol}")
    return values


def _rates(fun: Callable, t: float, u: float, v: float, n: int):
    """fun's rates at (t, u, v), which must number n."""
    rates = fun(t, u, v)
    if _rate_count(rates) != n:
        raise _rate_count_error(rates, n)
    return rates


def _rate_count(rates) -> int:
    """How many rates a state function returned: a lone number is one."""
    try:
        return len(rates)
    except TypeError:
        return 1


def _rate_count_error(rates, n: int) -> ValueError:
    """The error for a state function that returned ``rates`` for n states."""
    return ValueError(f"the state function returned {_rate_count(rates)} rates for {n} states")


def _too_few_states_error(n: int) -> ValueError:
    """The error for n < 2 states, which leave no (u, v) to call with."""
    return ValueError(f"the state function takes (t, u, v), so it needs 2 states or more, "
                      f"got {n}")


def _coefficients(h: float, y_old: np.ndarray, y: np.ndarray, K: np.ndarray) -> np.ndarray:
    """SciPy's Horner coefficients F, shape (7, states), of one step's extension.

    Of the step from y_old over h to y, K its rows in the order of
    ``_DENSE``: the product with ``_D`` that SciPy's ``Dop853DenseOutput``
    is given.
    """
    dy = y - y_old
    F = np.empty((7, K.shape[1]))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[8] + K[0])
    F[3:] = h * _D @ K
    return F


def _source(n: int) -> str:
    """Python source of DOP853's attempt and step reader for n states.

    Each writes the stages out with one local per state: ``k5_1`` is state
    1 of stage 5, ``y_1`` of the step's start.  The coefficients are the
    tableau's floats as repr literals, taken only from SciPy's class and
    the couplings above, so each expression is the one a loop over the
    states would evaluate, operand for operand.  A stage builds the inputs
    of states 0 and 1 alone and calls ``fun(t + c h, u, v)``, and so does
    the end rate on z_0 and z_1; the other states, quadratures, enter the
    solution, both error sums and the Horner read.

    ``attempt(fun, t, h, y, k0, atol, rtol)`` takes one step of size h
    from (t, y), k0 the rate there, and returns the end state, the rate
    there (stage 12), the stage rows that the extension reads and SciPy's
    two error sums, of the squares of the 5th- and 3rd-order estimates in
    units of atol + rtol max(|y|, |y_new|).  ``reader(fun, t, h, y_old, y, stages)``
    takes a step's 3 extra stages 13-15 and its Horner coefficients
    (:func:`_coefficients`), and returns the step's reader: the whole state
    at a point, as a list of floats, by SciPy's operations in its order,
    so the bits are those of ``Dop853DenseOutput``.  A stage whose rates
    do not unpack into n locals raises ValueError naming their number.
    """
    states = range(n)

    def locals_of(row):
        return "".join(f"{row}_{i}, " for i in states)

    def unpack(row):
        return ["try:", f"    {locals_of(row)}= {row}", "except ValueError:",
                f"    raise _rate_count_error({row}, {n}) from None"]

    def stage(s, c, coefficients, couplings):
        uv = ", ".join(f"y_{i} + h * ("
                       + " + ".join(f"{float(coefficients[j])!r} * k{j}_{i}" for j in couplings)
                       + ")" for i in (0, 1))
        return [f"k{s} = fun(t + {float(c)!r} * h, {uv})", *unpack(f"k{s}")]

    def weighted(weights, i):
        return " + ".join(f"{float(weights[j])!r} * k{j}_{i}" for j in _SOLUTION)

    kept = ", ".join(f"k{j}" for j in _DENSE[:9])  # the stage rows that a step keeps

    attempt = [f"{locals_of('y')}= y", f"{locals_of('k0')}= k0", f"{locals_of('a')}= atol"]
    for s, row in enumerate(_STAGES, 1):
        attempt += stage(s, DOP853.C[s], DOP853.A[s], row)
    attempt += [f"z_{i} = y_{i} + h * ({weighted(DOP853.B, i)})" for i in states]
    attempt += [f"y_new = [{locals_of('z')}]", "k12 = fun(t + h, z_0, z_1)", *unpack("k12"),
                "norm5 = norm3 = 0.0"]
    for i in states:
        attempt += [f"s = a_{i} + max(abs(y_{i}), abs(z_{i})) * rtol",
                    f"e = ({weighted(DOP853.E5, i)}) / s", "norm5 += e * e",
                    f"e = ({weighted(DOP853.E3, i)}) / s", "norm3 += e * e"]
    attempt.append(f"return y_new, k12, ({kept}), norm5, norm3")

    reader = [f"{kept} = stages", f"{locals_of('y')}= y_old"]
    reader += [f"{locals_of(f'k{j}')}= k{j}" for j in _DENSE[:9]]
    for s, row in enumerate(_EXTRA):
        reader += stage(13 + s, DOP853.C_EXTRA[s], DOP853.A_EXTRA[s], row)
    coefficients = "), (".join(locals_of(f"f{m}") for m in range(7))
    rows = ", ".join(f"k{j}" for j in _DENSE)
    horner = ", ".join(f"(((((((0.0 + f6_{i}) * x + f5_{i}) * x1 + f4_{i}) * x + f3_{i}) * x1"
                       f" + f2_{i}) * x + f1_{i}) * x1 + f0_{i}) * x + y_{i}" for i in states)
    reader += [f"({coefficients}) = _coefficients(h, np.array(y_old), np.array(y), "
               f"np.array([{rows}])).tolist()",
               "def read(at):", "    x = (at - t) / h", "    x1 = 1.0 - x",
               f"    return [{horner}]", "return read"]
    return "\n".join(["def attempt(fun, t, h, y, k0, atol, rtol):", *map("    {}".format, attempt),
                      "def reader(fun, t, h, y_old, y, stages):", *map("    {}".format, reader)])


_COMPILED = {}  # state count -> (attempt, reader) compiled from _source


def _compiled(n: int) -> tuple:
    """The attempt and the step reader factory of :func:`_source` for n
    states, compiled on first use and kept for the process."""
    code = _COMPILED.get(n)
    if code is None:
        namespace = {"np": np, "_coefficients": _coefficients,
                     "_rate_count_error": _rate_count_error}
        exec(compile(_source(n), f"<DOP853 for {n} states>", "exec"), namespace)
        code = _COMPILED[n] = namespace["attempt"], namespace["reader"]
    return code


def _series(d: list, t0: float, t: float) -> list:
    """The state sum_m d_m s^m, s = e^{2(t - t0)}, of the coefficient rows d
    (one (d_1, d_2, d_3) per state) at one t <= t0, on floats."""
    s = math.exp(2.0 * (t - t0))
    s2 = s * s
    s3 = s2 * s
    return [a * s + b * s2 + c * s3 for a, b, c in d]


def _fit_start(fun: Callable, t0: float) -> list:
    """Scaled series coefficients d, one row (d_1, d_2, d_3) per state, of
    the core at t0 = log r0.

    Each sweep evaluates the state function on the current series at the
    three fit radii and solves for the coefficients whose rates match it,
    by the float rows of the inverses; the v row is tied to the u row by
    v = r u'.  The first sweep passes the zero series, (u, v) = (0, 0),
    and the number of rates that the state function returns (a lone
    number is one) sets the number of states: fewer than 2 raise the
    ValueError of :func:`solve_ivp`, and so does another count later.
    """
    ts = [t0 + dt for dt in _FIT_DT]
    first = fun(ts[0], 0.0, 0.0)
    n = _rate_count(first)
    if n < 2:
        raise _too_few_states_error(n)
    rates = [first, *(_rates(fun, t, 0.0, 0.0, n) for t in ts[1:])]
    for sweep in range(FIT_SWEEPS):
        if sweep:
            rates = [_rates(fun, t, *_series(d[:2], t0, t), n) for t in ts]
        a, b, c = rates
        du = [p * a[1] + q * b[1] + w * c[1] for p, q, w in _U_INV]
        d = [du, [2.0 * du[0], 4.0 * du[1], 6.0 * du[2]],
             *([p * a[i] + q * b[i] + w * c[i] for p, q, w in _RATE_INV] for i in range(2, n))]
    return d


def _start_holds(fun: Callable, d: list, t0: float, atol: list,
                 level: Optional[float]) -> bool:
    """Whether the fitted rates match the state function from R_START to r0.

    The check radii are ``np.linspace``'s, from log R_START to t0, and
    each state's rate must lie within its atol of the fitted one.  A start
    past the level crossing fails too: the stepper cannot see a crossing
    at its first point.
    """
    gaps = int(round(CHECKS_PER_DECADE * ((t0 - _LOG_R_START) / _LOG_10)))
    step = (t0 - _LOG_R_START) / gaps
    ts = [i * step + _LOG_R_START for i in range(gaps)] + [t0]
    uv = [_series(d[:2], t0, t) for t in ts]
    if level is not None and not all((u - level) * -level > 0.0 for u, _ in uv):
        return False
    fitted = [[2.0 * a, 4.0 * b, 6.0 * c] for a, b, c in d]
    return all(all(abs(rate - fit) <= tol for rate, fit, tol
                   in zip(_rates(fun, t, u, v, len(d)), _series(fitted, t0, t), atol))
               for t, (u, v) in zip(ts, uv))


def solve(fun: Callable, t_end: float, rtol: float, atol,
          level: Optional[float] = None) -> RadialSolution:
    """Integrate from the fitted start to t_end, or to the first crossing u = level.

    ``fun(t, u, v)`` returns dy/dt for the state y = (u, v, q...):
    (v, e^{2t} Delta u) and the rates of any quadrature states q, running
    integrals whose rates depend on t, u and v alone, which is why the
    call passes nothing else; the number of rates sets the number of
    states, 2 or more.  Every state vanishes at the origin, the start is
    fitted to the core as the module docstring says, and ``fun`` gets t,
    u and v as floats, in the start fit as in the stepper.
    The stepper is this module's DOP853 on floats, :func:`solve_ivp`; the
    name is looked up at each call, so a wrapper patched over it sees every
    solve (the benchmark's tracer counts solves that way until it reads the
    counts off the result).  With a ``level`` the crossing is located by
    root-finding on the continuous extension of its step, and a missing
    crossing raises NoCrossingError (distinct from integrator failure).
    A read of the solution evaluates only the extensions of the steps that
    its points lie on.  An ``rtol`` below MIN_RTOL raises ValueError: there
    the error estimate is rounding noise.  So do an ``rtol`` of 1 or more
    and an infinite ``atol``, which accept every step, and an ``atol``
    that is neither a scalar nor one value per state, checked once the
    fit at the top rung has counted the states.
    """
    # written so that a NaN fails each test, before the fit starts
    if not (0 < rtol < 1 and _LOG_R_START < t_end < math.inf):
        raise ValueError(f"need 0 < rtol < 1 and a finite t_end above log R_START, "
                         f"got rtol={rtol}, t_end={t_end}")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol={rtol:g} is below the floor 100 eps = {MIN_RTOL:.3g}, "
                         f"where the error estimate is rounding noise")
    fit_calls = 0

    def counted(t, u, v):
        nonlocal fit_calls
        fit_calls += 1
        return fun(t, u, v)

    # the top rung's fit sets the state count, which atol must fit; the
    # last rung, R_START, is taken unchecked
    t0, *lower = [t for t in _LOG_RUNGS if t < t_end]
    d = _fit_start(counted, t0)
    atol = _atol_per_state(atol, len(d))
    for t in lower:
        if _start_holds(counted, d, t0, atol, level):
            break
        t0, d = t, _fit_start(counted, t)
    res = solve_ivp(fun, (t0, t_end), _series(d, t0, t0), rtol=rtol, atol=atol, level=level)
    if level is not None and res.t_event is None:
        raise NoCrossingError(f"u never reached level {level} before t_end={t_end}")
    return RadialSolution(LogRadialGrid(res.t), res.y[0], res.y[1], res.sol, res.t_event,
                          res.y[:, -1], d, fit_calls + res.nfev, len(res.t) - 1)
