"""Adaptive initial-value integration of radial equations in log radius.

A radial equation Delta u = u'' + u'/r on the plane becomes, in the
coordinate t = log r with v = r u'(r),

    du/dt = v,      dv/dt = e^{2t} Delta u.

:func:`solve` integrates the Cauchy problem u(0) = u'(0) = 0 to t_end or
to the first crossing of a level.  The caller supplies one state function
of t for the whole state (u, v, aux...), so each right-hand-side
evaluation shares its work between the equation and the auxiliary
quadrature states (e.g. running energy integrals), which share the same
error control and vanish at the origin.  The stepper is scipy's DOP853,
an embedded Runge-Kutta pair of order 8(5,3), the only pair used: on the
linearized solves at tolerance 1e-12 it takes a fifth of RK45's accepted
steps and a little over half its right-hand-side evaluations.

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

Dense output (the pair's continuous extension, which ``eval*`` read
between nodes) is optional because it is not free: DOP853 builds it from
3 extra right-hand-side evaluations per accepted step, about a fifth of
a solve's work.  Without it SciPy still builds the extension on the steps
that hold an event, so the state at the level crossing and at each
requested mark t is exact either way, and the accepted steps are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

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
# SciPy's floor on rtol: below it solve_ivp only warns and runs at this value
MIN_RTOL = 100.0 * np.finfo(float).eps

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
    extension (the dense output of the Runge-Kutta pair) and evaluate the
    fitted series below the first node; a solve without dense output
    raises ValueError there.  ``end_state`` is the whole state
    (u, r*u', aux...) at the last node, the level crossing when there is
    one, and ``mark_states`` maps each requested mark t that the solve
    reached to the whole state there.  ``nfev`` counts the state-function
    calls, those of the start fit included, and ``accepted_steps`` the
    steps DOP853 took.
    """

    def __init__(self, grid: LogRadialGrid, values, r_derivs, dense,
                 aux_names: Sequence[str], t_event: Optional[float],
                 end_state, mark_states: Dict[float, np.ndarray],
                 series: np.ndarray, nfev: int, accepted_steps: int):
        self.grid = grid
        self.values = values
        self.r_derivs = r_derivs
        self._dense = dense
        self._aux_names = tuple(aux_names)
        self.t_event = t_event
        self.end_state = end_state
        self.mark_states = mark_states
        self._series = series
        self.nfev = nfev
        self.accepted_steps = accepted_steps

    @property
    def t_min(self) -> float:
        return float(self.grid.t_nodes[0])

    @property
    def t_max(self) -> float:
        return float(self.grid.t_nodes[-1])

    def eval_state_t(self, t):
        """Dense evaluation of the whole state (u, r*u', aux...) at t = log r."""
        if self._dense is None:
            raise ValueError("solved without dense output, so there is no profile "
                             "between the nodes: shoot(..., profile=True) or "
                             "solve(..., dense=True) keeps it")
        t = np.asarray(t, dtype=float)
        below = t < self.t_min
        if not below.any():
            return self._dense(t)
        y = _series_state(self._series, self.t_min, np.minimum(t, self.t_min))
        if not below.all():
            y[:, ~below] = self._dense(t[~below])
        return y

    def eval_t(self, t):
        """Dense evaluation at t = log r; returns (u, r*u')."""
        y = self.eval_state_t(t)
        return y[0], y[1]

    def eval(self, r):
        """Dense evaluation at radius r > 0."""
        r = np.asarray(r, dtype=float)
        return self.eval_t(np.log(r))

    def aux(self, name: str, state):
        """The auxiliary integral ``name`` read from a whole state."""
        return state[2 + self._aux_names.index(name)]


def _series_state(series: np.ndarray, t0: float, t):
    """The whole state sum_m d_m s^m, s = e^{2(t - t0)}, at t <= t0."""
    s = np.exp(2.0 * (np.asarray(t, dtype=float) - t0))
    return np.tensordot(series, s[..., None] ** _ORDERS, axes=([1], [-1]))


def _fit_start(fun: Callable, t0: float, n_states: int) -> np.ndarray:
    """Scaled series coefficients d (state, m) of the core at t0 = log r0.

    Each sweep evaluates the state function on the current series at the
    three fit radii and solves for the coefficients whose rates match it;
    the v row is tied to the u row by v = r u'.
    """
    d = np.zeros((n_states, 3))
    ts = t0 + 0.5 * np.log(_FIT_S)
    for _ in range(FIT_SWEEPS):
        y = _series_state(d, t0, ts)
        rates = np.array([fun(t, y[:, j]) for j, t in enumerate(ts)])
        d[0] = _U_INV @ rates[:, 1]
        d[1] = 2.0 * _ORDERS * d[0]
        d[2:] = (_RATE_INV @ rates[:, 2:]).T
    return d


def _start_holds(fun: Callable, d: np.ndarray, t0: float, atol,
                 level: Optional[float]) -> bool:
    """Whether the fitted rates match the state function from R_START to r0.

    A start past the level crossing fails too: SciPy cannot see a crossing
    at its first point.
    """
    decades = (t0 - np.log(R_START)) / np.log(10.0)
    ts = np.linspace(np.log(R_START), t0, int(round(CHECKS_PER_DECADE * decades)) + 1)
    y = _series_state(d, t0, ts)
    if level is not None and not np.all((y[0] - level) * -level > 0.0):
        return False
    fitted = _series_state(2.0 * _ORDERS * d, t0, ts)
    return all(np.all(np.abs(fun(t, y[:, j]) - fitted[:, j]) <= atol)
               for j, t in enumerate(ts))


def solve(fun: Callable, t_end: float, rtol: float, atol,
          aux: Sequence[str] = (), level: Optional[float] = None,
          marks: Sequence[float] = (), dense: bool = True) -> RadialSolution:
    """Integrate from the fitted start to t_end, or to the first crossing u = level.

    ``fun(t, y)`` returns dy/dt for the state y = (u, v, aux...):
    (v, e^{2t} Delta u, rates of the auxiliary states).  ``aux`` names the
    states after (u, v); every state vanishes at the origin, and the start
    is fitted to the core as the module docstring says.  The stepper is
    DOP853.  With a ``level`` the crossing is located by root-finding on
    the continuous extension of its step, and a missing crossing raises
    NoCrossingError (distinct from integrator failure).  Each t in
    ``marks`` is located the same way, as an event that does not stop the
    solve, or read off the series when it lies below the start.
    ``dense=False`` skips the dense output.  An ``rtol`` below MIN_RTOL
    raises ValueError, since SciPy would silently run at MIN_RTOL instead.
    """
    # written so that a NaN fails each test: SciPy never finishes on one
    if not (rtol > 0 and np.all(np.asarray(atol) > 0) and np.log(R_START) < t_end < np.inf):
        raise ValueError(f"need positive tolerances and a finite t_end above "
                         f"log R_START, got rtol={rtol}, atol={atol}, t_end={t_end}")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol={rtol:g} is below SciPy's floor "
                         f"100 eps = {MIN_RTOL:.3g}, which it would use instead")
    fit_calls = 0

    def counted(t, y):
        nonlocal fit_calls
        fit_calls += 1
        return fun(t, y)

    rungs = [np.log(r) for r in START_LADDER if np.log(r) < t_end]
    for t0 in rungs:
        d = _fit_start(counted, t0, 2 + len(aux))
        if t0 == rungs[-1] or _start_holds(counted, d, t0, atol, level):
            break
    above = [m for m in marks if m > t0]
    events = [lambda t, y, m=m: t - m for m in above]
    if level is not None:
        def crossing(t, y):
            return y[0] - level

        crossing.terminal = True
        events.append(crossing)
    res = solve_ivp(fun, (t0, t_end), d.sum(axis=1), method="DOP853", rtol=rtol,
                    atol=atol, dense_output=dense, events=events or None)
    if res.status == -1:
        raise IntegrationError(
            f"integration failed near t={res.t[-1]:.6g} (r={np.exp(res.t[-1]):.6g}): "
            f"{res.message}")
    t_event = None
    if level is not None:
        if res.status != 1:
            raise NoCrossingError(f"u never reached level {level} before t_end={t_end}")
        t_event = float(res.t_events[-1][0])
    reached = {m: ys[0] for m, ys in zip(above, res.y_events or ()) if len(ys)}
    marked = {m: _series_state(d, t0, m) if m <= t0 else reached[m]
              for m in marks if m <= t0 or m in reached}
    return RadialSolution(LogRadialGrid(res.t), res.y[0], res.y[1], res.sol,
                          aux, t_event, res.y[:, -1], marked, d,
                          fit_calls + res.nfev, len(res.t) - 1)
