"""Adaptive initial-value integration of radial equations in log radius.

A radial equation Delta u = u'' + u'/r on the plane becomes, in the
coordinate t = log r with v = r u'(r),

    du/dt = v,      dv/dt = e^{2t} Delta u.

:func:`solve` integrates the Cauchy problem u(0) = 0, Delta u(0) = lap0
from the radius R_START to t_end or to the first crossing of a level.
The caller supplies one state function of t for the whole state
(u, v, aux...), so each right-hand-side evaluation shares its work
between the equation and the auxiliary quadrature states (e.g. running
energy integrals), which share the same error control.  The stepper is
scipy's DOP853, an embedded Runge-Kutta pair of order 8(5,3), the only
pair used: on the linearized solves at tolerance 1e-12 it takes a fifth
of RK45's accepted steps and a little over half its right-hand-side
evaluations.

Dense output (the pair's continuous extension, which ``eval*`` read
between nodes) is optional because it is not free: DOP853 builds it from
3 extra right-hand-side evaluations per accepted step, about a fifth of
a solve's work.  Without it SciPy still builds the extension on the steps
that hold an event, so the state at the level crossing and at each
requested mark t is exact either way, and the accepted steps are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "IntegrationError",
    "NoCrossingError",
    "LogRadialGrid",
    "RadialSolution",
    "R_START",
    "MIN_RTOL",
    "solve",
]

R_START = 1e-6
# SciPy's floor on rtol: below it solve_ivp only warns and runs at this value
MIN_RTOL = 100.0 * np.finfo(float).eps


class IntegrationError(RuntimeError):
    """The adaptive stepper failed (step underflow / non-finite rhs)."""


class NoCrossingError(RuntimeError):
    """The solution never crossed the requested level before t_end."""


@dataclass(frozen=True)
class LogRadialGrid:
    """Accepted step locations t = log r, starting at log R_START."""

    t_nodes: np.ndarray


class RadialSolution:
    """Samples of a radial function u and of v = r u'(r) on a log grid.

    ``eval*`` interpolate between nodes with the integrator's continuous
    extension (the dense output of the Runge-Kutta pair); a solve without
    dense output raises ValueError there.  ``end_state`` is the whole state
    (u, r*u', aux...) at the last node, the level crossing when there is
    one, and ``mark_states`` maps each requested mark t that the solve
    reached to the whole state there.
    """

    def __init__(self, grid: LogRadialGrid, values, r_derivs, dense,
                 aux_names: Sequence[str], t_event: Optional[float],
                 end_state, mark_states: Dict[float, np.ndarray]):
        self.grid = grid
        self.values = values
        self.r_derivs = r_derivs
        self._dense = dense
        self._aux_names = tuple(aux_names)
        self.t_event = t_event
        self.end_state = end_state
        self.mark_states = mark_states

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
        return self._dense(np.asarray(t, dtype=float))

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


def solve(fun: Callable, lap0: float, t_end: float, rtol: float, atol,
          aux: Mapping[str, float] = {}, level: Optional[float] = None,
          marks: Sequence[float] = (), dense: bool = True) -> RadialSolution:
    """Integrate from R_START to t_end, or to the first crossing u = level.

    ``fun(t, y)`` returns dy/dt for the state y = (u, v, aux...):
    (v, e^{2t} Delta u, rates of the auxiliary states).  ``aux`` maps the
    name of each state after (u, v) to its value at R_START.  u and v start
    from u(r) = Delta u(0) r^2 / 4 + O(r^4).  The stepper is DOP853.  With
    a ``level`` the crossing is located by root-finding on the continuous
    extension of its step, and a missing crossing raises NoCrossingError
    (distinct from integrator failure).  Each t in ``marks`` is located the
    same way, as an event that does not stop the solve.  ``dense=False``
    skips the dense output.  An ``rtol`` below MIN_RTOL raises ValueError,
    since SciPy would silently run at MIN_RTOL instead.
    """
    t0 = np.log(R_START)
    # written so that a NaN fails each test: SciPy never finishes on one
    if not (rtol > 0 and np.all(np.asarray(atol) > 0) and t0 < t_end < np.inf):
        raise ValueError(f"need positive tolerances and a finite t_end above "
                         f"log R_START, got rtol={rtol}, atol={atol}, t_end={t_end}")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol={rtol:g} is below SciPy's floor "
                         f"100 eps = {MIN_RTOL:.3g}, which it would use instead")
    events = [lambda t, y, m=m: t - m for m in marks]
    if level is not None:
        def crossing(t, y):
            return y[0] - level

        crossing.terminal = True
        events.append(crossing)
    r = R_START
    y0 = np.array([0.25 * lap0 * r * r, 0.5 * lap0 * r * r, *aux.values()])
    res = solve_ivp(fun, (t0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense, events=events or None)
    if res.status == -1:
        raise IntegrationError(
            f"integration failed near t={res.t[-1]:.6g} (r={np.exp(res.t[-1]):.6g}): "
            f"{res.message}")
    t_event = None
    if level is not None:
        if res.status != 1:
            raise NoCrossingError(f"u never reached level {level} before t_end={t_end}")
        t_event = float(res.t_events[-1][0])
    marked = {m: ys[0] for m, ys in zip(marks, res.y_events or ()) if len(ys)}
    return RadialSolution(LogRadialGrid(res.t), res.y[0], res.y[1], res.sol,
                          aux.keys(), t_event, res.y[:, -1], marked)
