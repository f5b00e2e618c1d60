"""Adaptive initial-value integration of radial equations in log radius.

A radial equation Delta u = u'' + u'/r on the plane becomes, in the
coordinate t = log r with v = r u'(r),

    du/dt = v,      dv/dt = e^{2t} Delta u.

The caller supplies one state function of t for the whole state
(u, v, aux...), so each right-hand-side evaluation shares its work
between the equation and the auxiliary quadrature states (e.g. running
energy integrals), which share the same error control.  Integration
starts from a small radius ``r_start`` with second-order Taylor data at
the origin, and uses an embedded Runge-Kutta pair (scipy's RK45 by
default) with dense output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "IntegrationError",
    "NoCrossingError",
    "LogRadialGrid",
    "RadialSolution",
    "IvpSpec",
    "series_start",
    "integrate",
    "find_event",
]


class IntegrationError(RuntimeError):
    """The adaptive stepper failed (step underflow / non-finite rhs)."""


class NoCrossingError(RuntimeError):
    """The solution never crossed the requested level before t_end."""


@dataclass(frozen=True)
class LogRadialGrid:
    """Accepted step locations t = log r, starting at log(r_start)."""

    t_nodes: np.ndarray
    r_start: float

    def __post_init__(self):
        t = np.asarray(self.t_nodes, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("t_nodes must be strictly increasing")
        object.__setattr__(self, "t_nodes", t)


@dataclass
class IvpSpec:
    """Cauchy problem for a radial equation in t = log r.

    ``fun(t, y)`` returns dy/dt for the state y = (u, v, aux...):
    (v, e^{2t} Delta u, rates of the auxiliary states).  ``aux`` names the
    states after (u, v); each starts at 0 and accumulates its rate.
    ``lap0`` is Delta u at the origin, which sets the series start.
    """

    fun: Callable
    lap0: float
    u0: float = 0.0
    t_end: float = np.log(1e6)
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    r_start: float = 1e-6
    aux: Sequence[str] = ()
    method: str = "RK45"
    max_step: float = np.inf

    def __post_init__(self):
        if self.rel_tol <= 0 or np.any(np.asarray(self.abs_tol) <= 0):
            raise ValueError("tolerances must be positive")
        if self.r_start <= 0:
            raise ValueError("r_start must be positive")


class RadialSolution:
    """Samples of a radial function u and of v = r u'(r) on a log grid.

    ``eval`` interpolates between nodes with the integrator's continuous
    extension (the dense output of the Runge-Kutta pair).
    """

    def __init__(self, grid: LogRadialGrid, values, r_derivs, dense,
                 aux=None, t_event: Optional[float] = None):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        self.r_derivs = np.asarray(r_derivs, dtype=float)
        self.aux = {} if aux is None else aux
        self._dense = dense
        self.t_event = t_event
        if len(self.values) != len(grid.t_nodes) or len(self.r_derivs) != len(grid.t_nodes):
            raise ValueError("values/r_derivs length mismatch with grid")

    @property
    def t_min(self) -> float:
        return float(self.grid.t_nodes[0])

    @property
    def t_max(self) -> float:
        return float(self.grid.t_nodes[-1])

    def eval_t(self, t):
        """Dense evaluation at t = log r; returns (u, r*u')."""
        y = self._dense(np.asarray(t, dtype=float))
        return y[0], y[1]

    def eval(self, r):
        """Dense evaluation at radius r > 0."""
        r = np.asarray(r, dtype=float)
        return self.eval_t(np.log(r))

    def eval_aux_t(self, name: str, t):
        """Accumulated auxiliary integral at t = log r."""
        idx = 2 + list(self.aux_names).index(name)
        return self._dense(np.asarray(t, dtype=float))[idx]

    @property
    def aux_names(self) -> Sequence[str]:
        return tuple(self.aux.keys())


def series_start(spec: IvpSpec):
    """Taylor data (u, r u') at r_start from the origin expansion.

    For smooth radial data, u(r) = u(0) + Delta u(0) r^2 / 4 + O(r^4).
    """
    r = spec.r_start
    return spec.u0 + 0.25 * spec.lap0 * r * r, 0.5 * spec.lap0 * r * r


def _solve(spec: IvpSpec, events=None):
    u_s, v_s = series_start(spec)
    y0 = np.array([u_s, v_s] + [0.0] * len(spec.aux))
    t0 = np.log(spec.r_start)
    res = solve_ivp(
        spec.fun, (t0, spec.t_end), y0, method=spec.method,
        rtol=spec.rel_tol, atol=spec.abs_tol, dense_output=True,
        events=events, max_step=spec.max_step,
    )
    if res.status == -1:
        raise IntegrationError(
            f"integration failed near t={res.t[-1]:.6g} (r={np.exp(res.t[-1]):.6g}): "
            f"{res.message}")
    return res


def _wrap(spec: IvpSpec, res, t_event=None) -> RadialSolution:
    grid = LogRadialGrid(res.t, spec.r_start)
    aux = {name: res.y[2 + i] for i, name in enumerate(spec.aux)}
    return RadialSolution(grid, res.y[0], res.y[1], res.sol, aux=aux,
                          t_event=t_event)


def integrate(spec: IvpSpec) -> RadialSolution:
    """Integrate the Cauchy problem up to t_end."""
    return _wrap(spec, _solve(spec))


def find_event(spec: IvpSpec, level: float):
    """Integrate until u crosses ``level``; returns (t*, solution up to t*).

    The crossing is located by root-finding on the dense output.  A missing
    crossing raises NoCrossingError (distinct from integrator failure).
    """

    def hit(t, y):
        return y[0] - level

    hit.terminal = True
    res = _solve(spec, events=hit)
    if res.status != 1 or len(res.t_events[0]) == 0:
        raise NoCrossingError(
            f"u never reached level {level} before t_end={spec.t_end}")
    t_star = float(res.t_events[0][0])
    return t_star, _wrap(spec, res, t_event=t_star)
