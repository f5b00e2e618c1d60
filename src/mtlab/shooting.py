"""Shooting for the full radial critical point at given center value mu.

The rescaled unknown eta solves

    -Delta eta = 4 (1 + h(mu + eta/mu)) (1 + eta/mu^2) e^{2 eta + eta^2/mu^2},
    eta(0) = eta'(0) = 0,

and the boundary of the unit disk corresponds to the event eta = -mu^2
(where the physical solution u = mu + eta/mu vanishes).  The boundary
radius R (the inverse of the concentration scale) and the multiplier
lambda are kept in log scale; log R is about mu^2/2 - 1/2 (287.5 at
mu = 24).  The supported range ends at MU_MAX = 24, a fixed constant
rather than a precision limit.

The Dirichlet energy equals the integral of lambda (1+h(u)) u^2 e^{u^2}
over the disk, accumulated in rescaled coordinates as a quadrature state,
state 2 of the solve.  It is integrated by one
:func:`mtlab.radial_ode.solve` call with DOP853, no cap on the step in
t = log r and the boundary event as its level.  The solve
fits the start to the analytic core itself (an even series in r, checked
against this state function; see :mod:`mtlab.radial_ode`) at r = 1e-2, or
lower on its ladder when the check fails: at mu = 0.05 the series of the
core converges only for r below about mu, and the start drops to 1e-3.
A split radius below the start is read off that series.  The state
function ``state(t, eta, v)`` takes the two states that the rates read:
the energy is a quadrature, so the stepper builds no stage input for it.
It calls the family's scalar kernel ``point``, which gives h(u) alone
(a shot never reads g), once per evaluation, the fit's included, in
plain ``math`` on Python floats, with eta/mu^2 computed once and its
three clamps written as comparisons rather than ``min``/``max`` calls
(the same bits, NaN and signed zeros included), returns its rates as a
tuple of floats for radial_ode's float stepper, and raises
IntegrationError when h is not finite: at once, naming mu, the family
and u, where the stepper alone raises only after rejecting its step
down to 10 ulp and names none of them.  The
functional needs no state of its own: :func:`functional_value` is the
Pohozaev closed form on the boundary state.

Every state has the relative tolerance tol.  The energy has the absolute
tolerance tol, and eta and v the floor ETA_ATOL_FACTOR tol = 1e-3 tol.
Near the origin eta ~ -(1+h(mu)) r^2 decays like e^{2t}, and under pure
relative control DOP853 would step that core at about 0.18 in t.  With the
floor, a shot at mu = 6 takes 14 of its 64 steps below t = -2, and a shot
(trivial and log-power family) has 40 nodes at mu = 2, 65-66 at mu = 6,
75 at mu = 12, 76-77 at mu = 18 and 73-75 at mu = 24.  Against
tol = 1e-13 shots, the worst |E - E_ref| over the benchmark's sweep
lattice is 8.58e-10, and 8.82e-10 against its stored references (both
log-power, mu = 4), 1.2e-10 below the 1e-9 sweep check; that check is not
a bound at every mu, though: on mu = 2, 2.05, ..., 12 the trivial family
misses by at most 3.5e-11, while 3 of 201 log-power shots miss by more
than 1e-9, the worst by 2.8e-9 at mu = 3.05.

Every number of a shot (log R, the energies, the boundary slope) is read
from the state at the boundary event and, for the inner energy, at the
split radius t = SPLIT_EXPONENT log mu, one scalar read of the solution.
DOP853's continuous extension, which the profile between the nodes
needs, costs 3 more state-function calls per accepted step, about a
fifth of a shot's calls.  So that scalar read takes only its own step's
3 (none when the split lies in the boundary event's step, whose
extension the event's root search already made), and a later read of
``sol.eta`` (by :func:`pde_residual`, :func:`comparison_eta0` or
``sol.eta.eval*``) takes 3 on each step that it is the first to touch; a
step that nobody reads never pays for it.  Reading it changes no number
of the shot.

:func:`pde_residual` checks a finished shot against the same state function.
A shot is returned as data; :mod:`mtlab.cli` renders it as JSON or CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_legendre

from . import profiles as pf
from .perturbations import PerturbationSpec
from .radial_ode import (IntegrationError, NoCrossingError, RadialSolution,
                         solve)

__all__ = [
    "ShotSolution",
    "EventNotReachedError",
    "shoot",
    "functional_value",
    "pde_residual",
    "comparison_eta0",
    "Eta0Comparison",
]

MU_MIN = 0.05
MU_MAX = 24.0
SPLIT_EXPONENT = 3.0  # inner ball of rescaled radius mu^p, p > 2
ETA_ATOL_FACTOR = 1e-3  # absolute error floor on (eta, v), as a multiple of tol
TWO_PI = 2.0 * np.pi
ETA0_SAMPLES = 400  # log-spaced radii checked by comparison_eta0
ETA0_SLACK = 1e-9  # excess of eta over eta0 that comparison_eta0 allows


class EventNotReachedError(RuntimeError):
    """eta never reached -mu^2: the nonlinearity lost positivity or decayed."""


@dataclass
class ShotSolution:
    """One critical point of the (perturbed) functional.

    Radii and multiplier are stored on log scale: R = r_k^{-1} with
    log lambda = log 4 + 2 log R - mu^2 - 2 log mu, and ``eta`` ends at the
    boundary event t = log R; it evaluates between its nodes, and on the
    fitted series below the first one.
    """

    mu: float
    log_R: float
    log_lambda: float
    energy_total: float
    energy_inner: float
    energy_outer: float
    eta: RadialSolution
    perturbation: PerturbationSpec


def _state(mu: float, spec: PerturbationSpec) -> Callable:
    """The state function of a shot at center value mu.

    :func:`shoot` integrates it and :func:`pde_residual` checks the shot
    against it, so the equation is written once.
    """
    mu2 = mu * mu
    point, exp, isfinite = spec.point, math.exp, math.isfinite

    def state(t, eta, v):
        """(eta, v, energy)' at t = log r.

        Both rates share e = e^{2t + eta (2 + eta/mu^2)}.  Along the solution
        eta stays in [-mu^2, 0], where the exponent eta (2 + eta/mu^2) is
        non-positive; its clamp at 0 and the clamp of the whole exponent at
        50 only bite on wildly overshooting trial steps of the adaptive
        integrator (eta < -2 mu^2, or t far past the boundary event), and
        keep ``exp`` below overflow.  Each clamp is a comparison that is
        False on NaN and keeps a signed zero, so it gives the bits of
        ``max(u, 1e-12)``, ``min(x, 0.0)`` and ``min(x, 50.0)``.
        """
        s = eta / mu2
        u = mu + eta / mu
        if u < 1e-12:
            u = 1e-12
        hu = point(u)
        if not isfinite(hu):
            raise IntegrationError(f"non-finite perturbation h = {hu} at u={u} "
                                   f"(mu={mu}, family {spec.name})")
        q = 1.0 + s
        x = eta * (2.0 + s)
        if x > 0.0:
            x = 0.0
        x = 2.0 * t + x
        if x > 50.0:
            x = 50.0
        f = 4.0 * (1.0 + hu) * q * exp(x)
        return v, -f, TWO_PI * f * q

    return state


def shoot(mu: float, spec: PerturbationSpec, tol: float = 1e-11) -> ShotSolution:
    """Integrate to the boundary event and accumulate energy splits.

    The inner energy is taken over the rescaled ball of radius mu^p with
    p = SPLIT_EXPONENT (p > 2 required for the inner/outer expansion): the
    energy state read at t = p log mu, off the series below the start, and
    the whole energy when that radius lies past the boundary event.
    """
    if not (MU_MIN <= mu <= MU_MAX):
        raise ValueError(f"mu={mu} outside supported range [{MU_MIN}, {MU_MAX}]")
    mu2 = mu * mu
    # the floor on eta and v cuts the steps in the core, where eta ~ r^2 is
    # exponentially small in t = log r (see the module docstring)
    eta_atol = ETA_ATOL_FACTOR * tol
    abs_tol = (eta_atol, eta_atol, tol)
    t_split = SPLIT_EXPONENT * math.log(mu)
    try:
        sol = solve(_state(mu, spec), 0.55 * mu2 + 10.0, tol, abs_tol, level=-mu2)
    except NoCrossingError as exc:
        raise EventNotReachedError(
            f"boundary event eta = -mu^2 not reached for mu={mu} "
            f"(family {spec.name})") from exc

    log_R = sol.t_event
    energy_total = float(sol.end_state[2])
    # a split radius past the boundary leaves the whole energy inner
    split = sol.eval_state_t(t_split) if t_split <= sol.t_max else sol.end_state
    energy_inner = float(split[2])
    return ShotSolution(
        mu=mu,
        log_R=log_R,
        log_lambda=math.log(4.0) + 2.0 * log_R - mu2 - 2.0 * math.log(mu),
        energy_total=energy_total,
        energy_inner=energy_inner,
        energy_outer=energy_total - energy_inner,
        eta=sol,
        perturbation=spec,
    )


def functional_value(sol: ShotSolution) -> float:
    """The perturbed exponential functional int (1+g(u)) e^{u^2} dx.

    The Pohozaev identity on the unit disk for -Delta u = lambda (1+h(u))
    u e^{u^2}, whose primitive is ((1+g(u)) e^{u^2} - (1+g(0)))/2, gives it
    in closed form: pi (1+g(0)) + pi u'(1)^2 / lambda, with u'(1) = v/mu at
    the boundary event, so pi v^2 / (mu^2 lambda) = pi v^2 e^{mu^2 - 2 log R}
    / 4 in log scale.  A family that defines only h (no g) has no
    functional: ValueError.  This is the one place where a shot's g
    enters a result, so a non-finite value raises IntegrationError.
    """
    spec = sol.perturbation
    if spec.g is None:
        raise ValueError(f"family {spec.name!r} defines no g, "
                         "so the functional is undefined")
    v = float(sol.eta.end_state[1])
    value = float(np.pi * (1.0 + spec.g(0.0))
                  + 0.25 * np.pi * v * v * np.exp(sol.mu ** 2 - 2.0 * sol.log_R))
    if not math.isfinite(value):
        raise IntegrationError(f"non-finite functional value {value} "
                               f"(mu={sol.mu}, family {spec.name})")
    return value


def pde_residual(sol: ShotSolution) -> float:
    """Largest per-step miss of the shot's integrated equation.

    On each accepted step [t_k, t_{k+1}] the increment of every state
    (eta, v, energy) on the dense output is compared with the
    integral of the shot's own state function along that output, taken
    with 8-point Gauss-Legendre quadrature, the state function called on
    Python floats as in the shot.  Each state's largest miss is
    divided by its integral of |rate| over the whole shot, and the worst
    state's ratio is returned.  No term is weighted by e^{-2t} or by the
    Laplacian, so the residual does not underflow at large mu.  A
    non-finite residual raises IntegrationError instead of reading as a
    perfect fit.
    """
    state = _state(sol.mu, sol.perturbation)
    nodes = sol.eta.grid.t_nodes
    n = len(nodes)
    half = 0.5 * np.diff(nodes)
    x, w = roots_legendre(8)
    ts = (nodes[:-1] + half)[:, None] + half[:, None] * x
    ys = sol.eta.eval_state_t(np.concatenate([nodes, ts.ravel()]))
    rates = np.array([state(t, eta, v)
                      for t, (eta, v) in zip(ts.ravel().tolist(), ys[:2, n:].T.tolist())])
    rates = rates.reshape(*ts.shape, -1)  # (step, Gauss point, state)
    flux = np.einsum("k,j,kjs->ks", half, w, rates)
    scale = np.einsum("k,j,kjs->s", half, w, np.abs(rates))
    miss = np.abs(np.diff(ys[:, :n], axis=1).T - flux)
    resid = float(np.max(np.max(miss, axis=0) / scale))
    if not np.isfinite(resid):
        raise IntegrationError(f"non-finite PDE residual {resid} (mu={sol.mu})")
    return resid


@dataclass
class Eta0Comparison:
    holds: bool
    first_violation_r: Optional[float]
    max_excess: float


def comparison_eta0(sol: ShotSolution) -> Eta0Comparison:
    """Check eta <= eta0 on [mu^2, R] at ETA0_SAMPLES log-spaced radii.

    An excess up to ETA0_SLACK passes; the report names the first violation.
    """
    t_lo = 2.0 * np.log(sol.mu)
    t_hi = sol.log_R
    if t_hi <= t_lo:
        return Eta0Comparison(True, None, 0.0)
    ts = np.linspace(t_lo, t_hi, ETA0_SAMPLES)
    eta, _ = sol.eta.eval_t(ts)
    excess = eta - pf.eta0(np.exp(ts))
    bad = np.flatnonzero(excess > ETA0_SLACK)
    first = float(np.exp(ts[bad[0]])) if len(bad) else None
    return Eta0Comparison(not len(bad), first, float(np.max(excess)))
