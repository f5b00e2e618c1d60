"""Constrained maximization of the exponential functional on radial fields.

Maximizes F(u) = int_{B_1} (1 + g(u)) e^{u^2} dx over radial u in H^1_0
with Dirichlet energy ||grad u||^2 = alpha < 4 pi, by conjugate-gradient
ascent on a log-spaced grid from the flat start 1 - r^2.  By Carleson-Chang
the maximizer is the radial critical point at energy alpha, so its value
converges under mesh refinement to the shooting branch's F at the root of
E(mu) = alpha (the tests check this).  The gradient d is the H^1-Riesz
representative of dF (the solution of the discrete radial Poisson
problem), which keeps the iteration count essentially mesh independent.
On the sphere E = alpha the ascent is Polak-Ribiere+ in the H^1 metric:
the search direction is the tangent part g = d - (u.G / E) u plus
beta = max(0, <g, g - g_prev> / <g_prev, g_prev>) times the previous
direction, moved into the tangent space at u; a direction that does not
ascend is replaced by g (a restart).  A step is retracted to the sphere
by exact rescaling, valid because F increases under scaling up for the
admissible weights, and each backtracking line search starts at
STEP_GROWTH times the last accepted step.  A discrete critical point is
a u parallel to d in the H^1 metric: the ascent stops, ``converged``, once
the sine of their angle is below ASCENT_TOL, and the multiplier is the
energy identity alpha = lambda int (1+h(u)) u^2 e^{u^2} dx, on any grid.
The sine is |tau| / |d| for the tangent tau, which does not cancel.

Conjugate gradients converge linearly, so the ascent is finished by
Newton's method: once sin theta < NEWTON_SWITCH an iteration first tries
one Newton step on the Lagrangian F - nu (E - alpha), nu = 1 / lambda.
The Hessian H = F'' and the stiffness A are tridiagonal on the nodes, so
the bordered KKT step is one banded solve with two right-hand sides,
O(n); H's bands are three forward differences of the gradient, one per
colour of nodes c, c+3, c+6, ... (Curtis, Powell & Reid), so no family
needs h'.  The step is retracted to the sphere by rescaling and kept
when F does not fall beyond rounding; otherwise the iteration takes its
conjugate-gradient step.  This safeguard keeps the ascent on the
maximizer: Newton's method converges to any critical point, and Newton
steps taken from the flat start at alpha / 4 pi = 0.9 reach one with F
lower by 5.9.

The discrete field is piecewise linear in t = log r, for which the
Dirichlet energy has the exact per-segment form 2 pi (du)^2 / dt and the
functional is integrated by fixed-order Gauss quadrature per segment plus
a closed inner cap on [0, r_min].

What depends only on the grid (Gauss points, weights, e^{2t}, stiffnesses
2 pi / dt, cap area) is a per-grid plan shared by copies of the field, and
the Riesz solve in flux form is two cumulative sums: a step is loop-free.
The result is returned as data; :mod:`mtlab.cli` renders it as JSON.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import roots_legendre

from .perturbations import PerturbationSpec, trivial
from .radial_ode import IntegrationError

__all__ = [
    "RadialField",
    "MaximizerResult",
    "parabolic_start",
    "maximize_subcritical",
    "pointwise_moser_bound",
    "MoserBoundReport",
    "multiplier_estimate_field",
]

FOUR_PI = 4.0 * np.pi
GAUSS_ORDER = 5  # Gauss-Legendre points per segment
R_MIN = 1e-8  # innermost grid radius; the cap [0, R_MIN] holds u(R_MIN)
ASCENT_TOL = 1e-6  # sine of the H^1 angle between u and d at the stop
STEP_GROWTH = 1.5  # a line search starts at this multiple of the last accepted step
NEWTON_SWITCH = 1e-2  # below this sin theta an iteration first tries a Newton step
NEWTON_FD_EPS = 1e-7  # relative forward-difference step of the Hessian bands
MOSER_BOUND_EPS = 1e-8  # additive slack of the pointwise Moser bound


class RadialField:
    """Radial H^1_0 field on a log grid, piecewise linear in t = log r.

    ``t_nodes`` runs from log(r_min) to 0 and ``values`` carries u at the
    nodes with u(1) = 0 enforced.  The inner disk [0, r_min] extends u
    by the constant u(r_min) (zero energy there).
    """

    def __init__(self, t_nodes: np.ndarray, values: np.ndarray):
        t_nodes = np.asarray(t_nodes, dtype=float)
        values = np.asarray(values, dtype=float).copy()
        if t_nodes.ndim != 1 or len(t_nodes) < 2 or np.any(np.diff(t_nodes) <= 0):
            raise ValueError("t_nodes must be two or more strictly increasing values")
        if abs(t_nodes[-1]) > 1e-14:
            raise ValueError("last node must sit at r = 1 (t = 0)")
        if len(values) != len(t_nodes):
            raise ValueError("values length mismatch")
        values[-1] = 0.0
        self.t_nodes = t_nodes
        self.values = values
        self._plan: Optional["_GridPlan"] = None

    def energy(self) -> float:
        """Exact Dirichlet energy of the piecewise-linear-in-log field."""
        du = np.diff(self.values)
        return float(2.0 * np.pi * np.sum(du * du / np.diff(self.t_nodes)))

    def plan(self) -> "_GridPlan":
        """The grid-constant quadrature and stiffness data, built on first use."""
        if self._plan is None:
            self._plan = _grid_plan(self.t_nodes)
        return self._plan

    def copy(self) -> "RadialField":
        """Copy of the values; the grid and its plan are shared, not re-checked."""
        twin = copy.copy(self)
        twin.values = self.values.copy()
        return twin


class _GridPlan(NamedTuple):
    frac: np.ndarray      # barycentric weight of the left node at each Gauss point
    wq: np.ndarray        # Gauss weights mapped into each segment
    e2t: np.ndarray       # e^{2t} at each Gauss point (the area element r^2)
    cap: float            # pi r_min^2, the area of the inner cap
    w: np.ndarray         # segment stiffnesses 2 pi / dt


def _grid_plan(t_nodes: np.ndarray) -> _GridPlan:
    """Gauss-Legendre points/weights of every segment plus the stiffnesses."""
    x, w = roots_legendre(GAUSS_ORDER)
    t0, t1 = t_nodes[:-1], t_nodes[1:]
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    tq = mid[:, None] + half[:, None] * x[None, :]
    wq = half[:, None] * w[None, :]
    frac = (t1[:, None] - tq) / (t1 - t0)[:, None]
    return _GridPlan(frac=frac, wq=wq, e2t=np.exp(2.0 * tq),
                     cap=np.pi * np.exp(t_nodes[0]) ** 2,
                     w=2.0 * np.pi / np.diff(t_nodes))


def functional_value(field: RadialField, spec: PerturbationSpec) -> float:
    """F = int (1+g(u)) e^{u^2} dx, per-segment Gauss plus the inner cap."""
    g = spec.g
    plan = field.plan()
    frac = plan.frac
    uq = frac * field.values[:-1, None] + (1.0 - frac) * field.values[1:, None]
    integrand = (1.0 + g(np.abs(uq))) * np.exp(uq * uq) * plan.e2t
    val = 2.0 * np.pi * float(np.sum(integrand * plan.wq))
    u0 = field.values[0]
    g0 = float(g(np.asarray(abs(u0))))
    return val + plan.cap * (1.0 + g0) * np.exp(u0 * u0)


def _functional_gradient(field: RadialField, spec: PerturbationSpec) -> np.ndarray:
    """Nodal gradient of F; dF/du = 2 u (1 + h(u)) e^{u^2} pointwise."""
    h = spec.h
    plan = field.plan()
    frac, wq = plan.frac, plan.wq
    uq = frac * field.values[:-1, None] + (1.0 - frac) * field.values[1:, None]
    hu = h(np.maximum(np.abs(uq), 1e-12))
    fprime = 2.0 * uq * (1.0 + hu) * np.exp(uq * uq) * plan.e2t
    grad = np.zeros_like(field.values)
    grad[:-1] += np.sum(fprime * frac * wq, axis=1)
    grad[1:] += np.sum(fprime * (1.0 - frac) * wq, axis=1)
    grad *= 2.0 * np.pi
    u0 = field.values[0]
    h0 = float(h(np.asarray(max(abs(u0), 1e-12))))
    grad[0] += plan.cap * 2.0 * u0 * (1.0 + h0) * np.exp(u0 * u0)
    return grad


def _h1_riesz(field: RadialField, rhs: np.ndarray) -> np.ndarray:
    """Solve the discrete radial Poisson problem A d = rhs (Dirichlet at r=1).

    A is the stiffness matrix of the energy quadratic form
    2 pi sum (du_i)^2/dt_i, tridiagonal in the nodal values with a natural
    (free) condition at the innermost node.  Row i is the flux balance
    S_i - S_{i-1} = rhs_i with S_i = w_i (d_i - d_{i+1}) and S_{-1} = 0.
    """
    flux = np.cumsum(rhs[:-1])  # the last node is pinned to 0
    out = np.zeros_like(field.values)
    out[:-1] = np.cumsum((flux / field.plan().w)[::-1])[::-1]
    return out


def _project(field: RadialField, alpha: float) -> None:
    field.values *= np.sqrt(alpha / field.energy())


def parabolic_start(alpha: float, n_nodes: int = 4096) -> RadialField:
    """Profile 1 - r^2 scaled to energy alpha (flat, non-concentrated)."""
    t = np.linspace(np.log(R_MIN), 0.0, n_nodes)
    f = RadialField(t, 1.0 - np.exp(2.0 * t))
    _project(f, alpha)
    return f


@dataclass
class MaximizerResult:
    field: RadialField
    alpha: float
    value: float
    lambda_hat: float
    iterations: int
    evaluations: int  # F evaluations: the start, every line-search and Newton trial
    converged: bool
    stationarity: float  # sin of the H^1 angle between u and d at the end


def _require_finite(x, what: str, it: int) -> None:
    if not np.all(np.isfinite(x)):
        raise IntegrationError(f"non-finite {what} at ascent iteration {it}")


def _stationarity(field: RadialField, grad: np.ndarray,
                  direction: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """(lambda, sin theta, tangent) from dF = ``grad`` and its Riesz representative d.

    In the H^1 metric <u, d> = u.G and <u, u> = E, so the tangent part of d
    on the sphere is tau = d - (u.G / E) u and sin theta = |tau| / |d|, a
    quotient of two sums of squares that does not cancel near a critical
    point; lambda = 2 E / (u.G) is the energy identity, since
    u.G = 2 int (1+h(u)) u^2 e^{u^2} dx.
    """
    energy = field.energy()
    ug = float(np.dot(field.values, grad))
    tangent = direction - (ug / energy) * field.values
    sin2 = _h1_inner(field, tangent, tangent) / _h1_inner(field, direction, direction)
    return 2.0 * energy / ug, float(np.sqrt(sin2)), tangent


def _h1_inner(field: RadialField, a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> = sum w (da)(db), the H^1 product of nodal fields; <u, u> = E."""
    return float(np.dot(field.plan().w, np.diff(a) * np.diff(b)))


def _hessian_bands(field: RadialField, spec: PerturbationSpec,
                   grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of H = F'' on the free nodes (all but r = 1).

    H is tridiagonal, so nodes c, c+3, c+6, ... share no row: one forward
    difference of the gradient per colour c reads H[j, j] and H[j+1, j]
    for every j of that colour (Curtis, Powell & Reid), and no family
    needs h'.
    """
    u = field.values
    n = len(u) - 1
    eps = NEWTON_FD_EPS * max(1.0, float(np.max(np.abs(u))))
    diag, off = np.empty(n), np.empty(n - 1)
    probe = field.copy()
    for c in range(3):
        probe.values[:] = u
        probe.values[c:n:3] += eps
        quotient = (_functional_gradient(probe, spec) - grad) / eps
        diag[c::3] = quotient[c:n:3]
        off[c::3] = quotient[c + 1:n:3]
    return diag, off


def _newton_trial(field: RadialField, grad: np.ndarray, lam: float,
                  alpha: float, spec: PerturbationSpec) -> RadialField:
    """One Newton step on the Lagrangian F - nu (E - alpha), retracted to E = alpha.

    With nu = 1/lambda, b = 2 A u and M = H - 2 nu A on the free nodes the
    bordered KKT system is M du - b dnu = -(G - nu b), b.du = alpha - E;
    both solves M [x1 x2] = [-(G - nu b), b] share one banded LU, then
    dnu = (alpha - E - b.x1) / (b.x2) and du = x1 + dnu x2.
    """
    u, w = field.values, field.plan().w
    nu = 1.0 / lam
    diag, off = _hessian_bands(field, spec, grad)
    flux = w * (u[:-1] - u[1:])  # A u in flux form, as in _h1_riesz
    b = 2.0 * (flux - np.concatenate(([0.0], flux[:-1])))
    bands = np.zeros((3, len(b)))
    bands[0, 1:] = bands[2, :-1] = off + 2.0 * nu * w[:-1]
    bands[1] = diag - 2.0 * nu * (w + np.concatenate(([0.0], w[:-1])))
    x1, x2 = solve_banded((1, 1), bands, np.column_stack((nu * b - grad[:-1], b)),
                          check_finite=False).T
    dnu = (alpha - field.energy() - np.dot(b, x1)) / np.dot(b, x2)
    trial = field.copy()
    trial.values[:-1] += x1 + dnu * x2
    _project(trial, alpha)
    return trial


def _ascend(field: RadialField, alpha: float, spec: PerturbationSpec,
            max_iter: int) -> Tuple[RadialField, float, int, int]:
    """PR+ conjugate-gradient ascent from ``field`` on the sphere E = alpha,
    finished by Newton steps once sin theta < NEWTON_SWITCH.

    Returns (field, F, iterations, F evaluations); raises IntegrationError
    on NaN/inf.  A Newton trial is kept when it does not lower F beyond
    rounding; otherwise the iteration takes the conjugate-gradient step.
    The ascent ends at the stop sin theta < ASCENT_TOL, when the line
    search finds no step that raises F, or after ``max_iter``.
    """
    _project(field, alpha)
    value = functional_value(field, spec)
    _require_finite(value, "functional value", 0)
    evaluations, step = 1, 1.0
    tangent_prev = search = None
    for it in range(1, max_iter + 1):
        grad = _functional_gradient(field, spec)
        _require_finite(grad, "gradient", it)
        direction = _h1_riesz(field, grad)
        _require_finite(direction, "ascent direction", it)
        lam, sin_theta, tangent = _stationarity(field, grad, direction)
        if sin_theta < ASCENT_TOL:
            break
        if sin_theta < NEWTON_SWITCH:
            trial = _newton_trial(field, grad, lam, alpha, spec)
            trial_value = functional_value(trial, spec)
            evaluations += 1
            if trial_value >= value * (1.0 - 1e-14):
                field, value = trial, trial_value
                search = None  # the next conjugate-gradient step restarts
                continue
        u, energy = field.values, field.energy()
        if search is not None:
            beta = max(0.0, _h1_inner(field, tangent, tangent - tangent_prev)
                       / _h1_inner(field, tangent_prev, tangent_prev))
            # the previous direction, moved into the tangent space at u
            search = tangent + beta * (search - (_h1_inner(field, search, u)
                                                 / energy) * u)
        if search is None or _h1_inner(field, search, tangent) <= 0.0:
            search = tangent  # restart on steepest ascent
        tangent_prev = tangent
        while step > 1e-12:
            trial = field.copy()
            trial.values += step * search
            _project(trial, alpha)
            trial_value = functional_value(trial, spec)
            evaluations += 1
            _require_finite(trial_value, "functional value", it)
            if trial_value > value:
                break
            step *= 0.5
        else:  # no step size improves F short of the stop
            break
        field, value = trial, trial_value
        step *= STEP_GROWTH
    return field, value, it, evaluations


def maximize_subcritical(alpha: float, spec: Optional[PerturbationSpec] = None,
                         n_nodes: int = 4096, max_iter: int = 200) -> MaximizerResult:
    """Conjugate-gradient ascent in the H^1 metric from the parabolic start,
    finished by safeguarded Newton steps (see the module docstring).

    ``converged`` is True only when the returned field meets the stop
    sin theta < ASCENT_TOL, not when ``max_iter`` or the line search runs
    out short of it.  An alpha outside (0, 4 pi), ``max_iter`` < 1 or a
    family without g (only h) raise ValueError.
    """
    if not (0.0 < alpha < FOUR_PI):
        raise ValueError("alpha must lie in (0, 4 pi)")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    spec = spec or trivial()
    if spec.g is None:
        raise ValueError(f"family {spec.name!r} defines no g, "
                         "so the functional is undefined")
    field, value, its, evals = _ascend(parabolic_start(alpha, n_nodes), alpha,
                                       spec, max_iter)
    lam, sin_theta = multiplier_estimate_field(field, spec)
    return MaximizerResult(field=field, alpha=alpha, value=value,
                           lambda_hat=lam, iterations=its, evaluations=evals,
                           converged=sin_theta < ASCENT_TOL,
                           stationarity=sin_theta)


@dataclass
class MoserBoundReport:
    holds: bool
    max_excess: float
    first_violation_r: Optional[float]


def pointwise_moser_bound(result: MaximizerResult) -> MoserBoundReport:
    """Check u(r)^2 <= (alpha / 2 pi) log(1/r) + MOSER_BOUND_EPS at every node."""
    f = result.field
    bound = (result.alpha / (2.0 * np.pi)) * (-f.t_nodes) + MOSER_BOUND_EPS
    excess = f.values ** 2 - bound
    bad = np.flatnonzero(excess > 0.0)
    first = float(np.exp(f.t_nodes[bad[0]])) if len(bad) else None
    return MoserBoundReport(not len(bad), float(np.max(excess)), first)


def multiplier_estimate_field(field: RadialField,
                              spec: PerturbationSpec) -> Tuple[float, float]:
    """(lambda_hat, sin theta) for -Delta u = lambda (1+h(u)) u e^{u^2}.

    sin theta is 0 exactly at a discrete critical point of F on the sphere.
    """
    grad = _functional_gradient(field, spec)
    lam, sin_theta, _ = _stationarity(field, grad, _h1_riesz(field, grad))
    return lam, sin_theta
