"""Constrained maximization of the exponential functional on radial fields.

Maximizes F(u) = int_{B_1} (1 + g(u)) e^{u^2} dx over radial u in H^1_0
with Dirichlet energy ||grad u||^2 = alpha < 4 pi, by steepest ascent
in H^1 on a log-spaced grid.  By Carleson-Chang the maximizer is the
radial critical point at energy alpha, so its value converges under mesh
refinement to the shooting branch's F at the root of E(mu) = alpha (the
tests check this).  The gradient d is the H^1-Riesz representative of dF
(the solution of the discrete radial Poisson problem), which keeps the
iteration count essentially mesh independent.  On the sphere E = alpha
every iteration searches along the tangent part tau = d - (u.G / E) u
of d in the H^1 metric.  A step is retracted to the sphere by exact
rescaling, valid because F increases under scaling up for the
admissible weights, and each backtracking line search starts at
STEP_GROWTH times the last accepted step.  A discrete critical point is
a u parallel to d in the H^1 metric: the ascent stops, ``converged``, once
the sine of their angle is below ASCENT_TOL = 1e-8, and the multiplier is
the energy identity alpha = lambda int (1+h(u)) u^2 e^{u^2} dx, on any
grid.  The sine is |tau| / |d| for the tangent tau, which does not cancel.

Steepest ascent converges linearly, so it is finished by Newton's
method: once sin theta < NEWTON_SWITCH an iteration first tries
one Newton step on the Lagrangian F - nu (E - alpha), nu = 1 / lambda.
The Hessian H = F'' and the stiffness A are tridiagonal on the nodes, so
the bordered KKT step is one banded solve with two right-hand sides,
O(n); H's bands weight the pointwise f'' at the Gauss points by the
products of the two nodes' shares, and f'' is one forward difference of
f'(u) = 2 u (1 + h(u)) e^{u^2}, so no family needs h'.  The step is
retracted to the sphere by rescaling and kept when F does not fall
beyond rounding; otherwise the iteration takes its steepest-ascent
step.  This safeguard keeps the ascent on the maximizer: Newton's method
converges to any critical point, and Newton steps taken from the flat
start at alpha / 4 pi = 0.9 reach one with F lower by 5.9.
With this finish and the nested levels below, a Polak-Ribiere+
recurrence on top of tau no longer pays: over the three families at 14
energies and 256 to 8192 nodes it took 2435 iterations in total, against
2145 for tau alone, for the same F to 1e-13.

Since the iteration count hardly depends on the mesh, the iterations are
spent on a coarse grid: n nodes are maximized on n // COARSE_FACTOR nodes
first, recursively while that level keeps COARSE_MIN_NODES, and the
coarsest level starts from the flat profile 1 - r^2.  Each finer level
starts from the coarser maximizer, interpolated linearly in t and
rescaled to E = alpha, at sin theta of a few 1e-3, so it needs only the
Newton finish.  At 4096 nodes the 512-node level takes 6, 9 and
21 iterations at alpha / 4 pi = 0.5, 0.9 and 0.999 and the 4096-node
level 3, 3 and 4, where one level alone takes 6, 9 and 21 on 4096
nodes; both end at the same F to 2e-14.  ``max_iter`` caps the
iterations of all levels together.  At 4096 nodes lambda_hat exceeds the
branch's lambda by 2.4e-6, 3.2e-7 and 1.5e-7 on those three rungs; at
0.9 and 0.999 that gap is mesh error, falling 4x per node doubling.

The discrete field is piecewise linear in t = log r, for which the
Dirichlet energy has the exact per-segment form 2 pi (du)^2 / dt and the
functional is integrated by fixed-order Gauss quadrature per segment plus
a closed inner cap on [0, r_min].

What depends only on the grid (each Gauss point's interpolation weight
and its quadrature weight 2 pi w e^{2t}, whole and split between the two
nodes, the stiffnesses 2 pi / dt and the cap area) is a per-grid plan
shared by copies of the field, and the Riesz solve in flux form is two
cumulative sums: a step is loop-free.  The result is returned as data;
:mod:`mtlab.cli` renders it as JSON.

What depends on a field's values through exp, g or h is evaluated once
per field.  F (of the start, a line-search or a Newton trial) evaluates
u and e^{u^2} at the Gauss points and, as the public functional_value
returns F alone, leaves them on the field; a field the ascent keeps is
not changed before its gradient takes them off, forms
f'(u) = 2 u (1 + h(u)) e^{u^2} from them and drops them (the re-measure
after the last iteration does the same).  The Hessian bands take that
f'(u) and evaluate only f'(u + eps), interpolating u again (two array
operations) rather than holding F's array until then.  So g runs once
per F evaluation and h once per gradient plus once per Newton trial,
and a rejected trial's arrays go with the trial.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

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
ASCENT_TOL = 1e-8  # sine of the H^1 angle between u and d at the stop
STEP_GROWTH = 1.5  # a line search starts at this multiple of the last accepted step
NEWTON_SWITCH = 5e-2  # below this sin theta an iteration first tries a Newton step
NEWTON_FD_EPS = 1e-7  # relative forward-difference step of the Hessian bands
MOSER_BOUND_EPS = 1e-8  # additive slack of the pointwise Moser bound
COARSE_FACTOR = 8  # a coarse level has n_nodes // COARSE_FACTOR nodes
COARSE_MIN_NODES = 256  # the fewest nodes a coarse level may have
# the rule's nodes and weights on [-1, 1], SciPy's roots_legendre(GAUSS_ORDER)
# written out: that call runs a LAPACK eigensolve, whose workspace would
# stay in every process that imports the module
GAUSS_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                    0.5384693101056831, 0.906179845938664])
GAUSS_W = np.array([0.23692688505618897, 0.4786286704993665, 0.568888888888889,
                    0.4786286704993665, 0.23692688505618897])


class RadialField:
    """Radial H^1_0 field on a log grid, piecewise linear in t = log r.

    ``t_nodes`` runs from log(r_min) to 0 and ``values`` carries u at the
    nodes with u(1) = 0 enforced.  The inner disk [0, r_min] extends u
    by the constant u(r_min) (zero energy there).  :func:`functional_value`
    leaves u and e^{u^2} at the Gauss points on the field for its
    gradient (see :func:`_take_gauss`).
    """

    def __init__(self, t_nodes: np.ndarray, values: np.ndarray):
        t_nodes = np.asarray(t_nodes, dtype=float)
        values = np.asarray(values, dtype=float).copy()
        if t_nodes.ndim != 1 or len(t_nodes) < 2 or np.any((dt := np.diff(t_nodes)) <= 0):
            raise ValueError("t_nodes must be two or more strictly increasing values")
        if abs(t_nodes[-1]) > 1e-14:
            raise ValueError("last node must sit at r = 1 (t = 0)")
        if len(values) != len(t_nodes):
            raise ValueError("values length mismatch")
        values[-1] = 0.0
        self.t_nodes = t_nodes
        self.values = values
        self._dt = dt
        self._plan: Optional["_GridPlan"] = None
        self._gauss: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def energy(self) -> float:
        """Exact Dirichlet energy of the piecewise-linear-in-log field."""
        du = np.diff(self.values)
        return float(2.0 * np.pi * np.sum(du * du / self._dt))

    def plan(self) -> "_GridPlan":
        """The grid-constant quadrature and stiffness data, built on first use."""
        if self._plan is None:
            self._plan = _grid_plan(self.t_nodes, self._dt)
        return self._plan

    def copy(self) -> "RadialField":
        """Copy of the values; the grid, its steps and plan are shared, not
        re-checked, and no Gauss-point arrays are carried over."""
        twin = copy.copy(self)
        twin.values = self.values.copy()
        twin._gauss = None
        return twin


class _GridPlan(NamedTuple):
    frac: np.ndarray      # barycentric weight of the left node at each Gauss point
    wf: np.ndarray        # 2 pi e^{2t} times the Gauss weight: F's weight per point
    wl: np.ndarray        # wf * frac, the left node's share of a point
    wr: np.ndarray        # wf * (1 - frac), the right node's share of a point
    cap: float            # pi r_min^2, the area of the inner cap
    w: np.ndarray         # segment stiffnesses 2 pi / dt


def _grid_plan(t_nodes: np.ndarray, dt: np.ndarray) -> _GridPlan:
    """Gauss-Legendre points/weights of every segment plus the stiffnesses."""
    t0, t1 = t_nodes[:-1], t_nodes[1:]
    mid, half = 0.5 * (t0 + t1), 0.5 * dt
    tq = mid[:, None] + half[:, None] * GAUSS_X[None, :]
    frac = (t1[:, None] - tq) / dt[:, None]
    wf = 2.0 * np.pi * (half[:, None] * GAUSS_W[None, :]) * np.exp(2.0 * tq)
    return _GridPlan(frac=frac, wf=wf, wl=wf * frac, wr=wf * (1.0 - frac),
                     cap=np.pi * np.exp(t_nodes[0]) ** 2, w=2.0 * np.pi / dt)


def _gauss_values(field: RadialField) -> np.ndarray:
    """u at the Gauss points of every segment, one row per segment."""
    u = field.values
    return u[1:, None] + field.plan().frac * (u[:-1] - u[1:])[:, None]


def _gauss_arrays(field: RadialField) -> Tuple[np.ndarray, np.ndarray]:
    """u and e^{u^2} at the Gauss points of every segment, one row per segment."""
    uq = _gauss_values(field)
    return uq, np.exp(uq * uq)


def _take_gauss(field: RadialField) -> Tuple[np.ndarray, np.ndarray]:
    """The (u, e^{u^2}) that F of ``field`` left on it, taken off it; valid
    only while ``field.values`` has not changed since that F."""
    gauss, field._gauss = field._gauss, None
    return gauss


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-segment sums of a * b; einsum skips the product's temporary."""
    return np.einsum("ij,ij->i", a, b)


def _fprime(u, h):
    """f'(u) = 2 u (1 + h(u)) e^{u^2}, the pointwise derivative of F's integrand."""
    return 2.0 * u * (1.0 + h(np.maximum(np.abs(u), 1e-12))) * np.exp(u * u)


def _fprime_from(u, e, h):
    """f'(u) from F's e = e^{u^2}; :func:`_fprime` takes the exp last instead
    of as an argument, so no e^{u^2} array is held while h runs."""
    return 2.0 * u * (1.0 + h(np.maximum(np.abs(u), 1e-12))) * e


def functional_value(field: RadialField, spec: PerturbationSpec) -> float:
    """F = int (1+g(u)) e^{u^2} dx, per-segment Gauss plus the inner cap.

    The Gauss-point u and e^{u^2} are left on the field for the gradient
    of the same values (see :func:`_take_gauss`).
    """
    g = spec.g
    plan = field.plan()
    uq, e = field._gauss = _gauss_arrays(field)
    val = float(np.sum((1.0 + g(np.abs(uq))) * e * plan.wf))
    u0 = field.values[0]
    g0 = float(g(np.asarray(abs(u0))))
    return val + plan.cap * (1.0 + g0) * np.exp(u0 * u0)


def _functional_gradient(field: RadialField, uq: np.ndarray, e: np.ndarray,
                         h) -> Tuple[np.ndarray, Tuple[np.ndarray, float]]:
    """Nodal gradient of F from u and e = e^{u^2} at the Gauss points, and the
    pointwise dF/du = f'(u) = 2 u (1 + h(u)) e^{u^2} it weighted, at the
    Gauss points and at the cap: (gradient, (f'(uq), f'(u0)))."""
    plan = field.plan()
    u0 = field.values[0]
    fprime = _fprime_from(uq, e, h), _fprime(u0, h)
    grad = np.zeros_like(field.values)
    grad[:-1] += _row_dot(fprime[0], plan.wl)
    grad[1:] += _row_dot(fprime[0], plan.wr)
    grad[0] += plan.cap * fprime[1]
    return grad, fprime


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


def _hessian_bands(field: RadialField,
                   fprime: Tuple[np.ndarray, float], h) -> Tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of H = F'' on the free nodes (all but r = 1).

    F'' is the pointwise f'' at the Gauss points weighted by the products
    of the two nodes' shares, frac^2, frac (1 - frac) and (1 - frac)^2,
    plus the cap at node 0.  f'' is one forward difference of f' at every
    point, so no family needs h'; ``fprime`` is the gradient's
    (f'(uq), f'(u0)), so only f'(uq + eps) and f'(u0 + eps) are evaluated.
    """
    plan = field.plan()
    eps = NEWTON_FD_EPS * max(1.0, float(np.max(np.abs(field.values))))
    f2 = (_fprime(_gauss_values(field) + eps, h) - fprime[0]) / eps
    # f'' wf (1 - frac) on the segments whose right node is free
    right, frac = f2[:-1] * plan.wr[:-1], plan.frac[:-1]
    diag = _row_dot(f2 * plan.wl, plan.frac)
    diag[1:] += _row_dot(right, 1.0 - frac)
    diag[0] += plan.cap * (_fprime(field.values[0] + eps, h) - fprime[1]) / eps
    return diag, _row_dot(right, frac)


def _newton_trial(field: RadialField, grad: np.ndarray,
                  hessian: Tuple[np.ndarray, np.ndarray], lam: float,
                  alpha: float) -> RadialField:
    """One Newton step on the Lagrangian F - nu (E - alpha), retracted to E = alpha.

    ``hessian`` holds the bands of H = F'' from :func:`_hessian_bands`.
    With nu = 1/lambda, b = 2 A u and M = H - 2 nu A on the free nodes the
    bordered KKT system is M du - b dnu = -(G - nu b), b.du = alpha - E;
    both solves M [x1 x2] = [-(G - nu b), b] share one banded LU, then
    dnu = (alpha - E - b.x1) / (b.x2) and du = x1 + dnu x2.
    """
    u, w = field.values, field.plan().w
    nu = 1.0 / lam
    diag, off = hessian
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
            max_iter: int) -> Tuple[RadialField, float, int, int, float, float]:
    """Steepest ascent in H^1 from ``field`` on the sphere E = alpha, along
    the tangent of ``_stationarity``, finished by Newton steps once
    sin theta < NEWTON_SWITCH.

    Returns (field, F, iterations, F evaluations, lambda, sin theta), the
    last two measured at the returned field; raises IntegrationError on
    NaN/inf.  A Newton trial is kept when it does not lower F beyond
    rounding; otherwise the iteration takes the steepest-ascent step.
    The ascent ends at the stop sin theta < ASCENT_TOL, when the line
    search finds no step that raises F (the field is then the one just
    measured), or after ``max_iter``; with ``max_iter`` = 0 the field is
    only rescaled and measured.
    """
    _project(field, alpha)
    value = functional_value(field, spec)
    _require_finite(value, "functional value", 0)
    evaluations, step, it = 1, 1.0, 0
    for it in range(1, max_iter + 1):
        grad, fprime = _functional_gradient(field, *_take_gauss(field), spec.h)
        _require_finite(grad, "gradient", it)
        direction = _h1_riesz(field, grad)
        _require_finite(direction, "ascent direction", it)
        lam, sin_theta, tangent = _stationarity(field, grad, direction)
        if sin_theta < ASCENT_TOL:
            break
        trial = (_newton_trial(field, grad, _hessian_bands(field, fprime, spec.h),
                               lam, alpha) if sin_theta < NEWTON_SWITCH else None)
        fprime = None  # f' is read only by the gradient and the bands
        if trial is not None:
            trial_value = functional_value(trial, spec)
            evaluations += 1
            if trial_value >= value * (1.0 - 1e-14):
                field, value = trial, trial_value
                continue
        while step > 1e-12:
            trial = field.copy()
            trial.values += step * tangent
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
    else:  # the last iteration moved the field: measure it again
        lam, sin_theta = _measure(field, *_take_gauss(field), spec.h)
    return field, value, it, evaluations, lam, sin_theta


def _nested_ascent(alpha: float, spec: PerturbationSpec, n_nodes: int,
                   max_iter: int) -> Tuple[RadialField, float, int, int, float, float]:
    """``_ascend`` on ``n_nodes`` nodes from the coarse level's maximizer.

    The coarse level has n_nodes // COARSE_FACTOR nodes and is maximized
    the same way; below COARSE_MIN_NODES coarse nodes the ascent starts
    from the parabolic start.  The coarse maximizer is interpolated
    linearly in t, and the ascent on the requested grid gets what the
    coarse levels left of ``max_iter``.  Returns ``_ascend``'s tuple with
    the iterations and F evaluations summed over the levels.
    """
    start = parabolic_start(alpha, n_nodes)
    if n_nodes // COARSE_FACTOR < COARSE_MIN_NODES:
        return _ascend(start, alpha, spec, max_iter)
    coarse, _, its, evals, _, _ = _nested_ascent(
        alpha, spec, n_nodes // COARSE_FACTOR, max_iter)
    start.values = np.interp(start.t_nodes, coarse.t_nodes, coarse.values)
    field, value, fine_its, fine_evals, lam, sin_theta = _ascend(
        start, alpha, spec, max_iter - its)
    return field, value, its + fine_its, evals + fine_evals, lam, sin_theta


def maximize_subcritical(alpha: float, spec: Optional[PerturbationSpec] = None,
                         n_nodes: int = 4096, max_iter: int = 200) -> MaximizerResult:
    """Steepest ascent in the H^1 metric, finished by safeguarded Newton
    steps, on nested grids (see the module docstring).

    ``max_iter`` caps the iterations over all levels, and ``iterations``
    and ``evaluations`` are totals over them.  ``converged`` is True only
    when the returned field meets the stop sin theta < ASCENT_TOL, not
    when ``max_iter`` or the line search runs out short of it.  An alpha outside (0, 4 pi), ``max_iter`` < 1 or a
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
    field, value, its, evals, lam, sin_theta = _nested_ascent(
        alpha, spec, n_nodes, max_iter)
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
    return _measure(field, *_gauss_arrays(field), spec.h)


def _measure(field: RadialField, uq: np.ndarray, e: np.ndarray,
             h) -> Tuple[float, float]:
    """(lambda, sin theta) of ``field`` from its Gauss-point u and e^{u^2}."""
    grad, _ = _functional_gradient(field, uq, e, h)
    lam, sin_theta, _ = _stationarity(field, grad, _h1_riesz(field, grad))
    return lam, sin_theta
