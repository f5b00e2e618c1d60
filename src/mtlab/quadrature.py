"""Weighted planar integrals of radial functions and the log-slope formula.

``integrate_plane`` evaluates int_{R^2} f dx = 2 pi int_0^inf f(r) r dr for
radial integrands that decay at least like log^q(r) / r^4.  An integrand is
a scalar or a vector of integrands, and it is only ever called on a 1-D
ndarray of radii.  Each half-range is integrated by an adaptive pass of
QUADPACK's 21-point Gauss-Kronrod rule (qk21) on arrays: a round evaluates
the rule on every interval still open with one call of ``f`` on all their
nodes, so a pass costs one call per round, not one per node.  Every
component shares the subintervals, and the error bound is the max norm
over the components.  The range is split at r = 1; the outer part is
integrated in the log coordinate and cut at ``R_CUT``, beyond which a
closed-form majorant C log^4(r) / r^3 bounds the remainder.

``beta_from_source`` implements the identity

    beta = -(2/pi) int_{R^2} (|x|^2-1)/(1+|x|^2)^3 f(x) dx

for the log-slope of solutions of -Delta w = 4 e^{2 eta0}(f + 2w), and
``integral_tables`` reproduces the fourteen tabulated weighted integrals
used in the energy expansions, as one vector integrand that evaluates each
profile once per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

import numpy as np
from scipy.special import zeta

from . import profiles as pf
from .radial_ode import IntegrationError

__all__ = [
    "QuadratureResult",
    "TailBoundError",
    "integrate_plane",
    "beta_from_source",
    "integral_tables",
    "beta1_combination",
    "z0_slope_combination",
]

PI = np.pi
ZETA3 = float(zeta(3.0))
R_CUT = 1e10  # integrate_plane's outer limit; a majorant bounds the rest
BETA_TOL = 1e-10  # beta_from_source's absolute tolerance on beta
EPSREL = 1e-13  # integrate_plane's relative tolerance on each half
EPS = np.finfo(float).eps

# QUADPACK's qk21 (Piessens et al., QUADPACK, 1983), stored as dqk21 stores
# it: the 11 Kronrod nodes in [0, 1) from the top, their weights, and the
# weights of the 10-point Gauss rule on the 2nd, 4th, ... of those nodes.
_XGK = np.array([0.995657163025808080735527280689003,
                 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508,
                 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042,
                 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694,
                 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866,
                 0.148874338981631210884826001129720,
                 0.0])
_WGK = np.array([0.011694638867371874278064396062192,
                 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580,
                 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366,
                 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074,
                 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717,
                 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821])
_WG = np.array([0.066671344308688137593568809893332,
                0.149451349150580593145776339657697,
                0.219086362515982043995534934228163,
                0.269266719309996355091226921569469,
                0.295524224714752870173892994651338])
# the whole rule on [-1, 1] in increasing order; the Gauss nodes are the
# odd-indexed ones, GK_NODES[1::2]
GK_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
KRONROD_WEIGHTS = np.concatenate((_WGK[:-1], _WGK[::-1]))
GAUSS_WEIGHTS = np.concatenate((_WG, _WG[::-1]))


@dataclass(frozen=True)
class QuadratureResult:
    value: Union[float, np.ndarray]  # an array for a vector integrand
    abs_error: Union[float, np.ndarray]
    nodes_used: int

    def __post_init__(self):
        if np.any(np.asarray(self.abs_error) < 0):
            raise ValueError("abs_error must be non-negative")


class TailBoundError(RuntimeError):
    """The analytic tail bound could not be pushed below tol/2."""


def _tail_integral(r_cut: float) -> float:
    """Closed form of int_{r_cut}^inf log^4(r) / r^3 dr."""
    L = np.log(r_cut)
    return np.exp(-2.0 * L) * (0.5 * L ** 4 + L ** 3 + 1.5 * L ** 2 + 1.5 * L + 0.75)


def _adaptive_gk21(g: Callable, a: float, b: float, epsabs: float, limit: int,
                   half: str) -> Tuple[Union[float, np.ndarray], float, int]:
    """Integral of g over [a, b] by adaptive qk21: (value, error bound, nodes).

    ``g`` maps a 1-D array of points to shape (n,) or (k, n).  A round
    evaluates the rule on every open interval with one call of ``g`` on all
    their nodes.  Each interval's error is QUADPACK's estimate in the max
    norm over the components, dabs min(1, (200 err / dabs)^1.5), floored at
    the rounding estimate 50 eps h int |g|.  The pass stops once the summed
    error is below max(epsabs, EPSREL |I|) / 8.  Otherwise the intervals
    whose error exceeds their share of that target, by length, and at
    least the worst one, are bisected for the next round, and the others
    are added into the running value and error.  A partition that would
    pass ``limit`` intervals, or a non-finite error, raises IntegrationError
    naming ``half``.
    """
    lo, hi = np.array([a]), np.array([b])
    value, error, neval, count = 0.0, 0.0, 0, 1
    while True:
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = (c[:, None] + h[:, None] * GK_NODES).ravel()
        neval += x.size
        fx = np.asarray(g(x))
        fx = fx.reshape(fx.shape[:-1] + (c.size, GK_NODES.size))
        s_k = fx @ KRONROD_WEIGHTS
        ig = h * s_k
        err = np.abs(h * (s_k - fx[..., 1::2] @ GAUSS_WEIGHTS))
        dabs = h * (np.abs(fx - 0.5 * s_k[..., None]) @ KRONROD_WEIGHTS)
        rounding = 50.0 * EPS * h * (np.abs(fx) @ KRONROD_WEIGHTS)
        if fx.ndim == 3:  # the max norm over the components
            err, dabs, rounding = err.max(axis=0), dabs.max(axis=0), rounding.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5)
        err = np.maximum(np.where((dabs != 0) & (err != 0), scaled, err), rounding)

        total, total_error = value + ig.sum(axis=-1), error + float(err.sum())
        if not np.isfinite(total_error):
            raise IntegrationError(f"the pass on the {half} half did not converge: "
                                   f"non-finite error estimate {total_error}")
        target = max(epsabs, EPSREL * float(np.abs(total).max())) / 8.0
        if total_error < target:
            return total, total_error, neval
        split = err > target * (2.0 * h) / (b - a)
        split[np.argmax(err)] = True
        count += int(np.count_nonzero(split))
        if count > limit:
            raise IntegrationError(
                f"the pass on the {half} half did not converge: {count} intervals "
                f"would pass the cap of {limit} (error {total_error:.3e}, "
                f"target {target:.3e})")
        value = value + ig[..., ~split].sum(axis=-1)
        error += float(err[~split].sum())
        lo, c, hi = lo[split], c[split], hi[split]
        lo, hi = np.concatenate((lo, c)), np.concatenate((c, hi))


def integrate_plane(f: Callable, tol: float = 1e-10) -> QuadratureResult:
    """Planar integral 2 pi int_0^inf f(r) r dr of a radial integrand.

    ``f`` is only ever called on a 1-D ndarray of n radii and returns shape
    (n,) for a scalar integrand or (k, n) for k components: once per round
    of each half-range's adaptive qk21 pass (see :func:`_adaptive_gk21`),
    and once more on the tail majorant's 32 samples.  The inner disc r < 1
    is integrated in r with at most 200 intervals, the outer part in
    t = log r up to ``R_CUT`` with at most 400, each to
    max(tol / (8 pi), EPSREL |I|) / 8.  The components share every
    subdivision, so the shared error bound is a max norm over them: a
    vector integrand gets arrays for ``value`` and ``abs_error``, every
    entry of the latter the shared bound.  The bound is the sum of the
    final intervals' estimates, each already floored at its rounding
    estimate, plus the tail bound; no separate rounding term is added.

    ``f`` must decay at least like log^4(r) / r^4; the remainder beyond
    ``R_CUT`` is bounded by an empirically calibrated majorant and must fit
    within tol/2 for every component, otherwise TailBoundError is raised.
    A half-range whose pass would pass its interval cap, or whose error
    estimate is not finite (a NaN integrand, say), raises IntegrationError
    naming the half.  A tolerance that is not finite and positive (NaN
    included) raises ValueError.
    """
    # written so that a NaN fails the test
    if not 0 < tol < np.inf:
        raise ValueError(f"need a finite positive tolerance, got tol={tol}")
    # inner disc in the radial variable, outer part in t = log r
    inner, err_in, n_in = _adaptive_gk21(lambda r: f(r) * r, 0.0, 1.0,
                                         tol / (8 * PI), 200, "inner r < 1")
    outer, err_out, n_out = _adaptive_gk21(lambda t: f(np.exp(t)) * np.exp(2.0 * t),
                                           0.0, np.log(R_CUT), tol / (8 * PI), 400,
                                           "outer r > 1")

    # majorant constant from samples near the cut, the largest over the
    # components, so every component's tail fits if this one does
    rs = np.exp(np.linspace(np.log(R_CUT) - np.log(4.0), np.log(R_CUT), 32))
    c_maj = float(np.max(np.abs(f(rs)) * rs ** 4 / np.log(rs) ** 4))
    tail = 2.0 * PI * 2.0 * c_maj * _tail_integral(R_CUT)  # factor-2 slack
    # written so that a NaN fails the test
    if not tail <= tol / 2.0:
        raise TailBoundError(
            f"tail bound {tail:.3e} beyond R_CUT={R_CUT:.3e} exceeds tol/2={tol / 2:.3e}")

    value = 2.0 * PI * (inner + outer)
    abs_error = 2.0 * PI * (err_in + err_out) + tail
    if np.ndim(value):
        abs_error = np.full(np.shape(value), abs_error)
    return QuadratureResult(value=value, abs_error=abs_error,
                            nodes_used=n_in + n_out)


def beta_from_source(f: Callable) -> QuadratureResult:
    """Log-slope beta of the solution with source f, via the weighted integral.

    beta = -(2/pi) int psi0 f dx with psi0 = (r^2-1)/(1+r^2)^3: the
    integral's result scaled by -2/pi, its ``abs_error`` by 2/pi, at the
    tolerance BETA_TOL on beta.
    """
    res = integrate_plane(lambda r: pf.psi0(r) * f(r), tol=BETA_TOL * PI / 2.0)
    return QuadratureResult(value=-2.0 / PI * res.value, abs_error=2.0 / PI * res.abs_error,
                            nodes_used=res.nodes_used)


def _table_integrand(r):
    """psi0 times the fourteen table integrands, in ``_table_closed_forms`` order.

    Each profile is evaluated once per radius and shared by the products.
    """
    e, w, z = pf.eta0(r), pf.w0(r), pf.zeta0(r)
    return pf.psi0(r) * np.array([
        e ** 3, e ** 4, w, w * e, w * e ** 2, w ** 2,
        z ** 2, -2.0 * w, e, -e ** 2, -z, -4.0 * w * z, -4.0 * e * z,
        -2.0 * e ** 2 * z])


# (name, closed-form value) -- the first six are unnormalized integrals
# int psi0 * (...) dx feeding the z0 log-slope; the last eight are
# (2/pi)-normalized entries of the inverse-square-tail table.
def _table_closed_forms():
    return [
        ("z0slope_eta0_cubed", -21.0 * PI / 4.0),
        ("z0slope_eta0_fourth", 45.0 * PI / 2.0),
        ("z0slope_w0", PI ** 3 / 18.0 - 7.0 * PI / 12.0),
        ("z0slope_w0_eta0",
         (125.0 / 72.0 - 2.0 / 3.0 * ZETA3) * PI - 2.0 / 27.0 * PI ** 3),
        ("z0slope_w0_eta0_sq",
         (16.0 / 9.0 * ZETA3 - 409.0 / 54.0) * PI + 35.0 / 162.0 * PI ** 3 + PI ** 5 / 45.0),
        ("z0slope_w0_sq",
         (625.0 / 216.0 - 4.0 / 9.0 * ZETA3) * PI - PI ** 3 / 81.0 - PI ** 5 / 45.0),
        ("tail_zeta0_sq", 1.0 / 3.0),
        ("tail_minus_2w0", 7.0 / 3.0 - 2.0 * PI ** 2 / 9.0),
        ("tail_eta0", -1.0),
        ("tail_minus_eta0_sq", -3.0),
        ("tail_minus_zeta0", 1.0 / 3.0),
        ("tail_minus_4w0_zeta0", -67.0 / 27.0 + 2.0 * PI ** 2 / 9.0),
        ("tail_minus_4eta0_zeta0", -34.0 / 9.0),
        ("tail_minus_2eta0_sq_zeta0", 151.0 / 27.0),
    ]


def integral_tables(tol: float = 1e-10) -> Dict[str, Tuple[float, QuadratureResult]]:
    """All fourteen tabulated weighted integrals, from one vector quadrature.

    Returns a mapping name -> (closed_form_value, QuadratureResult).  Names
    prefixed ``z0slope_`` are unnormalized int psi0 * (...) dx; names prefixed
    ``tail_`` carry the (2/pi) normalization of the inverse-square-tail table.
    Every entry reports the pass's shared error bound (times 2/pi for the
    ``tail_`` entries) and its total node count.
    """
    res = integrate_plane(_table_integrand, tol=tol)
    out: Dict[str, Tuple[float, QuadratureResult]] = {}
    for i, (name, closed) in enumerate(_table_closed_forms()):
        scale = 2.0 / PI if name.startswith("tail_") else 1.0
        out[name] = (closed, QuadratureResult(
            value=scale * float(res.value[i]),
            abs_error=scale * float(res.abs_error[i]),
            nodes_used=res.nodes_used))
    return out


def beta1_combination(tables: Dict[str, Tuple[float, QuadratureResult]]) -> float:
    """Signed sum of the table entries entering the first-order slope.

    The seven entries multiplying the linear coefficient sum to -2, so the
    slope of z_a - z0 equals 2a; the quadratic coefficient pairs the two
    zeta0 entries and cancels.
    """
    names = ["tail_eta0", "tail_minus_eta0_sq", "tail_minus_2w0", "tail_minus_zeta0",
             "tail_minus_4w0_zeta0", "tail_minus_4eta0_zeta0", "tail_minus_2eta0_sq_zeta0"]
    return float(sum(tables[n][1].value for n in names))


def z0_slope_combination(tables: Dict[str, Tuple[float, QuadratureResult]]) -> float:
    """Log-slope of z0 from the unnormalized table entries.

    The slope formula applied to the z0 source gives
    -(2/pi) [I(w0) + 2 I(w0^2) + 4 I(w0 eta0) + 2 I(w0 eta0^2)
             + I(eta0^3) + I(eta0^4)/2]
    with I(.) = int psi0 (.) dx; the zeta(3) and pi^4 parts cancel and the
    value is -6 - pi^2/3.
    """
    coeffs = {"z0slope_w0": 1.0, "z0slope_w0_sq": 2.0, "z0slope_w0_eta0": 4.0,
              "z0slope_w0_eta0_sq": 2.0, "z0slope_eta0_cubed": 1.0,
              "z0slope_eta0_fourth": 0.5}
    return float(-2.0 / PI * sum(c * tables[n][1].value
                                 for n, c in coeffs.items()))
