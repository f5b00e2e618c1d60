"""Weighted planar integrals of radial functions and the log-slope formula.

``integrate_plane`` evaluates int_{R^2} f dx = 2 pi int_0^inf f(r) r dr for
radial integrands that decay at least like log^q(r) / r^4.  An integrand is
a scalar or a vector of integrands: one adaptive Gauss-Kronrod pass
(``scipy.integrate.quad_vec``) integrates every component on shared
subintervals, and its error bound is the max norm over the components.
The range is split at r = 1; the outer part is integrated in the log
coordinate and cut at ``R_CUT``, beyond which a closed-form majorant
C log^4(r) / r^3 bounds the remainder.  The majorant samples ``f`` on an
ndarray of radii, so ``f`` must accept one.

``beta_from_source`` implements the identity

    beta = -(2/pi) int_{R^2} (|x|^2-1)/(1+|x|^2)^3 f(x) dx

for the log-slope of solutions of -Delta w = 4 e^{2 eta0}(f + 2w), and
``integral_tables`` reproduces the fourteen tabulated weighted integrals
used in the energy expansions, as one vector integrand that evaluates each
profile once per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

import numpy as np
from scipy.integrate import quad_vec
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


def integrate_plane(f: Callable, tol: float = 1e-10) -> QuadratureResult:
    """Planar integral 2 pi int_0^inf f(r) r dr of a radial integrand.

    ``f`` returns a scalar or a 1-D vector of integrands at a float r, and
    must also accept an ndarray of radii (a vector integrand then returns
    one row per component), which the tail majorant samples in one call.
    The components share every adaptive subdivision, so the shared error
    bound is a max norm over them: a vector integrand gets arrays for
    ``value`` and ``abs_error``, every entry of the latter the shared bound.

    ``f`` must decay at least like log^4(r) / r^4; the remainder beyond
    ``R_CUT`` is bounded by an empirically calibrated majorant and must fit
    within tol/2 for every component, otherwise TailBoundError is raised.
    A half-range whose adaptive pass stops short of its tolerance raises
    IntegrationError.  A tolerance that is not finite and positive (NaN
    included) raises ValueError.
    """
    # written so that a NaN fails the test
    if not 0 < tol < np.inf:
        raise ValueError(f"need a finite positive tolerance, got tol={tol}")
    # inner disc in the radial variable, outer part in t = log r
    inner, err_in, info_in = quad_vec(lambda r: f(r) * r, 0.0, 1.0,
                                      epsabs=tol / (8 * PI), epsrel=1e-13,
                                      norm="max", limit=200, full_output=True)
    outer, err_out, info_out = quad_vec(
        lambda t: f(np.exp(t)) * np.exp(2.0 * t), 0.0, np.log(R_CUT),
        epsabs=tol / (8 * PI), epsrel=1e-13, norm="max", limit=400,
        full_output=True)
    for half, info, err in (("inner r < 1", info_in, err_in),
                            ("outer r > 1", info_out, err_out)):
        if not info.success:
            raise IntegrationError(f"quad_vec on the {half} half did not converge: "
                                   f"{info.message} (error {err:.3e})")

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
                            nodes_used=info_in.neval + info_out.neval)


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
