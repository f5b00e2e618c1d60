"""Weighted planar integrals of radial functions and the log-slope formula.

``integrate_plane`` evaluates int_{R^2} f dx = 2 pi int_0^inf f(r) r dr for
radial integrands that decay at least like log^q(r) / r^4.  The range is
split at r = 1; the outer part is integrated in the log coordinate and cut
at ``R_CUT``, beyond which a closed-form majorant C log^4(r) / r^3 bounds
the remainder.

``beta_from_source`` implements the identity

    beta = -(2/pi) int_{R^2} (|x|^2-1)/(1+|x|^2)^3 f(x) dx

for the log-slope of solutions of -Delta w = 4 e^{2 eta0}(f + 2w), and
``integral_tables`` reproduces the fourteen tabulated weighted integrals
used in the energy expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta

from . import profiles as pf

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


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error: float
    nodes_used: int

    def __post_init__(self):
        if self.abs_error < 0:
            raise ValueError("abs_error must be non-negative")


class TailBoundError(RuntimeError):
    """The analytic tail bound could not be pushed below tol/2."""


def _tail_integral(r_cut: float) -> float:
    """Closed form of int_{r_cut}^inf log^4(r) / r^3 dr."""
    L = np.log(r_cut)
    return np.exp(-2.0 * L) * (0.5 * L ** 4 + L ** 3 + 1.5 * L ** 2 + 1.5 * L + 0.75)


def integrate_plane(f: Callable, tol: float = 1e-10) -> QuadratureResult:
    """Planar integral 2 pi int_0^inf f(r) r dr of a radial integrand.

    ``f`` must decay at least like log^4(r) / r^4; the remainder beyond
    ``R_CUT`` is bounded by an empirically calibrated majorant and must fit
    within tol/2, otherwise TailBoundError is raised.  A tolerance that is
    not positive (NaN included) raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"need a positive tolerance, got tol={tol}")
    # inner disc in the radial variable, outer part in t = log r
    inner, err_in, info_in = quad(lambda r: f(r) * r, 0.0, 1.0,
                                  epsabs=tol / (8 * PI), epsrel=1e-13,
                                  limit=200, full_output=True)[:3]
    outer, err_out, info_out = quad(
        lambda t: f(np.exp(t)) * np.exp(2.0 * t), 0.0, np.log(R_CUT),
        epsabs=tol / (8 * PI), epsrel=1e-13, limit=400,
        full_output=True)[:3]

    # majorant constant from samples near the cut
    rs = np.exp(np.linspace(np.log(R_CUT) - np.log(4.0), np.log(R_CUT), 32))
    fs = np.abs(np.asarray([f(r) for r in rs], dtype=float))
    c_maj = float(np.max(fs * rs ** 4 / np.log(rs) ** 4))
    tail = 2.0 * PI * 2.0 * c_maj * _tail_integral(R_CUT)  # factor-2 slack
    if tail > tol / 2.0:
        raise TailBoundError(
            f"tail bound {tail:.3e} beyond R_CUT={R_CUT:.3e} exceeds tol/2={tol / 2:.3e}")

    value = 2.0 * PI * (inner + outer)
    abs_error = 2.0 * PI * (err_in + err_out) + tail
    nodes = int(info_in["neval"] + info_out["neval"])
    return QuadratureResult(value=value, abs_error=abs_error, nodes_used=nodes)


def beta_from_source(f: Callable, tol: float = 1e-10) -> float:
    """Log-slope beta of the solution with source f, via the weighted integral.

    beta = -(2/pi) int psi0 f dx with psi0 = (r^2-1)/(1+r^2)^3.
    """
    res = integrate_plane(lambda r: pf.psi0(r) * f(r), tol=tol * PI / 2.0)
    return -2.0 / PI * res.value


# (name, integrand against psi0, closed-form value) -- the first six are
# unnormalized integrals int psi0 * (...) dx feeding the z0 log-slope; the
# last eight are (2/pi)-normalized entries of the inverse-square-tail table.
def _z0slope_entries():
    e, w = pf.eta0, pf.w0
    return [
        ("z0slope_eta0_cubed", lambda r: e(r) ** 3, -21.0 * PI / 4.0),
        ("z0slope_eta0_fourth", lambda r: e(r) ** 4, 45.0 * PI / 2.0),
        ("z0slope_w0", lambda r: w(r), PI ** 3 / 18.0 - 7.0 * PI / 12.0),
        ("z0slope_w0_eta0", lambda r: w(r) * e(r),
         (125.0 / 72.0 - 2.0 / 3.0 * ZETA3) * PI - 2.0 / 27.0 * PI ** 3),
        ("z0slope_w0_eta0_sq", lambda r: w(r) * e(r) ** 2,
         (16.0 / 9.0 * ZETA3 - 409.0 / 54.0) * PI + 35.0 / 162.0 * PI ** 3 + PI ** 5 / 45.0),
        ("z0slope_w0_sq", lambda r: w(r) ** 2,
         (625.0 / 216.0 - 4.0 / 9.0 * ZETA3) * PI - PI ** 3 / 81.0 - PI ** 5 / 45.0),
    ]


def _tail_table_entries():
    e, w, z = pf.eta0, pf.w0, pf.zeta0
    return [
        ("tail_zeta0_sq", lambda r: z(r) ** 2, 1.0 / 3.0),
        ("tail_minus_2w0", lambda r: -2.0 * w(r), 7.0 / 3.0 - 2.0 * PI ** 2 / 9.0),
        ("tail_eta0", lambda r: e(r), -1.0),
        ("tail_minus_eta0_sq", lambda r: -e(r) ** 2, -3.0),
        ("tail_minus_zeta0", lambda r: -z(r), 1.0 / 3.0),
        ("tail_minus_4w0_zeta0", lambda r: -4.0 * w(r) * z(r),
         -67.0 / 27.0 + 2.0 * PI ** 2 / 9.0),
        ("tail_minus_4eta0_zeta0", lambda r: -4.0 * e(r) * z(r), -34.0 / 9.0),
        ("tail_minus_2eta0_sq_zeta0", lambda r: -2.0 * e(r) ** 2 * z(r), 151.0 / 27.0),
    ]


def integral_tables(tol: float = 1e-10) -> Dict[str, Tuple[float, QuadratureResult]]:
    """All fourteen tabulated weighted integrals.

    Returns a mapping name -> (closed_form_value, QuadratureResult).  Names
    prefixed ``z0slope_`` are unnormalized int psi0 * (...) dx; names prefixed
    ``tail_`` carry the (2/pi) normalization of the inverse-square-tail table.
    """
    out: Dict[str, Tuple[float, QuadratureResult]] = {}
    for name, g, closed in _z0slope_entries():
        res = integrate_plane(lambda r, g=g: pf.psi0(r) * g(r), tol=tol)
        out[name] = (closed, res)
    for name, g, closed in _tail_table_entries():
        res = integrate_plane(lambda r, g=g: pf.psi0(r) * g(r), tol=tol * PI / 2.0)
        out[name] = (closed, QuadratureResult(
            value=2.0 / PI * res.value,
            abs_error=2.0 / PI * res.abs_error,
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
