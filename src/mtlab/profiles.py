"""Closed-form limit profiles of the radial blow-up analysis.

All profiles are radial functions of r = |x| on the plane.  The bubble

    eta0(r) = -log(1 + r^2)

solves the Liouville equation -Delta eta0 = 4 exp(2 eta0).  The first-order
correction ``w0`` has an explicit formula involving the dilogarithm-type
integral ``dilog_integral``; the remaining profiles (zeta0, psi, psi0, xi)
are elementary rational/logarithmic expressions.

eta0, w0 and zeta0 also have closed-form first radial derivatives
(``eta0_prime``, ``w0_prime``, ``zeta0_prime``) for tail asymptotics (the
quantity r * f'(r)).

Every profile takes a float or a float ndarray r >= 0 and applies its
formula, written once, to it as given: a float gives a scalar (no 0-d
array is built, which on one radius costs more than the formula) and an
array gives an array of its shape.  Only ``dilog_integral`` converts and
validates its argument.
"""

from __future__ import annotations

import numpy as np
from scipy.special import spence

__all__ = [
    "dilog_integral",
    "eta0",
    "eta0_prime",
    "w0",
    "w0_prime",
    "zeta0",
    "zeta0_prime",
    "psi",
    "psi0",
    "xi",
]


def dilog_integral(r):
    """Integral of log(t)/(1-t) over [1, 1+r^2].

    The integrand has a removable singularity at t = 1 (limit -1).  The
    value equals the real dilogarithm transform ``spence(1 + r^2)``, which
    scipy evaluates to full double precision; r = 1 gives -pi^2/12.
    """
    r = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(r)) or np.any(r < 0):
        raise ValueError("dilog_integral requires finite r >= 0")
    return spence(1.0 + r * r)


def eta0(r):
    """Standard bubble -log(1 + r^2)."""
    return -np.log1p(r * r)


def eta0_prime(r):
    return -2.0 * r / (1.0 + r * r)


def w0(r):
    """First-order correction profile (explicit formula).

    w0(r) = eta0 + 2 r^2/(1+r^2) - eta0^2/2
            + (1-r^2)/(1+r^2) * dilog_integral(r),

    the unique zero-Cauchy-data solution of
    -Delta w0 = 4 e^{2 eta0} (eta0 + eta0^2 + 2 w0).
    """
    r2 = r * r
    e = -np.log1p(r2)
    return e + 2.0 * r2 / (1.0 + r2) - 0.5 * e * e \
        + (1.0 - r2) / (1.0 + r2) * spence(1.0 + r2)


def w0_prime(r):
    """Analytic radial derivative of ``w0`` (term-by-term differentiation).

    The integral term differentiates by the Leibniz rule:
    d/dr dilog_integral(r) = 2 eta0(r) / r, with limit 0 at r = 0.
    """
    r2 = r * r
    one = 1.0 + r2
    e = -np.log1p(r2)
    # derivative of the prefactor (1-r^2)/(1+r^2)
    dpref = -4.0 * r / (one * one)
    # (1-r^2)/(1+r^2) * d/dr spence(1+r^2); the quotient 2*eta0/r is
    # regular at 0 (~ -2r)
    with np.errstate(invalid="ignore", divide="ignore"):
        dint_over = np.where(r > 0.0, 2.0 * e / np.where(r > 0.0, r, 1.0), -2.0 * r)
    return (-2.0 * r / one
            + 4.0 * r / (one * one)
            - e * (-2.0 * r / one)
            + dpref * spence(1.0 + r2)
            + (1.0 - r2) / one * dint_over)


def zeta0(r):
    """zeta0(r) = -1 + 1/(1+r^2) = -r^2/(1+r^2)."""
    return -r * r / (1.0 + r * r)


def zeta0_prime(r):
    one = 1.0 + r * r
    return -2.0 * r / (one * one)


def psi(r):
    """psi(r) = (r^2-1)/(1+r^2); solves -Delta psi = 8 e^{2 eta0} psi."""
    r2 = r * r
    return (r2 - 1.0) / (1.0 + r2)


def psi0(r):
    """Weight (r^2-1)/(1+r^2)^3 of the log-slope integral formula."""
    r2 = r * r
    one = 1.0 + r2
    # a product, not ``** 3``: NumPy's array pow and the C library's scalar
    # pow differ in the last bit on some radii, a product rounds alike
    return (r2 - 1.0) / (one * one * one)


def xi(r):
    """Growth gauge xi(r) = 1 + log(1 + r)."""
    return 1.0 + np.log1p(r)

