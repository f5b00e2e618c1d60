"""Closed-form profiles: values, derivatives, and defining equations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtlab import profiles as pf

RS = np.exp(np.linspace(np.log(1e-3), np.log(1e5), 300))


def _fd_derivative(fn, r, h=1e-6):
    return (fn(r * (1.0 + h)) - fn(r * (1.0 - h))) / (2.0 * r * h)


def test_dilog_special_values():
    assert pf.dilog_integral(0.0) == 0.0
    assert pf.dilog_integral(1.0) == pytest.approx(-np.pi ** 2 / 12.0, abs=1e-15)
    # asymptotics: spence(x) ~ -log^2(x)/2 - pi^2/6 for large x
    big = 1e8
    expect = -0.5 * np.log(1.0 + big ** 2) ** 2 - np.pi ** 2 / 6.0
    assert pf.dilog_integral(big) == pytest.approx(expect, rel=1e-6)


def test_dilog_rejects_bad_input():
    with pytest.raises(ValueError):
        pf.dilog_integral(-1.0)
    with pytest.raises(ValueError):
        pf.dilog_integral(np.inf)


def test_eta0_solves_liouville():
    # -Delta eta0 = 4 e^{2 eta0}, with Delta f = f'' + f'/r
    r = RS
    d2 = _fd_derivative(pf.eta0_prime, r)
    lap = d2 + pf.eta0_prime(r) / r
    assert np.max(np.abs(-lap - 4.0 * np.exp(2.0 * pf.eta0(r)))) < 1e-4


def test_w0_values_at_origin_and_one():
    assert pf.w0(0.0) == pytest.approx(0.0, abs=1e-14)
    # w0(1) = -log 2 + 1 - log^2(2)/2 (the dilog prefactor vanishes)
    expect = -np.log(2.0) + 1.0 - 0.5 * np.log(2.0) ** 2
    assert pf.w0(1.0) == pytest.approx(expect, abs=1e-14)


def test_w0_solves_its_equation():
    r = RS
    d2 = _fd_derivative(pf.w0_prime, r)
    lap = d2 + pf.w0_prime(r) / r
    rhs = 4.0 * np.exp(2.0 * pf.eta0(r)) * (
        pf.eta0(r) + pf.eta0(r) ** 2 + 2.0 * pf.w0(r))
    assert np.max(np.abs(-lap - rhs)) < 1e-4


def test_w0_tail_slope():
    # w0 = -2 log r + O(1), so r w0' -> -2
    assert pf.w0_prime(1e6) * 1e6 == pytest.approx(-2.0, abs=1e-4)


def test_zeta0_closed_form_and_equation():
    r = RS
    assert np.allclose(pf.zeta0(r), -1.0 + 1.0 / (1.0 + r * r), atol=1e-15)
    d2 = _fd_derivative(pf.zeta0_prime, r)
    lap = d2 + pf.zeta0_prime(r) / r
    rhs = 4.0 * np.exp(2.0 * pf.eta0(r)) * (1.0 + 2.0 * pf.zeta0(r))
    assert np.max(np.abs(-lap - rhs)) < 1e-4


def test_psi_is_radial_eigenfunction():
    # psi'' = 4 (1 - 3 r^2)/(1+r^2)^3 in closed form, so
    # Delta psi = (8 - 8 r^2)/(1+r^2)^3 = -8 e^{2 eta0} psi exactly
    r = RS
    one = 1.0 + r * r
    lap = 4.0 * (1.0 - 3.0 * r * r) / one ** 3 + (4.0 * r / one ** 2) / r
    assert np.max(np.abs(-lap - 8.0 * np.exp(2.0 * pf.eta0(r)) * pf.psi(r))) < 1e-13


def test_psi0_sign_change_at_one():
    assert pf.psi0(0.5) < 0 < pf.psi0(2.0)
    assert pf.psi0(1.0) == 0.0


def test_xi_gauge():
    assert pf.xi(0.0) == 1.0
    assert pf.xi(np.e - 1.0) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("fn, deriv_fn", [
    (pf.eta0, pf.eta0_prime),
    (pf.w0, pf.w0_prime),
    (pf.zeta0, pf.zeta0_prime),
], ids=["eta0", "w0", "zeta0"])
def test_profile_derivative_consistency(fn, deriv_fn):
    r = np.exp(np.linspace(np.log(1e-2), np.log(1e3), 100))
    deriv = deriv_fn(r)
    fd = _fd_derivative(fn, r)
    scale = 1.0 + np.abs(deriv)
    assert np.max(np.abs(deriv - fd) / scale) < 1e-5


FORMULA_PROFILES = ["eta0", "eta0_prime", "w0", "w0_prime", "zeta0",
                    "zeta0_prime", "psi", "psi0", "xi"]


@pytest.mark.parametrize("name", FORMULA_PROFILES)
@given(r=st.floats(min_value=0.0, max_value=1e9))
def test_float_path_is_the_array_formula(name, r):
    # one formula serves both: a float gives a scalar, never a 0-d array,
    # with the bits of the same radius inside an array
    fn = getattr(pf, name)
    value = fn(float(r))
    assert not isinstance(value, np.ndarray)
    expect = fn(np.array([r]))[0]
    assert value == expect
