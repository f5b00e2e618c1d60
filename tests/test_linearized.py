"""Linearized family: closed-form cross-checks and slope extraction."""

import numpy as np
import pytest

from mtlab import profiles as pf
from mtlab.linearized import (extract_log_slope, solve_linearized, source_w0,
                              source_wa, source_z0, source_za_minus_z0,
                              source_zeta0)
from mtlab.radial_ode import R_START

RS = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 400))


def test_w0_equation_reproduces_closed_form():
    sol = solve_linearized(source_w0, r_max=1e4)
    u, _ = sol.eval(RS)
    assert np.max(np.abs(u - pf.w0(RS))) < 1e-8


def test_zeta0_equation_reproduces_closed_form():
    sol = solve_linearized(source_zeta0, r_max=1e4)
    u, _ = sol.eval(RS)
    assert np.max(np.abs(u - pf.zeta0(RS))) < 1e-8


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_shifted_source_is_w0_minus_a_zeta0(a):
    sol = solve_linearized(source_wa(a), r_max=1e4)
    u, _ = sol.eval(RS)
    assert np.max(np.abs(u - (pf.w0(RS) - a * pf.zeta0(RS)))) < 1e-8


def test_z0_tail_slope():
    sol = solve_linearized(source_z0, r_max=1e6)
    beta, spread = extract_log_slope(sol)
    assert beta == pytest.approx(-6.0 - np.pi ** 2 / 3.0, abs=1e-2)
    assert spread < 0.05


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_tail_family_difference_slope_is_linear_in_a(a):
    sol = solve_linearized(source_za_minus_z0(a), r_max=1e6)
    beta, _ = extract_log_slope(sol)
    assert beta == pytest.approx(2.0 * a, abs=2e-2)


def test_extract_log_slope_validates_range():
    sol = solve_linearized(source_w0, r_max=1e4)
    with pytest.raises(ValueError):
        extract_log_slope(sol, r_lo=1e3, r_hi=1e4)  # window too narrow
    with pytest.raises(ValueError):
        extract_log_slope(sol, r_lo=1e2, r_hi=1e6)  # beyond the solution


def test_r_max_cap():
    with pytest.raises(ValueError):
        solve_linearized(source_w0, r_max=1e9)
    # the solve needs R_START < r_max; a NaN is rejected too, by name
    for r_max in (1e9, -1.0, 0.0, R_START, np.nan):
        with pytest.raises(ValueError, match="r_max"):
            solve_linearized(source_w0, r_max=r_max)


def test_w0_solve_work_is_pinned():
    # DOP853 at LINEARIZED_TOL takes 70 accepted steps and 1233 source calls
    calls = []

    def counted(r):
        calls.append(r)
        return source_w0(r)

    sol = solve_linearized(counted, r_max=2e3)
    assert len(calls) <= 1500
    assert len(sol.grid.t_nodes) - 1 <= 100
