"""Linearized family: closed-form cross-checks and slope extraction."""

import numpy as np
import pytest

from mtlab import linearized
from mtlab import profiles as pf
from mtlab import radial_ode
from mtlab.linearized import (LINEARIZED_TOL, extract_log_slope, solve_linearized,
                              source_w0, source_wa, source_z0)
from mtlab.radial_ode import R_START

RS = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 400))


def source_zeta0(r):
    """f = 1 (produces zeta0 = -1 + 1/(1+r^2))."""
    return 1.0


def source_za_minus_z0(a):
    """Source of the difference z_a - z0 for the inverse-square tail family.

    f = 2 a^2 (zeta0 + zeta0^2)
        + a (eta0 - eta0^2 - 2 w0 + zeta0 (-2 eta0^2 - 4 eta0 - 4 w0 - 1)).
    """

    def f(r):
        e = pf.eta0(r)
        w = pf.w0(r)
        z = pf.zeta0(r)
        return 2.0 * a * a * (z + z * z) \
            + a * (e - e * e - 2.0 * w + z * (-2.0 * e * e - 4.0 * e - 4.0 * w - 1.0))

    return f


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
    # the window ends at SLOPE_R_HI = 1e6, beyond this solution
    sol = solve_linearized(source_w0, r_max=1e4)
    with pytest.raises(ValueError, match="SLOPE_R_HI"):
        extract_log_slope(sol)


def test_r_max_cap():
    with pytest.raises(ValueError):
        solve_linearized(source_w0, r_max=1e9)
    # the solve needs R_START < r_max; a NaN is rejected too, by name
    for r_max in (1e9, -1.0, 0.0, R_START, np.nan):
        with pytest.raises(ValueError, match="r_max"):
            solve_linearized(source_w0, r_max=r_max)


def test_w0_solve_work_is_pinned():
    # from the fitted start at r = 1e-2, DOP853 at LINEARIZED_TOL takes 60
    # accepted steps, and the solve makes 1076 source calls with the fit's
    # (70 steps and 1233 calls from r = 1e-6)
    calls = []

    def counted(r):
        calls.append(r)
        return source_w0(r)

    sol = solve_linearized(counted, r_max=2e3)
    assert len(calls) == sol.nfev <= 1500
    assert sol.accepted_steps == len(sol.grid.t_nodes) - 1 <= 100


def test_r_max_below_the_top_start():
    # r_max = 5e-3 lies below the ladder's top rung 1e-2, so the solve starts
    # a rung lower; below that start w0 is the fitted series
    sol = solve_linearized(source_w0, r_max=5e-3)
    assert sol.t_min == np.log(1e-3)
    r = np.exp(np.linspace(np.log(1e-6), np.log(5e-3), 50))
    u, v = sol.eval(r)
    assert np.max(np.abs(u - pf.w0(r))) < 1e-12
    assert np.max(np.abs(v - r * pf.w0_prime(r))) < 1e-12


@pytest.mark.parametrize("source", [source_w0, source_z0, source_wa(1.0)],
                         ids=["w0", "z0", "w_a"])
def test_start_state_matches_a_tight_solve(monkeypatch, source):
    # the w0 rates start at r^4 (its source vanishes at the origin), which the
    # absolute check handles; the start agrees with a solve at tolerance
    # 1e-13 from r = 1e-9 within the solve's atol
    sol = solve_linearized(source, r_max=2e3)
    with monkeypatch.context() as m:
        m.setattr(radial_ode, "START_LADDER", (1e-9,))
        m.setattr(linearized, "LINEARIZED_TOL", 1e-13)
        tight = solve_linearized(source, r_max=2e3)
    miss = np.abs(sol.eval_state_t(sol.t_min) - tight.eval_state_t(sol.t_min))
    assert np.all(miss <= LINEARIZED_TOL)
