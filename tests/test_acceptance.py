"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` to see one line per
criterion.  Criteria 6, 7 and 8 encode asymptotic mu -> infinity windows
(the neglected corrections are of order log^2(mu)/mu^2 with large
constants); they are implemented exactly as stated, checked at mu <= 12,
and expected to fail there.  That scale is a choice of this suite, not a
precision limit: shooting accepts mu up to the constant MU_MAX = 24, where
the boundary radius has log R = 287.5 and is kept on log scale.  See notes
in the repository history for the supporting analysis.
"""

import time

import numpy as np
import pytest

from mtlab import profiles as pf
from mtlab.analysis import (FOUR_PI, branch_scan, residual_hierarchy,
                            threshold_a, verify_branch_root)
from mtlab.linearized import (extract_log_slope, solve_linearized, source_w0,
                              source_wa, source_z0)
from mtlab.maximizer import (maximize_subcritical, multiplier_estimate_field,
                             pointwise_moser_bound)
from mtlab.perturbations import (check_conditions, inverse_square_tail,
                                 log_power_family, trivial)
from mtlab.quadrature import (beta1_combination, beta_from_source,
                              z0_slope_combination)
from mtlab.shooting import comparison_eta0, pde_residual, shoot

Z0_SLOPE = -6.0 - np.pi ** 2 / 3.0
RS_1000 = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 500))


def test_criterion_01_first_order_ode_matches_closed_form():
    t0 = time.perf_counter()
    sol = solve_linearized(source_w0, r_max=2e3)
    u, _ = sol.eval(RS_1000)
    elapsed = time.perf_counter() - t0
    assert np.max(np.abs(u - pf.w0(RS_1000))) <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_first_order_tail_slope():
    assert 1e6 * pf.w0_prime(1e6) == pytest.approx(-2.0, abs=1e-4)


def test_criterion_03_second_order_slope_two_routes():
    sol = solve_linearized(source_z0, r_max=1e6)
    slope_ode, spread = extract_log_slope(sol)
    slope_int = beta_from_source(source_z0).value
    assert slope_ode == pytest.approx(Z0_SLOPE, abs=1e-3)
    assert slope_int == pytest.approx(Z0_SLOPE, abs=1e-6)
    assert abs(slope_ode - slope_int) <= spread + 1e-6


def test_criterion_04_integral_tables(tables):
    for name, (closed, res) in tables.items():
        assert res.value == pytest.approx(closed, rel=1e-8), name
    assert beta1_combination(tables) == pytest.approx(-2.0, abs=1e-8)
    # quadratic-in-amplitude slope: the two zeta0 entries cancel
    beta2 = 2.0 * (tables["tail_minus_zeta0"][1].value
                   - tables["tail_zeta0_sq"][1].value)
    assert abs(beta2) <= 1e-10
    assert z0_slope_combination(tables) == pytest.approx(Z0_SLOPE, abs=1e-8)


def test_criterion_05_shifted_profile_identity():
    for a in (0.5, 1.0, 3.0):
        sol = solve_linearized(source_wa(a), r_max=2e3)
        u, _ = sol.eval(RS_1000)
        diff = u - pf.w0(RS_1000)
        assert np.max(np.abs(diff - (-a) * pf.zeta0(RS_1000))) <= 1e-8, a


def test_criterion_06_energy_expansion_window(shots, trivial_spec):
    for mu in (6.0, 8.0, 10.0, 12.0):
        t0 = time.perf_counter()
        sol = shoot(mu, trivial_spec)
        assert time.perf_counter() - t0 < 10.0
        c = mu ** 4 * (sol.energy_total - FOUR_PI)
        inner = mu ** 4 * (sol.energy_inner - FOUR_PI)
        assert FOUR_PI - 0.5 <= c <= 6.0 * np.pi + 0.5, f"c({mu}) = {c}"
        assert abs(inner - FOUR_PI) <= 0.5, f"inner({mu}) = {inner}"
        assert sol.energy_outer <= (2.0 * np.pi + 0.5) / mu ** 4, \
            f"outer({mu}) = {sol.energy_outer}"


def test_criterion_07_residual_hierarchy(trivial_spec):
    reports = {mu: residual_hierarchy(mu, trivial_spec)
               for mu in (6.0, 8.0, 10.0, 12.0)}
    # first-order rate: halving 1/mu^2 must shrink the sup accordingly
    ratio = (6.0 / 12.0) ** 2
    assert reports[12.0].sup_w_err <= ratio * reports[6.0].sup_w_err * 2.0
    # weighted remainder: common bound with no increasing trend
    vals = [reports[mu].phi_over_xi for mu in (6.0, 8.0, 10.0, 12.0)]
    assert max(vals) < 100.0
    increasing = [b > a * 1.05 for a, b in zip(vals, vals[1:])]
    assert not any(increasing), f"phi/xi increases across mu: {vals}"


def test_criterion_08_perturbed_expansion_window():
    spec = log_power_family(a=1.0, p=3.0)
    reports = check_conditions(spec)
    assert reports["condh1"].verdict == "satisfied"
    assert reports["condh2"].verdict == "satisfied"
    hi = FOUR_PI + 2.0 * np.pi * (1.0 + spec.sup_h) + 0.5
    for mu in (8.0, 12.0):
        sol = shoot(mu, spec)
        c = mu ** 4 * (sol.energy_total - FOUR_PI)
        assert FOUR_PI - 0.5 <= c <= hi, f"c({mu}) = {c} not in window ending {hi}"


def test_criterion_09_critical_tail_threshold():
    one = inverse_square_tail(a=1.0)
    sol = shoot(12.0, one)
    c = 12.0 ** 4 * (sol.energy_total - FOUR_PI)
    hi = 2.0 * np.pi * (1.0 + one.sup_h) + 0.5
    assert -0.5 <= c <= hi
    three = inverse_square_tail(a=3.0)
    for mu in (10.0, 12.0, 14.0):
        assert shoot(mu, three).energy_total < FOUR_PI
    res = threshold_a(12.0)
    sup_h = inverse_square_tail(a=res.a_crit).sup_h
    assert 0.9 <= res.a_crit <= 1.5 + 0.5 * sup_h + 0.1


def test_criterion_10_profile_below_bubble(shots):
    for mu in (6.0, 10.0):
        for spec in (trivial(), inverse_square_tail(a=1.0)):
            sol = shots[mu] if spec.name == "trivial" else shoot(mu, spec, profile=True)
            assert comparison_eta0(sol).holds


def test_criterion_11_branch_multiplicity(trivial_spec):
    scan = branch_scan(np.linspace(2.0, 7.0, 11), trivial_spec,
                       level_fractions=(0.5,))
    assert scan.lambda_star > FOUR_PI
    (lam, roots), = scan.pairs.items()
    assert len(roots) >= 2 and roots[0] != roots[-1]
    for mu in (roots[0], roots[-1]):
        gap, resid = verify_branch_root(mu, lam, trivial_spec)
        assert gap <= 1e-6
        assert resid <= 1e-7
    assert shoot(0.1, trivial_spec).energy_total < 0.5


def test_criterion_12_maximizer():
    half = maximize_subcritical(0.5 * FOUR_PI)
    assert half.value <= 2.0 * np.pi + 1e-6
    near = maximize_subcritical(0.9 * FOUR_PI)
    lam, _ = multiplier_estimate_field(near.field, trivial())
    assert 0.0 < lam < 5.7832
    top = maximize_subcritical(0.999 * FOUR_PI, max_iter=600)
    assert top.value > np.pi * (1.0 + np.e)
    for res in (half, near, top):
        assert pointwise_moser_bound(res).holds
    doubled = maximize_subcritical(0.9 * FOUR_PI, n_nodes=8192)
    assert abs(doubled.value - near.value) <= 1e-5
