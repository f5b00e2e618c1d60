"""Constrained maximization: energies, invariants and multiplier limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mtlab import shooting
from mtlab.maximizer import (RadialField, _h1_riesz, lambda1_disk,
                             maximize_subcritical, multiplier_estimate_field,
                             parabolic_start, pointwise_moser_bound,
                             functional_value)
from mtlab.perturbations import PerturbationSpec, log_power_family, trivial
from mtlab.radial_ode import IntegrationError

FOUR_PI = 4.0 * np.pi


def test_lambda1_value():
    # j_{0,1}^2 with j_{0,1} = 2.404825557695773
    assert lambda1_disk() == pytest.approx(5.783185962946785, rel=1e-14)


def test_field_energy_exact_for_logarithm():
    # u = -t/sqrt(const) is linear in t; energy 2 pi sum (du)^2/dt is exact
    t = np.linspace(np.log(1e-4), 0.0, 100)
    f = RadialField(t, -t)
    assert f.energy() == pytest.approx(2.0 * np.pi * (-t[0]), rel=1e-12)


def test_field_validation():
    with pytest.raises(ValueError):
        RadialField(np.array([-1.0, -2.0, 0.0]), np.zeros(3))  # not increasing
    with pytest.raises(ValueError):
        RadialField(np.array([-1.0, -0.5]), np.zeros(2))       # last not at 0


def test_functional_value_constant_free_case():
    # u = 0 gives F = pi (area of the unit disk)
    t = np.linspace(np.log(1e-8), 0.0, 64)
    f = RadialField(t, np.zeros(64))
    assert functional_value(f, trivial()) == pytest.approx(np.pi, rel=1e-12)


def test_starts_satisfy_constraint():
    assert parabolic_start(2.0).energy() == pytest.approx(2.0, rel=1e-12)


def test_maximize_rejects_supercritical():
    with pytest.raises(ValueError):
        maximize_subcritical(FOUR_PI)
    with pytest.raises(ValueError):
        maximize_subcritical(0.0)


def test_half_critical_value_below_two_pi():
    res = maximize_subcritical(0.5 * FOUR_PI, n_nodes=1024)
    assert res.converged
    assert res.value <= 2.0 * np.pi + 1e-6
    assert res.value > np.pi  # beats the zero field


def test_multiplier_approaches_first_eigenvalue():
    lams = []
    for frac in (0.02, 0.005):
        res = maximize_subcritical(frac * FOUR_PI, n_nodes=1024)
        lam, resid = multiplier_estimate_field(res.field, trivial())
        assert resid < 0.05
        assert lam < lambda1_disk()
        lams.append(lam)
    assert lams[1] > lams[0]  # increasing toward the eigenvalue
    assert lambda1_disk() - lams[1] < 0.1


def test_moser_bound_holds():
    res = maximize_subcritical(0.9 * FOUR_PI, n_nodes=1024)
    report = pointwise_moser_bound(res)
    assert report.holds
    assert report.first_violation_r is None


@pytest.mark.parametrize("frac", [0.5, 0.9, 0.999])
def test_maximizer_converges_to_the_branch_value(frac):
    # Carleson-Chang: the maximizer at energy alpha is the radial critical
    # point on the shooting branch with E(mu) = alpha, so its value F_n on
    # n nodes approaches the branch's F from below at second order
    alpha = frac * FOUR_PI
    spec = trivial()
    root = brentq(lambda mu: shooting.shoot(mu, spec).energy_total - alpha,
                  0.1, 3.9)
    f_branch = shooting.functional_value(shooting.shoot(root, spec))
    gaps = []
    for n_nodes in (1024, 2048):
        res = maximize_subcritical(alpha, n_nodes=n_nodes, max_iter=600)
        assert res.converged
        gaps.append(f_branch - res.value)
    assert gaps[0] > 0.0 and gaps[1] > 0.0
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def test_perturbed_maximization_increases_value():
    alpha = 0.9 * FOUR_PI
    plain = maximize_subcritical(alpha, n_nodes=1024)
    pert = maximize_subcritical(alpha, log_power_family(a=1.0, p=3.0),
                                n_nodes=1024)
    # g >= 0 pointwise, so the perturbed supremum cannot be smaller
    assert pert.value >= plain.value - 1e-9


def test_ascent_fails_loudly_on_nan_g():
    # a NaN functional value used to end the line search as "converged"
    spec = PerturbationSpec(h=np.zeros_like, g=lambda t: np.full_like(t, np.nan))
    with pytest.raises(IntegrationError, match="non-finite functional value"):
        maximize_subcritical(0.5 * FOUR_PI, spec, n_nodes=256)


def test_multiplier_estimate_rejects_nonuniform_grid():
    t = np.linspace(np.log(1e-8), 0.0, 1024)
    lam, _ = multiplier_estimate_field(RadialField(t, 1.0 - np.exp(2.0 * t)),
                                       trivial())
    assert 4.0 < lam < 5.0
    # two uniform pieces with different spacings: the single-spacing second
    # difference would return a meaningless estimate here (about 0)
    t2 = np.concatenate([np.linspace(np.log(1e-8), -2.0, 500, endpoint=False),
                         np.linspace(-2.0, 0.0, 524)])
    with pytest.raises(ValueError, match="uniform"):
        multiplier_estimate_field(RadialField(t2, 1.0 - np.exp(2.0 * t2)),
                                  trivial())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 80))
def test_h1_riesz_solves_the_stiffness_system(data, n_seg):
    dt = np.array(data.draw(st.lists(st.floats(1e-2, 1.0), min_size=n_seg,
                                     max_size=n_seg)))
    rhs = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_seg + 1,
                                      max_size=n_seg + 1)))
    t = np.append(-np.cumsum(dt[::-1])[::-1], 0.0)
    d = _h1_riesz(RadialField(t, np.zeros(n_seg + 1)), rhs)
    # stiffness of 2 pi sum (du_i)^2 / dt_i, free at the inner node,
    # Dirichlet at the outer one
    w = 2.0 * np.pi / np.diff(t)
    A = np.diag(w) + np.diag(np.append(0.0, w[:-1]))
    A -= np.diag(w[:-1], 1) + np.diag(w[:-1], -1)
    ref = np.linalg.solve(A, rhs[:-1])
    assert d[-1] == 0.0
    assert np.max(np.abs(d[:-1] - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300)
