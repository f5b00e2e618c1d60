"""Constrained maximization: energies, invariants and multiplier limits."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros, roots_legendre

from mtlab import maximizer, shooting
from mtlab.analysis import branch_scan
from mtlab.maximizer import (ASCENT_TOL, GAUSS_ORDER, GAUSS_W, GAUSS_X,
                             NEWTON_FD_EPS, RadialField, _functional_gradient,
                             _gauss_arrays, _h1_inner, _h1_riesz, _hessian_bands,
                             _newton_trial, _project, _stationarity,
                             maximize_subcritical, multiplier_estimate_field,
                             parabolic_start, pointwise_moser_bound,
                             functional_value)
from mtlab.perturbations import PerturbationSpec, log_power_family, trivial
from mtlab.radial_ode import IntegrationError
from pin_maximizer_bits import PINNED, maximizer_bits

# a NaN from a masked-out log or an overflowing exp fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FOUR_PI = 4.0 * np.pi
BRANCH_FRACS = (0.5, 0.9, 0.999)


def _gradient(field, spec):
    """dF at the nodes, from the field's own Gauss-point u and e^{u^2}."""
    return _functional_gradient(field, *_gauss_arrays(field), spec.h)[0]


def _bands(field, spec):
    """The bands of H = F'' from the field's f' at the Gauss points and the cap."""
    fprime = _functional_gradient(field, *_gauss_arrays(field), spec.h)[1]
    return _hessian_bands(field, fprime, spec.h)


def lambda1_disk() -> float:
    """First Dirichlet eigenvalue of the unit disk, the squared Bessel root."""
    return float(jn_zeros(0, 1)[0] ** 2)


@pytest.fixture(scope="module")
def branch_roots():
    """The root of E(mu) = frac 4 pi for each frac, from one branch scan."""
    levels = [frac * FOUR_PI for frac in BRANCH_FRACS]
    # the grid brackets the maximum of E at mu* = 3.98
    scan = branch_scan(np.linspace(0.5, 6.0, 12), trivial(),
                       lambda_queries=levels)
    return {frac: scan.pairs[lam] for frac, lam in zip(BRANCH_FRACS, levels)}


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
    for n_nodes in (0, 1):  # no segment
        with pytest.raises(ValueError, match="two or more"):
            RadialField(np.zeros(n_nodes), np.zeros(n_nodes))


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
    with pytest.raises(ValueError, match="max_iter"):
        maximize_subcritical(0.5 * FOUR_PI, max_iter=0)


def test_half_critical_value_below_two_pi():
    res = maximize_subcritical(0.5 * FOUR_PI, n_nodes=1024)
    assert res.converged
    assert res.stationarity < ASCENT_TOL
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


@pytest.mark.parametrize("frac", BRANCH_FRACS)
def test_maximizer_converges_to_the_branch_value(frac, branch_roots):
    # Carleson-Chang: the maximizer at energy alpha is the radial critical
    # point on the shooting branch with E(mu) = alpha, so its value F_n on
    # n nodes approaches the branch's F from below at second order
    alpha = frac * FOUR_PI
    (root,) = branch_roots[frac]
    f_branch = shooting.functional_value(shooting.shoot(root, trivial()))
    gaps = []
    for n_nodes in (1024, 2048):
        res = maximize_subcritical(alpha, n_nodes=n_nodes, max_iter=600)
        assert res.converged
        gaps.append(f_branch - res.value)
    assert gaps[0] > 0.0 and gaps[1] > 0.0
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


@pytest.mark.parametrize("frac", BRANCH_FRACS)
def test_maximizer_multiplier_matches_the_branch(frac, branch_roots):
    # Carleson-Chang again: the identity multiplier of the stopped field is
    # the branch's lambda at the same energy, up to the stop and the mesh;
    # lambda_hat - lambda_branch reads +2.4e-6, +3.2e-7 and +1.5e-7
    bound = {0.5: 5e-6, 0.9: 5e-7, 0.999: 5e-7}[frac]
    (root,) = branch_roots[frac]
    lam_branch = np.exp(shooting.shoot(root, trivial()).log_lambda)
    res = maximize_subcritical(frac * FOUR_PI, n_nodes=4096, max_iter=600)
    assert res.converged
    assert abs(res.lambda_hat - lam_branch) <= bound


def test_multiplier_error_is_mesh_error_at_the_top_rung(branch_roots):
    # at 0.9 and 0.999 the Newton finish and the stop at 1e-8 leave
    # lambda_hat - lambda_branch to the mesh: one sign and about 4x smaller
    # per node doubling (at 0.9 it reads +1.3e-6, +3.2e-7, +8.0e-8; a stop
    # at 1e-6 flipped its sign at 8192 nodes)
    for frac in (0.9, 0.999):
        (root,) = branch_roots[frac]
        lam_branch = np.exp(shooting.shoot(root, trivial()).log_lambda)
        errors = [maximize_subcritical(frac * FOUR_PI, n_nodes=n_nodes,
                                       max_iter=600).lambda_hat - lam_branch
                  for n_nodes in (2048, 4096, 8192)]
        assert all(np.sign(e) == np.sign(errors[0]) != 0 for e in errors), frac
        assert abs(errors[0]) >= 3.0 * abs(errors[1]) >= 9.0 * abs(errors[2]), frac


@pytest.mark.parametrize("frac, budget", zip(BRANCH_FRACS, (10, 18, 30)))
def test_ascent_iteration_budget(frac, budget):
    # totals over both levels, 9, 12 and 25; a single-level ascent takes
    # 6, 9 and 21, and 18, 47 and 232 without its Newton finish
    res = maximize_subcritical(frac * FOUR_PI, n_nodes=4096, max_iter=600)
    assert res.converged
    assert res.iterations <= budget


@pytest.mark.parametrize("family", ["trivial", "log-power"])
def test_nested_levels_leave_the_fine_grid_a_newton_finish(family, monkeypatch):
    # at 4096 nodes the ascent runs on 512 nodes first; the interpolated
    # maximizer starts the fine level below NEWTON_SWITCH, so it takes
    # Newton steps and the stop (3, 3 and 4 iterations, against 6, 9 and
    # 21 from the parabolic start), and it stops at the single-level
    # maximizer: F to 2.5e-14 and lambda_hat to 4.8e-10
    spec = trivial() if family == "trivial" else log_power_family(a=1.0, p=3.0)
    levels = []
    ascend = maximizer._ascend

    def recorded(field, alpha, spec, max_iter):
        out = ascend(field, alpha, spec, max_iter)
        levels.append((len(field.t_nodes), out[2]))
        return out

    monkeypatch.setattr(maximizer, "_ascend", recorded)
    for frac, fine_budget in zip(BRANCH_FRACS, (3, 3, 4)):
        levels.clear()
        nested = maximize_subcritical(frac * FOUR_PI, spec, n_nodes=4096,
                                      max_iter=600)
        assert [n for n, _ in levels] == [512, 4096]
        assert levels[1][1] <= fine_budget
        assert nested.iterations == levels[0][1] + levels[1][1]
        with monkeypatch.context() as single_level:
            single_level.setattr(maximizer, "COARSE_MIN_NODES", 4096)
            levels.clear()
            single = maximize_subcritical(frac * FOUR_PI, spec, n_nodes=4096,
                                          max_iter=600)
        assert levels == [(4096, single.iterations)]
        assert nested.converged and single.converged
        assert abs(nested.value - single.value) <= 1e-12
        assert abs(nested.lambda_hat - single.lambda_hat) <= 3e-8


@pytest.mark.parametrize("n_nodes, max_iter", [
    pytest.param(1024, 1, id="1"), pytest.param(1024, 2, id="2"),
    pytest.param(1024, 7, id="7"), pytest.param(1024, 600, id="600"),
    pytest.param(4096, 5, id="4096-5")])
def test_result_measures_the_returned_field(n_nodes, max_iter):
    # the stop's (lambda, sin theta) come from the ascent's last measurement;
    # when max_iter ends the ascent after a step, the field is measured
    # again, and at 4096 nodes the 512-node level uses up a budget of 5,
    # so the requested grid is measured without an iteration
    res = maximize_subcritical(0.9 * FOUR_PI, n_nodes=n_nodes, max_iter=max_iter)
    assert res.converged == (max_iter == 600)
    assert res.iterations <= max_iter
    assert len(res.field.t_nodes) == n_nodes
    assert (res.lambda_hat, res.stationarity) == multiplier_estimate_field(
        res.field, trivial())


def test_rejected_newton_trials_leave_the_steepest_ascent_path(monkeypatch):
    # a Newton trial that lowers F is discarded: the ascent then takes
    # exactly the steepest-ascent iterations, each trial counted
    alpha = 0.9 * FOUR_PI
    with monkeypatch.context() as no_newton:
        no_newton.setattr(maximizer, "NEWTON_SWITCH", 0.0)
        ascent_only = maximize_subcritical(alpha, n_nodes=1024)
    calls = []

    def lower_trial(field, grad, hessian, lam, alpha):
        calls.append(field)
        shrunk = field.copy()
        shrunk.values *= 0.5
        return shrunk

    monkeypatch.setattr(maximizer, "_newton_trial", lower_trial)
    res = maximize_subcritical(alpha, n_nodes=1024)
    assert calls
    assert res.converged
    assert res.value == ascent_only.value
    assert res.iterations == ascent_only.iterations
    assert res.evaluations == ascent_only.evaluations + len(calls)


def test_maximizer_bits_are_pinned():
    """Every pinned output of tests/pin_maximizer_bits.py's runs (value,
    lambda_hat, iterations, evaluations, stationarity and the field's
    nodal values) is the one that script wrote, bit for bit.

    The values come from this platform's libm and NumPy: on another
    platform a last bit may move, and rerunning the script there pins
    that platform's values.
    """
    assert maximizer_bits() == json.loads(PINNED.read_text())


def test_gauss_rule_is_scipys():
    # the written-out nodes and weights are roots_legendre's, bit for bit
    # on the platform the pins were written on, as the pins are
    x, w = roots_legendre(GAUSS_ORDER)
    assert np.array_equal(GAUSS_X, x) and np.array_equal(GAUSS_W, w)


@pytest.mark.parametrize("frac, n_nodes, max_iter", [
    pytest.param(0.999, 4096, 600, id="0.999-4096"),
    pytest.param(0.9, 1024, 7, id="0.9-1024-budget")])
def test_each_field_is_evaluated_once(frac, n_nodes, max_iter, monkeypatch):
    # g runs once per F evaluation (the start and every trial); h runs once
    # per gradient, for f'(uq), and once more per Newton trial, for the
    # bands' f'(uq + eps): each field's u, e^{u^2} and f'(u) at the Gauss
    # points are evaluated once and shared, the budget's re-measure included
    base = log_power_family(a=1.0, p=3.0)
    calls = {"g": 0, "h": 0, "gradients": 0, "newton": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def on_gauss_points(name, fn):
        def wrapper(t):
            calls[name] += np.ndim(t) == 2 and np.shape(t)[1] == GAUSS_ORDER
            return fn(t)
        return wrapper

    spec = PerturbationSpec(h=on_gauss_points("h", base.h), point=base.point,
                            g=on_gauss_points("g", base.g))
    monkeypatch.setattr(maximizer, "_h1_riesz", counted("gradients", _h1_riesz))
    monkeypatch.setattr(maximizer, "_newton_trial",
                        counted("newton", maximizer._newton_trial))
    res = maximize_subcritical(frac * FOUR_PI, spec, n_nodes=n_nodes,
                               max_iter=max_iter)
    assert res.converged == (max_iter == 600)
    assert calls["newton"] > 0
    assert calls["g"] == res.evaluations
    assert calls["h"] == calls["gradients"] + calls["newton"]


def test_perturbed_maximization_increases_value():
    alpha = 0.9 * FOUR_PI
    plain = maximize_subcritical(alpha, n_nodes=1024)
    pert = maximize_subcritical(alpha, log_power_family(a=1.0, p=3.0),
                                n_nodes=1024)
    # g >= 0 pointwise, so the perturbed supremum cannot be smaller
    assert pert.value >= plain.value - 1e-9


def test_ascent_fails_loudly_on_nan_g():
    # a NaN functional value used to end the line search as "converged"
    spec = PerturbationSpec(h=np.zeros_like, g=lambda t: np.full_like(t, np.nan),
                            point=lambda t: 0.0)
    with pytest.raises(IntegrationError, match="non-finite functional value"):
        maximize_subcritical(0.5 * FOUR_PI, spec, n_nodes=256)


def _stiffness(t):
    """Dense stiffness of 2 pi sum (du_i)^2 / dt_i on the free nodes: free
    at the inner node, Dirichlet at the outer one."""
    w = 2.0 * np.pi / np.diff(t)
    A = np.diag(w) + np.diag(np.append(0.0, w[:-1]))
    return A - np.diag(w[:-1], 1) - np.diag(w[:-1], -1)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 80))
def test_h1_riesz_solves_the_stiffness_system(data, n_seg):
    dt = np.array(data.draw(st.lists(st.floats(1e-2, 1.0), min_size=n_seg,
                                     max_size=n_seg)))
    rhs = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_seg + 1,
                                      max_size=n_seg + 1)))
    t = np.append(-np.cumsum(dt[::-1])[::-1], 0.0)
    d = _h1_riesz(RadialField(t, np.zeros(n_seg + 1)), rhs)
    ref = np.linalg.solve(_stiffness(t), rhs[:-1])
    assert d[-1] == 0.0
    assert np.max(np.abs(d[:-1] - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300)


def _draw_field(data, n_seg):
    """A positive field on a random non-uniform grid of ``n_seg`` segments."""
    dt = np.array(data.draw(st.lists(st.floats(1e-2, 1.0), min_size=n_seg,
                                     max_size=n_seg)))
    u = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n_seg + 1,
                                    max_size=n_seg + 1)))
    return RadialField(np.append(-np.cumsum(dt[::-1])[::-1], 0.0), u)


def _exact_sin_theta(field, grad, d):
    """sin theta = |tau| / |d| with tau = d - (u.G / E) u, every sum exact."""
    w = [Fraction(x) for x in field.plan().w]
    u, grad, d = ([Fraction(x) for x in v] for v in (field.values, grad, d))

    def inner(a, b):
        return sum(wi * (a[i] - a[i + 1]) * (b[i] - b[i + 1])
                   for i, wi in enumerate(w))

    coeff = sum(ui * gi for ui, gi in zip(u, grad)) / inner(u, u)
    tau = [di - coeff * ui for di, ui in zip(d, u)]
    return float(np.sqrt(float(inner(tau, tau) / inner(d, d))))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 80))
def test_stationarity_is_the_h1_angle(data, n_seg):
    # on a random non-uniform grid, sin theta of u against d = A^{-1} dF
    # in the H^1 inner product x^T A y
    field = _draw_field(data, n_seg)
    _, sin_theta = multiplier_estimate_field(field, trivial())
    A = _stiffness(field.t_nodes)
    uu = field.values[:-1]
    d = np.linalg.solve(A, _gradient(field, trivial())[:-1])
    cos2 = (uu @ A @ d) ** 2 / ((uu @ A @ uu) * (d @ A @ d))
    assert sin_theta == pytest.approx(np.sqrt(max(1.0 - cos2, 0.0)),
                                      rel=1e-9, abs=1e-7)
    # d = u + 1e-10 p: there 1 - cos^2 rounds to 0, while the tangent
    # norm still measures the angle of order 1e-10
    p = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_seg + 1,
                                    max_size=n_seg + 1)))
    near = np.append(field.values[:-1] + 1e-10 * p[:-1], 0.0)
    grad = np.append(A @ near[:-1], 0.0)
    _, sin_near, _ = _stationarity(field, grad, near)
    assert sin_near == pytest.approx(_exact_sin_theta(field, grad, near),
                                     rel=1e-4, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 80))
def test_h1_inner_product_identities(data, n_seg):
    # the tangent projection and the conjugacy rest on <u, u> = E and
    # <u, d> = u.G for d the Riesz representative of G = dF
    field = _draw_field(data, n_seg)
    grad = _gradient(field, trivial())
    u = field.values
    assert _h1_inner(field, u, u) == pytest.approx(field.energy(), rel=1e-10)
    assert _h1_inner(field, u, _h1_riesz(field, grad)) == pytest.approx(
        np.dot(u, grad), rel=1e-10)


def _kkt_step(field, grad, nu, alpha, diag, off):
    """Dense reference for the retracted Newton step: the full KKT matrix
    [[H - 2 nu A, -b], [b^T, 0]] with b = 2 A u, solved by LU."""
    A = _stiffness(field.t_nodes)
    u = field.values[:-1]
    b = 2.0 * A @ u
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    kkt = np.block([[H - 2.0 * nu * A, -b[:, None]], [b[None, :], np.zeros((1, 1))]])
    rhs = np.append(nu * b - grad[:-1], alpha - field.energy())
    step = field.copy()
    step.values[:-1] += np.linalg.solve(kkt, rhs)[:-1]
    _project(step, alpha)
    return step.values


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 40))
def test_newton_step_solves_the_kkt_system(data, n_seg):
    # the banded solve with two right-hand sides and the scalar border is
    # the dense KKT solve; H is drawn negative and diagonally dominant
    field = _draw_field(data, n_seg)
    grad = _gradient(field, trivial())
    nu = data.draw(st.floats(0.01, 1.0))
    alpha = data.draw(st.floats(0.5, 2.0)) * field.energy()
    diag = np.array(data.draw(st.lists(st.floats(-2e3, -1e3), min_size=n_seg,
                                       max_size=n_seg)))
    off = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_seg - 1,
                                      max_size=n_seg - 1)))
    trial = _newton_trial(field, grad, (diag, off), 1.0 / nu, alpha)
    ref = _kkt_step(field, grad, nu, alpha, diag, off)
    assert trial.values[-1] == 0.0
    assert np.max(np.abs(trial.values - ref)) <= 1e-9 * np.max(np.abs(ref))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 40))
def test_hessian_bands_match_the_exact_second_derivative(data, n_seg):
    # trivial family: F'' is (2 + 4 u^2) e^{u^2}, assembled with the Gauss
    # rule of F and its gradient, plus the inner cap at node 0
    field = _draw_field(data, n_seg)
    t, u = field.t_nodes, field.values
    x, w = roots_legendre(GAUSS_ORDER)
    mid, half = 0.5 * (t[:-1] + t[1:]), 0.5 * np.diff(t)
    tq, wq = mid[:, None] + half[:, None] * x, half[:, None] * w
    frac = (t[1:, None] - tq) / np.diff(t)[:, None]
    uq = frac * u[:-1, None] + (1.0 - frac) * u[1:, None]
    f2 = 2.0 * np.pi * (2.0 + 4.0 * uq * uq) * np.exp(uq * uq) * np.exp(2.0 * tq) * wq
    diag = np.zeros(len(u))
    diag[:-1] += np.sum(f2 * frac ** 2, axis=1)
    diag[1:] += np.sum(f2 * (1.0 - frac) ** 2, axis=1)
    diag[0] += np.pi * np.exp(2.0 * t[0]) * (2.0 + 4.0 * u[0] ** 2) * np.exp(u[0] ** 2)
    off = np.sum(f2 * frac * (1.0 - frac), axis=1)[:-1]
    got_diag, got_off = _bands(field, trivial())
    scale = np.max(np.abs(diag))
    assert np.max(np.abs(got_diag - diag[:-1])) <= 1e-5 * scale
    assert np.max(np.abs(got_off - off), initial=0.0) <= 1e-5 * scale


def _coloured_bands(field, spec):
    """Reference bands: one forward difference of the nodal gradient per
    colour c of nodes c, c+3, c+6, ..., which share no row of the
    tridiagonal H (Curtis, Powell & Reid)."""
    u = field.values
    n = len(u) - 1
    eps = NEWTON_FD_EPS * max(1.0, float(np.max(np.abs(u))))
    grad = _gradient(field, spec)
    diag, off = np.empty(n), np.empty(n - 1)
    probe = field.copy()
    for c in range(3):
        probe.values[:] = u
        probe.values[c:n:3] += eps
        quotient = (_gradient(probe, spec) - grad) / eps
        diag[c::3] = quotient[c:n:3]
        off[c::3] = quotient[c + 1:n:3]
    return diag, off


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_seg=st.integers(1, 40))
def test_hessian_bands_match_the_coloured_differences_with_h(data, n_seg):
    # log-power family (R = 2) with u(r_min) = 3 and u up to 4.5: the Gauss
    # points cross the cutoff's bridge 2 < u < 4 and its tail, where
    # h != 0, while the bands never form h'
    spec = log_power_family(a=1.0, p=3.0)
    dt = np.array(data.draw(st.lists(st.floats(1e-2, 1.0), min_size=n_seg,
                                     max_size=n_seg)))
    u = np.append(3.0, data.draw(st.lists(st.floats(0.1, 4.5), min_size=n_seg,
                                          max_size=n_seg)))
    field = RadialField(np.append(-np.cumsum(dt[::-1])[::-1], 0.0), u)
    diag, off = _coloured_bands(field, spec)
    got_diag, got_off = _bands(field, spec)
    scale = np.max(np.abs(diag))
    assert np.max(np.abs(got_diag - diag)) <= 1e-5 * scale
    assert np.max(np.abs(got_off - off), initial=0.0) <= 1e-5 * scale
