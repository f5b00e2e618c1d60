"""Plane quadrature, the slope integral formula, and the integral tables."""

import numpy as np
import pytest

from mtlab import cli, quadrature
from mtlab import profiles as pf
from mtlab.linearized import source_w0, source_z0
from mtlab.quadrature import (TailBoundError, beta1_combination,
                              beta_from_source, integrate_plane,
                              z0_slope_combination)
from mtlab.radial_ode import IntegrationError


def test_integrate_plane_gaussian_like():
    # 2 pi int r/(1+r^2)^3 dr = pi/2
    res = integrate_plane(lambda r: (1.0 + r * r) ** -3.0)
    assert res.value == pytest.approx(np.pi / 2.0, abs=1e-10)
    assert res.abs_error < 1e-9


def test_integrate_plane_log_weighted():
    # 2 pi int log(1+r^2) r/(1+r^2)^3 dr = pi/4 (substitute s = 1+r^2,
    # then int_1^inf log(s)/s^3 ds = 1/4)
    res = integrate_plane(lambda r: np.log1p(r * r) * (1.0 + r * r) ** -3.0)
    assert res.value == pytest.approx(np.pi / 4.0, abs=1e-9)


def test_tail_bound_guards_slow_decay():
    # alone, and as one component of a vector whose other component decays
    slow = [lambda r: (1.0 + r * r) ** -1.5,
            lambda r: np.array([(1.0 + r * r) ** -3.0, (1.0 + r * r) ** -1.5])]
    for f in slow:
        with pytest.raises(TailBoundError):
            integrate_plane(f, tol=1e-10)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_integrate_plane_needs_a_finite_positive_tol(tol):
    # an infinite tolerance would accept any error bound; each is refused,
    # by value, before the quadrature
    with pytest.raises(ValueError, match=f"tol={tol}"):
        integrate_plane(lambda r: (1.0 + r * r) ** -3.0, tol=tol)


def test_unconverged_half_raises():
    # a fast oscillation on the inner disc needs more than the inner pass's
    # cap of 200 qk21 intervals
    with pytest.raises(IntegrationError, match="inner r < 1 half did not converge"):
        integrate_plane(lambda r: np.cos(3e3 * r) * (1.0 + r * r) ** -3.0)


def test_vector_integrand_matches_the_scalar_runs():
    # both closed forms as above; one pass shares the subintervals and
    # reports the max-norm error bound on every entry
    fs = [lambda r: (1.0 + r * r) ** -3.0,
          lambda r: np.log1p(r * r) * (1.0 + r * r) ** -3.0]
    vec = integrate_plane(lambda r: np.array([f(r) for f in fs]))
    assert vec.value.shape == vec.abs_error.shape == (2,)
    assert vec.abs_error[0] == vec.abs_error[1] < 1e-9
    assert isinstance(vec.nodes_used, int)
    for f, v, closed in zip(fs, vec.value, (np.pi / 2.0, np.pi / 4.0)):
        res = integrate_plane(f)
        assert abs(v - res.value) <= vec.abs_error[0] + res.abs_error
        assert abs(v - closed) <= vec.abs_error[0]


def test_tables_evaluate_each_profile_once_per_node(monkeypatch):
    # one array call per round of each half-range's pass, on whole qk21
    # intervals: a half's first round is its one starting interval, each
    # later round the two halves of every bisected interval; then one call
    # on the majorant's 32 samples
    sizes = []
    w0 = pf.w0

    def counted(r):
        assert isinstance(r, np.ndarray) and r.ndim == 1
        sizes.append(r.size)
        return w0(r)

    monkeypatch.setattr(pf, "w0", counted)
    tables = quadrature.integral_tables()
    nodes = {res.nodes_used for _, res in tables.values()}
    assert len(nodes) == 1
    assert sum(sizes) == nodes.pop() + 32
    assert sizes[-1] == 32
    intervals = [n // 21 for n in sizes[:-1]]
    assert [21 * m for m in intervals] == sizes[:-1]
    starts = [i for i, m in enumerate(intervals) if m == 1]
    assert len(starts) == 2 and starts[0] == 0
    assert all(m % 2 == 0 for m in intervals if m != 1)


def test_qk21_weights_integrate_monomials_exactly():
    # the 21-point Kronrod rule is exact to degree 31 and its embedded
    # 10-point Gauss rule to degree 19, on [-1, 1], up to a few ulp
    x = quadrature.GK_NODES
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        ulp = np.finfo(float).eps * 2.0 / (k + 1)  # of int |x|^k
        assert abs(quadrature.KRONROD_WEIGHTS @ x ** k - exact) <= 4 * ulp, k
        if k <= 19:
            assert abs(quadrature.GAUSS_WEIGHTS @ x[1::2] ** k - exact) <= 4 * ulp, k
    assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0)


@pytest.mark.parametrize("f", [
    lambda r: (1.0 + r * r) ** -3.0,
    lambda r: np.log1p(r * r) * (1.0 + r * r) ** -3.0,
    quadrature._table_integrand,
], ids=["gaussian-like", "log-weighted", "tables"])
def test_integrate_plane_agrees_with_quad_vec(f):
    # SciPy's adaptive Gauss-Kronrod pass, with the same halves, tolerances
    # and caps, is the reference; the two differ by no more than their bounds
    from scipy.integrate import quad_vec

    res = integrate_plane(f)
    kw = dict(epsabs=1e-10 / (8 * np.pi), epsrel=1e-13, norm="max")
    inner, err_in = quad_vec(lambda r: f(r) * r, 0.0, 1.0, limit=200, **kw)
    outer, err_out = quad_vec(lambda t: f(np.exp(t)) * np.exp(2.0 * t),
                              0.0, np.log(quadrature.R_CUT), limit=400, **kw)
    ref, ref_err = 2 * np.pi * (inner + outer), 2 * np.pi * (err_in + err_out)
    assert np.shape(res.value) == np.shape(ref)
    assert np.all(np.abs(res.value - ref) <= res.abs_error + ref_err)


@pytest.mark.parametrize("cut, half", [(0.5, "inner r < 1"), (5.0, "outer r > 1")])
def test_nan_integrand_raises_naming_the_half(cut, half):
    def f(r):
        return np.where(r > cut, np.nan, (1.0 + r * r) ** -3.0)

    with pytest.raises(IntegrationError, match=f"{half} half did not converge: non-finite"):
        integrate_plane(f)


def test_slope_formula_against_ode_w0():
    # the w0 source must give slope -2 (its tail is -2 log r)
    beta = beta_from_source(source_w0).value
    assert beta == pytest.approx(-2.0, abs=1e-9)


def test_slope_formula_against_ode_z0():
    beta = beta_from_source(source_z0).value
    assert beta == pytest.approx(-6.0 - np.pi ** 2 / 3.0, abs=1e-6)


def test_all_table_entries_match_closed_forms(tables):
    for name, (closed, res) in tables.items():
        assert res.value == pytest.approx(closed, rel=1e-8), name
        assert abs(res.value - closed) <= res.abs_error, name


def test_linear_slope_sum(tables):
    assert beta1_combination(tables) == pytest.approx(-2.0, abs=1e-8)


def test_quadratic_slope_cancellation(tables):
    # the quadratic part of the tail-family source is 2 (zeta0 + zeta0^2),
    # so its slope pairs two entries: 2 (I(-zeta0) - I(zeta0^2)) = 0
    beta2 = 2.0 * (tables["tail_minus_zeta0"][1].value
                   - tables["tail_zeta0_sq"][1].value)
    assert abs(beta2) < 1e-10


def test_z0_slope_combination_value(tables):
    assert z0_slope_combination(tables) == pytest.approx(
        -6.0 - np.pi ** 2 / 3.0, abs=1e-8)


def test_csv_rendering(tables, tmp_path, monkeypatch):
    # `mtlab tables` renders the session's tables through the shared CSV writer
    monkeypatch.setattr(quadrature, "integral_tables", lambda tol: tables)
    out = tmp_path / "t.csv"
    assert cli.main(["tables", "--output", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "name,closed_form_value,numeric_value,abs_error"
    assert len(lines) == 1 + 14 + 2
    assert lines[-2].startswith("combination_z0_slope,")
    assert lines[-1].startswith("combination_beta1_sum,")
