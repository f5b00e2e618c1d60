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


def test_unconverged_half_raises():
    # a fast oscillation on the inner disc exhausts quad_vec's subintervals
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
    # one call per quadrature node plus the majorant's one array call
    calls = []
    w0 = pf.w0

    def counted(r):
        calls.append(r)
        return w0(r)

    monkeypatch.setattr(pf, "w0", counted)
    tables = quadrature.integral_tables()
    nodes = {res.nodes_used for _, res in tables.values()}
    assert len(nodes) == 1
    assert len(calls) <= nodes.pop() + 1


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
