"""Energy scans, residual hierarchy, thresholds, branch and concentration."""

from types import SimpleNamespace

import numpy as np
import pytest

from mtlab import analysis
from mtlab.analysis import (FOUR_PI, SLACK, branch_scan, energy_scan,
                            residual_hierarchy, threshold_a, verify_branch_root)
from mtlab.perturbations import inverse_square_tail, log_power_family
from mtlab.radial_ode import IntegrationError
from mtlab.shooting import EventNotReachedError, shoot


def test_energy_scan_unperturbed_coefficients(trivial_spec):
    scan = energy_scan([6.0, 12.0], trivial_spec)
    assert list(scan.mu_values) == [6.0, 12.0]
    # c(mu) decreases toward its limit and stays an O(1) quantity
    assert scan.c_values[1] < scan.c_values[0]
    assert 10.0 < scan.c_values[1] < 50.0
    assert np.allclose(scan.c_values,
                       scan.inner_coeffs + scan.outer_coeffs, atol=1e-8)
    assert scan.window == (FOUR_PI - 0.5, 6.0 * np.pi + 0.5)


def test_energy_scan_window_shift_inverse_square():
    scan = energy_scan([8.0], inverse_square_tail(a=1.0))
    lo, hi = scan.window
    assert lo == pytest.approx(-0.5, abs=1e-12)


def test_energy_scan_records_failures(trivial_spec):
    scan = energy_scan([6.0, 30.0], trivial_spec)
    assert 30.0 in scan.failures
    assert list(scan.mu_values) == [6.0]


@pytest.mark.parametrize("tol", [1e-15, 0.0, -1e-11, float("nan")])
def test_energy_scan_rejects_tol_below_the_floor(monkeypatch, trivial_spec, tol):
    # rejected before any shot instead of recorded as a failure per mu
    def no_shot(*args, **kwargs):
        raise AssertionError("shoot called")

    monkeypatch.setattr(analysis, "shoot", no_shot)
    with pytest.raises(ValueError, match="the floor 100 eps"):
        energy_scan([6.0, 7.0], trivial_spec, tol=tol)


def test_residual_hierarchy_first_order(trivial_spec):
    rep = residual_hierarchy(8.0, trivial_spec)
    assert rep.sup_w_err < 0.05
    assert rep.sup_z_err < 0.05
    assert not rep.perturbed
    assert rep.delta == pytest.approx(8.0 ** -6)


def test_residual_hierarchy_perturbed():
    rep = residual_hierarchy(8.0, log_power_family(a=1.0, p=3.0))
    assert rep.perturbed
    assert rep.phi_over_xi < 10.0
    assert rep.delta > 8.0 ** -6


def test_threshold_bisection():
    res = threshold_a(8.0, a_tol=5e-3)
    assert res.c_lo > 0 > res.c_hi
    assert 0.9 < res.a_crit < 2.5
    # sup h = 0 for the tail family, so the window is the same for every a
    assert res.predicted_window == (1.0, 1.5)


def test_branch_scan_finds_supremum_and_roots(trivial_spec):
    mus = np.linspace(2.0, 7.0, 11)
    scan = branch_scan(mus, trivial_spec, level_fractions=(0.5,))
    assert scan.lambda_star > FOUR_PI
    assert 3.0 < scan.mu_star < 5.0
    (lam, roots), = scan.pairs.items()
    assert len(roots) >= 2
    for mu in roots[:2]:
        gap, resid = verify_branch_root(mu, lam)
        assert gap <= SLACK["branch_root_tol"]
        assert resid <= SLACK["residual_bound"]


def test_branch_scan_out_of_range_level(trivial_spec):
    scan = branch_scan(np.linspace(2.5, 5.5, 7), trivial_spec,
                       lambda_queries=(20.0,))
    assert scan.pairs[20.0] == []
    assert "at or above Lambda*" in scan.notes[20.0]


def test_branch_root_bisection_is_bounded(monkeypatch):
    # E peaks inside the grid at mu = 2 and jumps across the level at
    # mu = 2.5, so no point ever lands within the root tolerance; the root
    # search must give up instead of spinning
    calls = []

    def fake_shoot(mu, spec, tol=None):
        calls.append(mu)
        if len(calls) > 1000:
            raise RuntimeError("bisection did not stop")
        peak = 1.0 - 0.01 * abs(mu - 2.0)
        return SimpleNamespace(energy_total=FOUR_PI + (peak if mu < 2.5 else 0.0))

    monkeypatch.setattr(analysis, "shoot", fake_shoot)
    with pytest.raises(IntegrationError, match="misses the level"):
        branch_scan([1.0, 2.0, 3.0, 4.0], lambda_queries=[FOUR_PI + 0.5])
    assert len(calls) < 1000


def test_searches_fail_loudly_on_nan_energy(monkeypatch):
    # energies are finite on the grid and at the threshold bracket ends but
    # NaN in between: the maximum and the sign-change search must raise
    # IntegrationError, not return a value or SciPy's ValueError
    def fake_shoot(mu, spec, tol=None):
        if "a" in spec.family_params:  # threshold: c = 1 - a at mu = 1
            a = spec.family_params["a"]
            energy, inside = FOUR_PI + 1.0 - a, a not in (0.25, 3.0)
        else:
            energy, inside = FOUR_PI + 1.0 - abs(mu - 2.0), mu % 1.0 != 0.0
        return SimpleNamespace(energy_total=np.nan if inside else energy)

    monkeypatch.setattr(analysis, "shoot", fake_shoot)
    with pytest.raises(IntegrationError, match="maximum of E"):
        branch_scan([1.0, 2.0, 3.0, 4.0], lambda_queries=[FOUR_PI + 0.5])
    with pytest.raises(IntegrationError, match="non-finite"):
        threshold_a(1.0)


def test_branch_scan_records_nan_grid_energy(monkeypatch):
    # a grid shot with a NaN energy is a failure, not a silently missing point
    def fake_shoot(mu, spec, tol=None):
        energy = np.nan if mu == 3.0 else FOUR_PI + 1.0 - abs(mu - 2.0)
        return SimpleNamespace(energy_total=energy)

    monkeypatch.setattr(analysis, "shoot", fake_shoot)
    scan = branch_scan([1.0, 2.0, 3.0, 4.0])
    assert [mu for mu, _ in scan.points] == [1.0, 2.0, 4.0]
    assert list(scan.failures) == [3.0]
    assert "non-finite" in scan.failures[3.0]


def test_branch_scan_raises_when_every_grid_shot_fails(monkeypatch):
    def fake_shoot(mu, spec, tol=None):
        if mu == 2.0:
            return SimpleNamespace(energy_total=np.nan)
        raise EventNotReachedError(f"no event at mu={mu}")

    monkeypatch.setattr(analysis, "shoot", fake_shoot)
    with pytest.raises(IntegrationError, match="every grid shot failed") as exc:
        branch_scan([1.0, 2.0, 3.0])
    for mu in ("mu=1", "mu=2", "mu=3"):
        assert mu in str(exc.value)


def test_threshold_rejects_nonpositive_tolerance(monkeypatch):
    # a zero tolerance would ask for a bracket narrower than adjacent floats
    calls = []

    def fake_shoot(mu, spec, tol=None):
        calls.append(spec)
        if len(calls) > 1000:
            raise RuntimeError("threshold search did not stop")
        a = spec.family_params["a"]
        return SimpleNamespace(energy_total=FOUR_PI + (1.2 - a) / mu ** 4)

    monkeypatch.setattr(analysis, "shoot", fake_shoot)
    for a_tol in (0.0, -1e-3):
        with pytest.raises(ValueError, match="a_tol"):
            threshold_a(12.0, a_tol=a_tol)
    assert calls == []


def _count_shoots(monkeypatch):
    calls = []

    def counting_shoot(*args, **kwargs):
        calls.append(args[0])
        return shoot(*args, **kwargs)

    monkeypatch.setattr(analysis, "shoot", counting_shoot)
    return calls


def test_branch_scan_shoot_count(monkeypatch, trivial_spec):
    # criterion-11 grid: 11 grid shots, the bounded maximum and two roots
    calls = _count_shoots(monkeypatch)
    scan = branch_scan(np.linspace(2.0, 7.0, 11), trivial_spec,
                       level_fractions=(0.5,))
    assert len(scan.pairs) == 1 and len(next(iter(scan.pairs.values()))) == 2
    assert len(calls) <= 40


def test_threshold_shoot_count(monkeypatch):
    calls = _count_shoots(monkeypatch)
    res = threshold_a(12.0)
    assert 1.0 < res.a_crit < 1.5
    assert len(calls) <= 6
