"""Perturbation families, derived h, decay checkers and scales."""

import numpy as np
import pytest

from mtlab.perturbations import (PerturbationSpec, check_conditions, delta_k,
                                 family_by_name, inverse_square_tail,
                                 log_power_family, oscillating_family,
                                 smooth_cutoff, trivial)

TS = np.exp(np.linspace(np.log(0.5), np.log(1e5), 500))


def test_smooth_cutoff_shape():
    assert smooth_cutoff(0.5) == 0.0
    assert smooth_cutoff(3.0) == 1.0
    mid = smooth_cutoff(np.linspace(1.01, 1.99, 50))
    assert np.all(np.diff(mid) > 0)


@pytest.mark.parametrize("spec", [log_power_family(a=1.0, p=3.0),
                                  log_power_family(a=1.0, p=3.0, q=1.5),
                                  oscillating_family(a=1.0, p=3.0)],
                         ids=["log-power-q0", "log-power-q1.5", "oscillating"])
def test_h_matches_finite_differences(spec):
    eps = 1e-6
    g_prime_fd = (spec.g(TS + eps) - spec.g(TS - eps)) / (2.0 * eps)
    h_fd = spec.g(TS) + g_prime_fd / (2.0 * TS)
    assert np.max(np.abs(spec.h(TS) - h_fd)) < 1e-6


def test_h_rejects_zero():
    h = log_power_family().h
    with pytest.raises(ValueError):
        h(0.0)
    with pytest.raises(ValueError):
        h(np.array([0.0, 1.0]))


def test_trivial_family_is_zero():
    spec = trivial()
    assert spec.sup_h == 0.0 and spec.inf_h == 0.0
    assert np.all(spec.h(TS) == 0.0)


def test_log_power_family_parameters():
    with pytest.raises(ValueError):
        log_power_family(p=2.0)
    with pytest.raises(ValueError):
        log_power_family(R=1.0)
    spec = log_power_family(a=1.0, p=3.0, q=1.5)
    assert np.all(spec.g(np.linspace(0.0, 2.0, 20)) == 0.0)  # below cutoff
    assert spec.g(100.0) == pytest.approx(np.log(100.0) ** 1.5 / 1e6, rel=1e-12)


def test_oscillating_family_sign_changes():
    spec = oscillating_family(a=1.0, p=3.0)
    vals = spec.g(np.exp(np.linspace(np.log(5.0), np.log(1e4), 200)))
    assert np.min(vals) < 0 < np.max(vals)


def test_inverse_square_tail_range():
    spec = inverse_square_tail(a=1.0)
    assert spec.inf_h == pytest.approx(-0.5, abs=1e-12)
    assert spec.h(10.0) == pytest.approx(-0.01, abs=1e-15)
    with pytest.raises(ValueError):
        inverse_square_tail(a=0.0)


def test_sup_inf_bounds_guard():
    with pytest.raises(ValueError):
        PerturbationSpec(h=lambda t: -1.5 * np.ones_like(np.asarray(t)))


def test_conditions_log_power_satisfied():
    reports = check_conditions(log_power_family(a=1.0, p=3.0))
    assert reports["condh1"].verdict == "satisfied"
    assert reports["condh2"].verdict == "satisfied"


def test_conditions_inverse_square_violated():
    reports = check_conditions(inverse_square_tail(a=1.0))
    assert reports["condh1"].verdict == "violated"


def test_delta_k_floor_and_monotone_input():
    spec = trivial()
    assert delta_k(8.0, spec) == pytest.approx(8.0 ** -6, rel=1e-12)
    with pytest.raises(ValueError):
        delta_k(1.0, spec)


def test_family_by_name():
    spec = family_by_name("inverse-square", a=2.0)
    assert spec.family_params["a"] == 2.0
    with pytest.raises(ValueError):
        family_by_name("unknown")
