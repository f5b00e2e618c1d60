"""Perturbation families, derived h, decay checkers and scales."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab.perturbations import (PerturbationSpec, check_conditions, delta_k,
                                 family_by_name, inverse_square_tail,
                                 log_power_family, oscillating_family,
                                 trivial)

# a NaN from a masked-out log or an overflowing exp fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TS = np.exp(np.linspace(np.log(0.5), np.log(1e5), 500))

# (t, h(t), g(t)) of the cutoff families as evaluated by the NumPy array
# formula that the scalar kernel of h replaced, at t = R, 1.01R, 1.5R,
# 1.99R, 2R, 10 and 1e4 (R = 2)
CUTOFF_VALUES = {
    "log-power-q0": (log_power_family, {}, [
        (2.0, 0.0, 0.0),
        (2.02, 1.5347363402167704e-41, 1.239307266670578e-44),
        (3.0, 0.021604938271604937, 0.018518518518518517),
        (3.98, 0.01435971779525045, 0.015861738428766647),
        (4.0, 0.01416015625, 0.015625),
        (10.0, 0.000985, 0.001),
        (10000.0, 9.99999985e-13, 1e-12)]),
    "log-power-q1.5": (log_power_family, {"q": 1.5}, [
        (2.0, 0.0, 0.0),
        (2.02, 9.050004344770909e-42, 7.306381371256768e-45),
        (3.0, 0.026495754097330394, 0.021324208440610965),
        (3.98, 0.02419410024378959, 0.02574982175662416),
        (4.0, 0.02397509004248601, 0.025503701170925718),
        (10.0, 0.00345297571497997, 0.003494005087826986),
        (10000.0, 2.795204030609668e-11, 2.7952040702615884e-11)]),
    "oscillating": (oscillating_family, {}, [
        (2.0, 0.0, 0.0),
        (2.02, 1.170664759363152e-41, 9.453969347864291e-45),
        (3.0, 0.008910394894743885, 0.008422822644937216),
        (3.98, 0.0022134046487275235, 0.002988067865231238),
        (4.0, 0.0021177854136447787, 0.0028665152303640894),
        (10.0, -0.000661898389222246, -0.0006682015101903132),
        (10000.0, -9.7709621508078e-13, -9.770962286732338e-13)]),
}


def test_smooth_cutoff_shape():
    # g = a chi(t/R) t^{-p} for the log-power family with q = 0, so the
    # cutoff chi shows in g t^p / a
    a, p, R = 1.5, 3.0, 2.0
    spec = log_power_family(a=a, p=p, R=R)
    assert np.all(spec.g(np.linspace(0.0, R, 20)) == 0.0)
    tail = np.array([2.0 * R, 3.0 * R, 10.0, 1e4])
    assert spec.g(tail) == pytest.approx(a * tail ** -p, rel=1e-15)
    mid = np.linspace(1.01 * R, 1.99 * R, 50)
    chi = spec.g(mid) * mid ** p / a
    assert np.all(np.diff(chi) > 0)
    assert 0.0 < chi[0] and chi[-1] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("name", sorted(CUTOFF_VALUES))
def test_point_matches_the_array_formula_it_replaced(name):
    family, params, values = CUTOFF_VALUES[name]
    spec = family(**params)
    for t, h, g in values:
        assert spec.point(t) == pytest.approx(h, rel=1e-13, abs=0.0), t
        assert float(spec.g(t)) == pytest.approx(g, rel=1e-13, abs=0.0), t


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["trivial", "log-power", "oscillating",
                               "inverse-square"]),
       a=st.floats(0.1, 2.0), p=st.floats(2.1, 5.0), q=st.floats(0.0, 3.0),
       R=st.floats(2.0, 5.0),
       t=st.floats(1e-3, 20.0) | st.floats(20.0, 1e6))
def test_point_agrees_with_the_array_h_and_g(family, a, p, q, R, t):
    spec = {"trivial": trivial,
            "log-power": lambda: log_power_family(a=a, p=p, q=q, R=R),
            "oscillating": lambda: oscillating_family(a=a, p=p, R=R),
            "inverse-square": lambda: inverse_square_tail(a=a)}[family]()
    h = spec.point(t)
    assert isinstance(h, float)
    # NumPy's pow and exp round apart from the C library's by an ulp
    assert h == pytest.approx(float(spec.h(t)), rel=1e-15, abs=0.0)
    if family in ("log-power", "oscillating"):
        # the array g: 0 up to R, and its formula with chi = 1 from 2R on
        g = float(spec.g(t))
        if t <= R:
            assert g == 0.0
        else:
            core = np.log(t) ** q if family == "log-power" else np.cos(np.log(t))
            tail = a * core * t ** -p
            if t >= 2.0 * R:
                assert g == pytest.approx(tail, rel=1e-15, abs=0.0)
            else:
                assert 0.0 <= g / tail <= 1.0 + 1e-15  # chi, rounded
    elif family == "trivial":
        assert float(spec.g(t)) == 0.0
    else:
        assert spec.g is None


@pytest.mark.parametrize("name, spec", [("log-power-q0", log_power_family()),
                                        ("log-power-q1.5", log_power_family(q=1.5)),
                                        ("oscillating", oscillating_family(R=3.0))],
                         ids=["log-power-q0", "log-power-q1.5", "oscillating"])
def test_cutoff_arrays_agree_with_point(name, spec):
    # x = |t| / R at the bridge's ends, around 1 and 2, inside and beyond
    # the bridge, at t and -t (g is even); arrays of 0, 1 and 2 dimensions
    R = spec.family_params["R"]
    x = np.array([0.5, np.nextafter(1.0, 0.0), 1.0, 1.0 + 1e-15, 1.0 + 1e-9,
                  1.01, 1.5, 1.99, 2.0 - 1e-9, 2.0 - 1e-15, 2.0,
                  np.nextafter(2.0, 3.0), 2.01, 10.0, 1e4])
    t = np.concatenate([x * R, -x * R])
    ref = np.array([spec.point(float(v)) for v in t])
    g_ref = np.array([float(spec.g(v)) for v in t])
    for shape in ((len(t),), (2, len(t) // 2)):
        h, g = spec.h(t.reshape(shape)), spec.g(t.reshape(shape))
        assert h.shape == g.shape == shape
        np.testing.assert_allclose(h.ravel(), ref, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(g.ravel(), g_ref, rtol=1e-15, atol=0.0)
    for v, h in zip(t, ref):
        assert np.shape(spec.h(v)) == np.shape(spec.g(v)) == ()
        assert float(spec.h(v)) == pytest.approx(h, rel=1e-15, abs=0.0)
    # the array g of the tabulated family against the table
    family, params, values = CUTOFF_VALUES[name]
    t_tab, _, g_tab = np.array(values).T
    np.testing.assert_allclose(family(**params).g(t_tab), g_tab, rtol=1e-13, atol=0.0)
    # shooting.functional_value reads g(0.0); h is undefined there
    assert spec.g(0.0) == 0.0
    with pytest.raises(ValueError, match="undefined at t = 0"):
        spec.h(0.0)


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


@pytest.mark.parametrize("param", ["a", "R"])
@pytest.mark.parametrize("bad", [0.0, -2.0, np.nan, np.inf])
def test_inverse_square_tail_rejects_bad_parameters(param, bad):
    # a NaN passes a plain `<= 0` check, and R = inf froze h at 0, the
    # trivial family; R = 0 and R = -2 used to fail only through inf_h
    with pytest.raises(ValueError, match=f"{param}={bad}"):
        inverse_square_tail(**{"a": 1.0, param: bad})


def test_sup_inf_bounds_guard():
    with pytest.raises(ValueError):
        PerturbationSpec(h=lambda t: -1.5 * np.ones_like(np.asarray(t)),
                         point=lambda t: -1.5)


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
