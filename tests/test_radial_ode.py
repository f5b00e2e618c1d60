"""Log-radius initial-value integration against closed-form solutions."""

import warnings

import numpy as np
import pytest

from mtlab import profiles as pf
from mtlab.radial_ode import MIN_RTOL, R_START, NoCrossingError, solve


def liouville_state(t, y):
    # -Delta eta = 4 e^{2 eta}, solution eta0 = -log(1+r^2); a third state,
    # when present, accumulates the planar mass 2 pi int 4 e^{2 eta} r^2 dt
    f = 4.0 * np.exp(2.0 * t + 2.0 * min(y[0], 0.0))
    return np.array([y[1], -f, 2.0 * np.pi * f])[:len(y)]


def liouville_solve(t_end, rtol=1e-12, atol=1e-12, **kw):
    return solve(liouville_state, -4.0, t_end, rtol, atol, **kw)


def test_series_start_matches_taylor():
    sol = liouville_solve(np.log(1e3))
    # eta0 ~ -r^2 with Delta eta0(0) = -4
    assert sol.t_min == np.log(R_START)
    assert sol.values[0] == pytest.approx(-1e-12, rel=1e-6)
    assert sol.r_derivs[0] == pytest.approx(-2e-12, rel=1e-6)


def test_liouville_bubble_reproduced():
    sol = liouville_solve(np.log(1e5))
    r = np.exp(np.linspace(np.log(1e-3), np.log(1e4), 200))
    u, v = sol.eval(r)
    assert np.max(np.abs(u - pf.eta0(r))) < 1e-8
    assert np.max(np.abs(v - r * pf.eta0_prime(r))) < 1e-8


def test_aux_state_accumulates_mass():
    # d(mass)/dt = 2 pi r^2 * 4 e^{2 eta}; total planar mass of the bubble
    # is 2 pi int 4 r / (1+r^2)^2 dr = 4 pi
    sol = liouville_solve(np.log(1e6), aux={"mass": 0.0})
    mass = sol.aux("mass", sol.eval_state_t(sol.t_max))
    assert mass == pytest.approx(4.0 * np.pi, abs=1e-8)


def test_event_location():
    sol = liouville_solve(20.0, level=-np.log(101.0))
    # eta0 = -log(101) at r = 10
    assert np.exp(sol.t_event) == pytest.approx(10.0, rel=1e-9)
    assert sol.t_max == sol.t_event


def test_marks_without_dense_output():
    # each reached mark records the whole state, read off the continuous
    # extension of its own step; a mark past t_end is absent
    t10 = np.log(10.0)
    sol = liouville_solve(np.log(1e3), aux={"mass": 0.0}, marks=(t10, 8.0),
                          dense=False)
    assert list(sol.mark_states) == [t10]
    state = sol.mark_states[t10]
    assert state[0] == pytest.approx(pf.eta0(10.0), abs=1e-10)
    assert sol.aux("mass", state) == pytest.approx(4.0 * np.pi * 100.0 / 101.0, rel=1e-9)
    assert sol.end_state[0] == sol.values[-1]
    with pytest.raises(ValueError, match="dense output"):
        sol.eval_t(t10)


def test_missing_event_raises():
    with pytest.raises(NoCrossingError):
        liouville_solve(2.0, level=-50.0)


def test_bad_tolerances_rejected():
    with pytest.raises(ValueError):
        liouville_solve(1.0, rtol=0.0)
    with pytest.raises(ValueError):
        liouville_solve(1.0, atol=np.array([1e-12, -1e-12]))


def test_rtol_below_scipy_floor_rejected():
    # SciPy replaces such an rtol by 100 eps with only a warning
    with pytest.raises(ValueError, match="rtol"):
        liouville_solve(1.0, rtol=0.5 * MIN_RTOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        liouville_solve(1.0, rtol=MIN_RTOL)


def test_solve_rejects_nonfinite_inputs():
    # a NaN passes a plain `<= 0` check and SciPy then never finishes
    for kw in ({"t_end": 1.0, "rtol": np.nan}, {"t_end": 1.0, "atol": np.nan},
               {"t_end": np.nan}, {"t_end": np.inf}, {"t_end": np.log(R_START)}):
        with pytest.raises(ValueError):
            liouville_solve(**kw)


def test_dense_output_between_nodes():
    sol = liouville_solve(np.log(1e3))
    mids = 0.5 * (sol.grid.t_nodes[:-1] + sol.grid.t_nodes[1:])
    u, _ = sol.eval_t(mids)
    assert np.max(np.abs(u - pf.eta0(np.exp(mids)))) < 1e-8
