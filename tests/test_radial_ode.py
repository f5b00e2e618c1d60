"""Log-radius initial-value integration against closed-form solutions."""

import warnings

import numpy as np
import pytest

from mtlab import profiles as pf
from mtlab.radial_ode import (MIN_RTOL, R_START, START_LADDER, NoCrossingError,
                              solve)


def liouville_state(t, y):
    # -Delta eta = 4 e^{2 eta}, solution eta0 = -log(1+r^2); a third state,
    # when present, accumulates the planar mass 2 pi int 4 e^{2 eta} r^2 dt
    f = 4.0 * np.exp(2.0 * t + 2.0 * min(y[0], 0.0))
    return np.array([y[1], -f, 2.0 * np.pi * f])[:len(y)]


def liouville_solve(t_end, rtol=1e-12, atol=1e-12, **kw):
    return solve(liouville_state, t_end, rtol, atol, **kw)


def test_series_start_matches_taylor():
    # the core of eta0 = -log(1+r^2) is -r^2 + r^4/2 - r^6/3 + ..., which
    # the fit recovers well enough to start at the top of the ladder
    sol = liouville_solve(np.log(1e3))
    r0 = START_LADDER[0]
    assert sol.t_min == np.log(r0)
    assert sol.values[0] == pytest.approx(pf.eta0(r0), abs=1e-16)
    assert sol.r_derivs[0] == pytest.approx(r0 * pf.eta0_prime(r0), abs=1e-16)
    # below the first node the solution is that series
    r = np.array([1e-9, 1e-6, 1e-3, 0.5 * r0])
    u, v = sol.eval(r)
    np.testing.assert_allclose(u, pf.eta0(r), rtol=1e-12)
    np.testing.assert_allclose(v, r * pf.eta0_prime(r), rtol=1e-12)


def test_nfev_counts_every_state_call():
    # the start fit's calls and SciPy's; accepted steps are the grid's
    calls = []

    def counted(t, y):
        calls.append(t)
        return liouville_state(t, y)

    sol = solve(counted, np.log(1e3), 1e-12, 1e-12, dense=False)
    assert sol.nfev == len(calls)
    assert sol.accepted_steps == len(sol.grid.t_nodes) - 1 > 0


def test_start_steps_down_past_the_level():
    # a level crossed before the top rung pushes the start below it: SciPy
    # cannot see a crossing at its first point
    sol = liouville_solve(1.0, atol=1e-18, level=-np.log(1.0 + 3e-3 ** 2))
    assert sol.t_min == np.log(1e-3)
    assert np.exp(sol.t_event) == pytest.approx(3e-3, rel=1e-9)


def test_marks_below_the_start_read_the_series():
    sol = liouville_solve(np.log(1e3), aux=("mass",), marks=(np.log(1e-4),),
                          dense=False)
    state = sol.mark_states[np.log(1e-4)]
    assert state[0] == pytest.approx(pf.eta0(1e-4), rel=1e-12)
    # the planar mass 4 pi r^2 / (1+r^2) inside r
    assert sol.aux("mass", state) == pytest.approx(4.0 * np.pi * 1e-8 / (1.0 + 1e-8),
                                                   rel=1e-12)


def test_liouville_bubble_reproduced():
    sol = liouville_solve(np.log(1e5))
    r = np.exp(np.linspace(np.log(1e-3), np.log(1e4), 200))
    u, v = sol.eval(r)
    assert np.max(np.abs(u - pf.eta0(r))) < 1e-8
    assert np.max(np.abs(v - r * pf.eta0_prime(r))) < 1e-8


def test_aux_state_accumulates_mass():
    # d(mass)/dt = 2 pi r^2 * 4 e^{2 eta}; total planar mass of the bubble
    # is 2 pi int 4 r / (1+r^2)^2 dr = 4 pi
    sol = liouville_solve(np.log(1e6), aux=("mass",))
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
    sol = liouville_solve(np.log(1e3), aux=("mass",), marks=(t10, 8.0),
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
