"""Log-radius initial-value integration against closed-form solutions."""

import math
import warnings

import re

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import DOP853
from scipy.integrate._ivp.rk import rk_step

from mtlab import profiles as pf
from mtlab import radial_ode
from mtlab.linearized import solve_linearized, source_w0
from mtlab.perturbations import log_power_family, trivial
from mtlab.radial_ode import (MIN_RTOL, R_START, START_LADDER, IntegrationError,
                              NoCrossingError, solve)
from mtlab.shooting import shoot


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
    # the start fit's calls and the stepper's; accepted steps are the grid's
    calls = []

    def counted(t, y):
        calls.append(t)
        return liouville_state(t, y)

    sol = solve(counted, np.log(1e3), 1e-12, 1e-12, dense=False)
    assert sol.nfev == len(calls)
    assert sol.accepted_steps == len(sol.grid.t_nodes) - 1 > 0


def test_start_steps_down_past_the_level():
    # a level crossed before the top rung pushes the start below it: the stepper
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


def test_rtol_below_the_floor_rejected():
    # below 100 eps the error estimate is rounding noise (SciPy's DOP853
    # replaces such an rtol by 100 eps with only a warning)
    with pytest.raises(ValueError, match="rtol"):
        liouville_solve(1.0, rtol=0.5 * MIN_RTOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        liouville_solve(1.0, rtol=MIN_RTOL)


def test_solve_rejects_nonfinite_inputs():
    # a NaN passes a plain `<= 0` check and the stepper then never finishes
    for kw in ({"t_end": 1.0, "rtol": np.nan}, {"t_end": 1.0, "atol": np.nan},
               {"t_end": np.nan}, {"t_end": np.inf}, {"t_end": np.log(R_START)}):
        with pytest.raises(ValueError):
            liouville_solve(**kw)


def test_eval_refuses_t_past_the_end():
    # the last step's extension runs on past t_max and would extrapolate
    # quietly: read at r = 1e6, a solve to r = 1e3 gave a finite number
    sol = liouville_solve(np.log(1e3))
    assert sol.eval_t(sol.t_max)[0] == pytest.approx(pf.eta0(1e3), rel=1e-10)
    for read in (lambda: sol.eval(1e6), lambda: sol.eval_t([0.0, sol.t_max + 1e-9]),
                 lambda: sol.eval_state_t(np.nan)):
        with pytest.raises(ValueError, match="t_max"):
            read()


def test_dense_output_between_nodes():
    sol = liouville_solve(np.log(1e3))
    mids = 0.5 * (sol.grid.t_nodes[:-1] + sol.grid.t_nodes[1:])
    u, _ = sol.eval_t(mids)
    assert np.max(np.abs(u - pf.eta0(np.exp(mids)))) < 1e-8


def _solve_ivp_arguments(monkeypatch, run):
    """The arguments of every radial_ode.solve_ivp call that run() makes."""
    calls = []
    own = radial_ode.solve_ivp

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return own(*args, **kwargs)

    monkeypatch.setattr(radial_ode, "solve_ivp", recording)
    run()
    monkeypatch.undo()
    return calls


EPS = np.finfo(float).eps


def _scipy_events(marks=(), level=None):
    """radial_ode.solve_ivp's marks and level as SciPy events, the level terminal."""
    events = [lambda t, y, m=m: t - m for m in marks]
    if level is not None:
        def crossing(t, y):
            return y[0] - level

        crossing.terminal = True
        events.append(crossing)
    return events or None


def _solved_with_scipy(args, kwargs):
    """radial_ode.solve_ivp and SciPy's solve_ivp on the same arguments.

    Exact on what the steps cannot move: whether the level ends the solve,
    which marks are reached, and which results exist.
    """
    own = radial_ode.solve_ivp(*args, **kwargs)
    stops = {k: kwargs[k] for k in ("marks", "level") if k in kwargs}
    rest = {k: v for k, v in kwargs.items() if k not in stops}
    ref = scipy.integrate.solve_ivp(*args, method="DOP853", events=_scipy_events(**stops),
                                    **rest)
    assert (own.t_event is not None) == (ref.status == 1)
    reached = {m for m, te in zip(stops.get("marks", ()), ref.t_events or ()) if len(te)}
    assert set(own.mark_states) == reached
    assert (own.sol is None) == (ref.sol is None) == (not kwargs.get("dense_output"))
    return own, ref


def _scipy_stops(own, ref, marks):
    """(radial_ode's t, SciPy's t, radial_ode's state, SciPy's state) at each stop."""
    stops = []
    for m, state in own.mark_states.items():
        i = list(marks).index(m)
        stops.append((m, ref.t_events[i][0], state, ref.y_events[i][0]))
    if own.t_event is not None:
        stops.append((own.t_event, ref.t_events[-1][0], own.y[:, -1], ref.y_events[-1][0]))
    return stops


def _assert_whole_solve_near_scipy(args, kwargs):
    # the error estimate cancels to ~1e-5 of its terms, so another summation
    # order moves every step a little: bounds in units of the tolerance
    own, ref = _solved_with_scipy(args, kwargs)
    rtol = kwargs["rtol"]
    y_max = np.max(np.abs(ref.y), axis=1)
    for mine, theirs, _, _ in _scipy_stops(own, ref, kwargs.get("marks", ())):
        assert abs(mine - theirs) <= rtol * max(1.0, abs(theirs))
    assert np.all(np.abs(own.y[:, -1] - ref.y[:, -1]) <= 10.0 * rtol * y_max)
    if kwargs.get("dense_output"):
        ts = np.linspace(ref.t[0], ref.t[-1], 50)
        assert np.all(np.abs(own.sol(ts) - ref.sol(ts)) <= 20.0 * rtol * y_max[:, None])
    assert abs(len(own.t) - len(ref.t)) <= 0.1 * (len(ref.t) - 1)


def test_tableau_is_zero_outside_the_written_stages():
    # the stages, the solution, both error estimates and the dense output
    # read only the couplings that radial_ode writes out
    A = np.zeros_like(DOP853.A)
    for s, row in enumerate(radial_ode._STAGES, 1):
        A[s, list(row)] = DOP853.A[s, list(row)]
    assert np.array_equal(A, DOP853.A)
    for coefficients in (DOP853.B, DOP853.E5[:-1], DOP853.E3[:-1]):
        assert not np.delete(coefficients, radial_ode._SOLUTION).any()
    assert DOP853.E5[-1] == DOP853.E3[-1] == 0.0
    for row, coupled in zip(DOP853.A_EXTRA, radial_ode._EXTRA):
        assert not np.delete(row, coupled).any()
    assert not np.delete(DOP853.D, radial_ode._DENSE, axis=1).any()


@pytest.mark.parametrize("mu", [6.0, 12.0, 24.0])
def test_each_step_is_scipys_dop853_step(monkeypatch, mu):
    # from the same (t, y, f, h) as every accepted step of a shot, SciPy's
    # rk_step lands within 4 eps of the float step, in units of |y| plus the
    # increment's absolute terms |h| sum_j |B_j K_j|
    calls = _solve_ivp_arguments(monkeypatch, lambda: shoot(mu, trivial()))
    (fun, t_span, y0), kwargs = calls[0]
    res = radial_ode.solve_ivp(fun, t_span, y0, kwargs["rtol"], kwargs["atol"],
                               marks=kwargs["marks"], level=kwargs["level"])
    K = np.empty((DOP853.n_stages + 1, len(y0)))
    for i in range(len(res.t) - 2):  # the last node is the boundary event
        t, y = float(res.t[i]), res.y[:, i]
        h = float(res.t[i + 1]) - t
        f = np.array(fun(t, [float(v) for v in y]))
        y_new, _ = rk_step(fun, t, y, f, h, DOP853.A, DOP853.B, DOP853.C, K)
        terms = np.abs(y) + abs(h) * np.abs(DOP853.B) @ np.abs(K[:-1])
        assert np.all(np.abs(res.y[:, i + 1] - y_new) <= 4.0 * EPS * terms), (mu, i)


@pytest.mark.parametrize("profile", [False, True], ids=["plain", "dense"])
@pytest.mark.parametrize("family", [trivial, log_power_family])
@pytest.mark.parametrize("mu", [2.0, 6.0, 12.0, 24.0])
def test_loop_reproduces_scipy_on_shots(monkeypatch, mu, family, profile):
    # the shot's own state function, start, level and split mark
    calls = _solve_ivp_arguments(monkeypatch, lambda: shoot(mu, family(), profile=profile))
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs["level"] == -mu ** 2 and len(kwargs["marks"]) == 1
    assert kwargs["dense_output"] == profile
    _assert_whole_solve_near_scipy(args, kwargs)


def test_loop_reproduces_scipy_on_the_linearized_w0_solve(monkeypatch):
    calls = _solve_ivp_arguments(monkeypatch, lambda: solve_linearized(source_w0, r_max=2e3))
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs["dense_output"] and not kwargs["marks"] and kwargs["level"] is None
    _assert_whole_solve_near_scipy(args, kwargs)


def _assert_steps_within_eps_of_scipy(args, kwargs, extensions_skipped=0):
    # extensions_skipped: steps on which SciPy builds the continuous
    # extension for a mark and radial_ode does not, 3 calls each
    own, ref = _solved_with_scipy(args, kwargs)
    assert own.t.shape == ref.t.shape and own.nfev == ref.nfev - 3 * extensions_skipped
    assert np.all(np.abs(own.t - ref.t) <= 4.0 * EPS * np.maximum(1.0, np.abs(ref.t)))
    y_max = np.max(np.abs(ref.y), axis=1)
    assert np.all(np.abs(own.y - ref.y) <= 4.0 * EPS * y_max[:, None])
    for mine, theirs, y_mine, y_theirs in _scipy_stops(own, ref, kwargs.get("marks", ())):
        assert abs(mine - theirs) <= 4.0 * EPS * max(1.0, abs(theirs))
        assert np.all(np.abs(y_mine - y_theirs) <= 4.0 * EPS * y_max)


def test_events_fire_and_end_the_solve_as_in_scipy():
    # u = -t reaches the level -5 inside the step that also holds the marks
    # t = 3 and t = 7: the mark before the crossing is recorded, the one
    # after it is not, as in SciPy with the level a terminal event
    args = (lambda t, y: (-1.0, 0.5), (0.0, 10.0), np.zeros(2))
    tols = {"rtol": 1e-3, "atol": 1e-6}
    free = radial_ode.solve_ivp(*args, **tols, marks=(3.0, 7.0))
    assert free.t[-2] < 3.0 and free.t[-1] == 10.0  # one step holds all three
    assert list(free.mark_states) == [3.0, 7.0] and free.t_event is None
    stopped = {**tols, "marks": (3.0, 7.0), "level": -5.0}
    res = radial_ode.solve_ivp(*args, **stopped)
    assert np.array_equal(res.t[:-1], free.t[:-1])
    assert list(res.mark_states) == [3.0]
    assert res.mark_states[3.0] == pytest.approx([-3.0, 1.5], abs=1e-12)
    assert res.t[-1] == res.t_event == pytest.approx(5.0, abs=1e-12)
    assert res.y[0, -1] == pytest.approx(-5.0, abs=1e-12)
    _assert_steps_within_eps_of_scipy(args, stopped)
    # a level met exactly at a node ends the solve there
    on_node = {**tols, "level": float(free.y[0, 3])}
    res = radial_ode.solve_ivp(*args, **on_node)
    assert res.t_event == free.t[3] and np.array_equal(res.t, free.t[:4])
    _assert_steps_within_eps_of_scipy(args, on_node)
    # a mark exactly at a node is recorded once, by the step that ends
    # there; SciPy's two-sided rule fires on both steps meeting at the node
    # and builds one more extension
    at_node = {**tols, "marks": (free.t[3],)}
    res = radial_ode.solve_ivp(*args, **at_node)
    assert list(res.mark_states) == [free.t[3]]
    _assert_steps_within_eps_of_scipy(args, at_node, extensions_skipped=1)


def test_mark_state_is_the_dense_output_there():
    # a mark strictly inside a step reads the piece of the continuous
    # extension that eval_state_t reads there
    t10 = np.log(10.0)
    sol = liouville_solve(np.log(1e3), aux=("mass",), marks=(t10,))
    assert not np.any(sol.grid.t_nodes == t10)
    assert np.array_equal(sol.mark_states[t10], sol.eval_state_t(t10))


@pytest.mark.parametrize("rate", [
    lambda t: (1.0 / (1e-4 + (t - 1.0) ** 2), math.cos(3.0 * t)),  # 10 rejections
    lambda t: (0.0, 0.0),  # a zero error estimate grows every step tenfold
], ids=["peak", "zero"])
def test_step_sizes_follow_scipys_controller(rate):
    # rates of t alone make the stages independent of the state, so only
    # the rounding of the error norm tells the two apart: the same attempts,
    # rejections included, and nodes within a fraction of rtol
    args = (lambda t, y: rate(t), (0.0, 2.0), np.zeros(2))
    own, ref = _solved_with_scipy(args, {"rtol": 1e-6, "atol": 1e-12})
    assert own.nfev == ref.nfev and own.t.shape == ref.t.shape
    assert np.all(np.abs(own.t - ref.t) <= 1e-6)
    assert np.all(np.abs(own.y - ref.y) <= 1e-5 * np.max(np.abs(ref.y), axis=1)[:, None])


@pytest.mark.parametrize("rates", [1, 3])
def test_wrong_number_of_rates_rejected(rates):
    # zip over the state would silently drop or ignore the odd rates
    with pytest.raises(ValueError, match="rates"):
        radial_ode.solve_ivp(lambda t, y: (1.0,) * rates, (0.0, 1.0), np.zeros(2),
                             rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0)])
def test_t_span_must_increase(t_span):
    with pytest.raises(ValueError, match="t_span"):
        radial_ode.solve_ivp(lambda t, y: (1.0,), t_span, np.zeros(1), rtol=1e-6, atol=1e-9)


def test_nonfinite_state_fails_near_where_it_turns():
    # every step past t = 1 is rejected until the step size underflows
    def state(t, y):
        return liouville_state(t, y) if t < 1.0 else np.full(len(y), np.nan)

    with pytest.raises(IntegrationError, match="integration failed near t=") as info:
        solve(state, 3.0, 1e-10, 1e-10)
    t_fail = float(re.search(r"t=(\S+) ", str(info.value)).group(1))
    assert t_fail == pytest.approx(1.0, abs=1e-4)
