"""Log-radius initial-value integration against closed-form solutions."""

import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput, rk_step

import mtlab
from mtlab import profiles as pf
from mtlab import radial_ode
from mtlab.linearized import solve_linearized, source_w0, source_wa, source_z0
from mtlab.perturbations import log_power_family, trivial
from mtlab.radial_ode import (MIN_RTOL, R_START, START_LADDER, IntegrationError,
                              NoCrossingError, solve)
from mtlab.shooting import SPLIT_EXPONENT, shoot


def liouville_state(t, y):
    # -Delta eta = 4 e^{2 eta}, solution eta0 = -log(1+r^2)
    f = 4.0 * np.exp(2.0 * t + 2.0 * min(y[0], 0.0))
    return np.array([y[1], -f])


def liouville_mass_state(t, y):
    # a third state accumulates the planar mass 2 pi int 4 e^{2 eta} r^2 dt
    f = 4.0 * np.exp(2.0 * t + 2.0 * min(y[0], 0.0))
    return np.array([y[1], -f, 2.0 * np.pi * f])


def liouville_solve(t_end, rtol=1e-12, atol=1e-12, mass=False, **kw):
    return solve(liouville_mass_state if mass else liouville_state, t_end, rtol, atol, **kw)


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

    sol = solve(counted, np.log(1e3), 1e-12, 1e-12)
    assert sol.nfev == len(calls)
    assert sol.accepted_steps == len(sol.grid.t_nodes) - 1 > 0
    # a read takes the 3 extra stages of each step that it is the first to
    # touch: the scalar its own step's, the nodes every step's but that one
    unread = sol.nfev
    sol.eval_t(0.0)
    assert sol.nfev == len(calls) == unread + 3
    for _ in range(2):
        sol.eval_t(sol.grid.t_nodes)
        assert sol.nfev == len(calls) == unread + 3 * sol.accepted_steps
    sol.eval_t(1.0)
    assert sol.nfev == len(calls) == unread + 3 * sol.accepted_steps


def test_start_steps_down_past_the_level():
    # a level crossed before the top rung pushes the start below it: the stepper
    # cannot see a crossing at its first point
    sol = liouville_solve(1.0, atol=1e-18, level=-np.log(1.0 + 3e-3 ** 2))
    assert sol.t_min == np.log(1e-3)
    assert np.exp(sol.t_event) == pytest.approx(3e-3, rel=1e-9)


def test_reads_below_the_start_give_the_series_state():
    # the whole state, quadrature included, and no state-function call
    sol = liouville_solve(np.log(1e3), mass=True)
    unread = sol.nfev
    state = sol.eval_state_t(np.log(1e-4))
    assert sol.t_min > np.log(1e-4) and sol.nfev == unread
    assert state[0] == pytest.approx(pf.eta0(1e-4), rel=1e-12)
    # the planar mass 4 pi r^2 / (1+r^2) inside r
    assert state[2] == pytest.approx(4.0 * np.pi * 1e-8 / (1.0 + 1e-8), rel=1e-12)


def test_liouville_bubble_reproduced():
    sol = liouville_solve(np.log(1e5))
    r = np.exp(np.linspace(np.log(1e-3), np.log(1e4), 200))
    u, v = sol.eval(r)
    assert np.max(np.abs(u - pf.eta0(r))) < 1e-8
    assert np.max(np.abs(v - r * pf.eta0_prime(r))) < 1e-8


def test_aux_state_accumulates_mass():
    # d(mass)/dt = 2 pi r^2 * 4 e^{2 eta}; total planar mass of the bubble
    # is 2 pi int 4 r / (1+r^2)^2 dr = 4 pi
    sol = liouville_solve(np.log(1e6), mass=True)
    mass = sol.eval_state_t(sol.t_max)[2]
    assert mass == pytest.approx(4.0 * np.pi, abs=1e-8)


def test_event_location():
    sol = liouville_solve(20.0, level=-np.log(101.0))
    # eta0 = -log(101) at r = 10
    assert np.exp(sol.t_event) == pytest.approx(10.0, rel=1e-9)
    assert sol.t_max == sol.t_event


def test_scalar_read_of_an_unread_solution():
    # a scalar read of an unread solution evaluates its own step's
    # extension on floats: 3 calls on a new step, none on a step already
    # read; an array of the same points reads the same readers, so it adds
    # no call and gives the same bits
    t10 = np.log(10.0)
    sol = liouville_solve(np.log(1e3), mass=True)
    unread, nodes = sol.nfev, sol.grid.t_nodes
    state = sol.eval_state_t(t10)
    assert state[0] == pytest.approx(pf.eta0(10.0), abs=1e-10)
    assert state[2] == pytest.approx(4.0 * np.pi * 100.0 / 101.0, rel=1e-9)
    assert sol.nfev == unread + 3
    i = int(np.searchsorted(nodes, t10))  # the step [nodes[i - 1], nodes[i]]
    assert nodes[i - 1] < t10 < nodes[i]
    same_step = (0.5 * (nodes[i - 1] + t10), nodes[i])  # a node reads the step ending there
    next_step = 0.5 * (nodes[i] + nodes[i + 1])
    points = (t10, *same_step, t10, next_step, sol.t_max)
    before = [sol.eval_state_t(t) for t in points]
    assert sol.nfev == unread + 3 * 3
    assert np.array_equal(before[0], state) and np.array_equal(before[3], state)
    after = sol.eval_state_t(np.array(points)).T
    assert sol.nfev == unread + 3 * 3
    assert np.array_equal(np.array(before), after)
    assert all(np.array_equal(sol.eval_state_t(t), y) for t, y in zip(points, before))
    assert sol.end_state[0] == sol.values[-1]


def _step_read_at(nodes, t):
    """The step that a read at t takes: a node reads the step ending there."""
    return min(max(int(np.searchsorted(nodes, t, side="left")) - 1, 0), len(nodes) - 2)


@pytest.mark.parametrize("level", [None, -np.log(1e4)], ids=["free", "crossing"])
def test_each_step_takes_its_extra_stages_once_in_any_read_order(level):
    # whatever the order of scalar and array reads, the extension takes
    # the 3 extra stages of each step on the first read that touches it
    # (the crossing step's come with the stepper's calls), and every point
    # reads the same bits before and after the other reads
    sol = liouville_solve(20.0 if level else np.log(1e3), mass=True, level=level)
    nodes, unread = sol.grid.t_nodes, sol.nfev
    kept = {len(nodes) - 2} if level is not None else set()
    rng = np.random.default_rng(3)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    reads = [mids[2], mids[1:4], np.array([]), nodes[::-1], mids[-1], nodes[5],
             rng.uniform(nodes[0], nodes[-1], 40), mids]
    steps, first = set(), {}
    for t in reads + reads[::-1]:
        y = sol.eval_state_t(t)
        assert y.shape == (3,) + np.shape(t)
        points = np.atleast_1d(t)
        steps.update(_step_read_at(nodes, p) for p in points)
        assert sol.nfev == unread + 3 * len(steps - kept)
        for p, y_p in zip(points, y.reshape(3, -1).T):
            assert np.array_equal(first.setdefault(p, y_p), y_p), p
    assert steps == set(range(len(nodes) - 1))
    u, v = sol.eval_t(np.array([]))
    assert u.shape == v.shape == (0,)


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


def test_scipy_internals_have_the_shape_the_stepper_uses():
    # solve_ivp calls SciPy's private initial-step rule with positional
    # arguments and steps with the private controller constants of its RK
    # module; a SciPy that changes either fails here by name (checked with
    # SciPy 1.17.1, whose rule takes t_bound and max_step)
    names = list(inspect.signature(radial_ode.select_initial_step).parameters)
    assert names == ["fun", "t0", "y0", "t_bound", "max_step", "f0", "direction",
                     "order", "rtol", "atol"], f"SciPy {scipy.__version__}: {names}"
    constants = (radial_ode.SAFETY, radial_ode.MIN_FACTOR, radial_ode.MAX_FACTOR)
    assert constants == (0.9, 0.2, 10), f"SciPy {scipy.__version__}: {constants}"


def test_solve_rejects_nonfinite_inputs():
    # a NaN passes a plain `<= 0` check; each is refused before the stepper
    # starts, as are an rtol of 1 or more and an infinite atol, which would
    # accept every step
    for kw in ({"t_end": 1.0, "rtol": np.nan}, {"t_end": 1.0, "atol": np.nan},
               {"t_end": np.nan}, {"t_end": np.inf}, {"t_end": np.log(R_START)},
               {"t_end": 1.0, "rtol": 1.0}, {"t_end": 1.0, "rtol": 2.0},
               {"t_end": 1.0, "rtol": np.inf}, {"t_end": 1.0, "atol": np.inf},
               {"t_end": 1.0, "atol": np.array([1e-12, np.inf])}):
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
    """Reads at the marks and radial_ode.solve_ivp's level as SciPy events,
    the level terminal."""
    events = [lambda t, y, m=m: t - m for m in marks]
    if level is not None:
        def crossing(t, y):
            return y[0] - level

        crossing.terminal = True
        events.append(crossing)
    return events or None


def _solved_with_scipy(args, kwargs, marks=()):
    """radial_ode.solve_ivp and SciPy's solve_ivp, with its dense output, on
    the same arguments, SciPy with an event at each mark t.

    Exact on what the steps cannot move: whether the level ends the solve
    and which marks lie on the solution, those SciPy's events find.
    """
    own = radial_ode.solve_ivp(*args, **kwargs)
    rest = {k: v for k, v in kwargs.items() if k != "level"}
    ref = scipy.integrate.solve_ivp(*args, method="DOP853", dense_output=True, **rest,
                                    events=_scipy_events(marks, kwargs.get("level")))
    assert (own.t_event is not None) == (ref.status == 1)
    reached = [m for m, te in zip(marks, ref.t_events or ()) if len(te)]
    assert reached == [m for m in marks if own.t[0] < m <= own.t[-1]]
    return own, ref


def _scipy_stops(own, ref, marks):
    """(radial_ode's t, SciPy's t, radial_ode's state, SciPy's state) at each
    mark on the solution, radial_ode's read by one scalar read each, and at
    the crossing."""
    stops = [(m, ref.t_events[i][0], own.sol(m), ref.y_events[i][0])
             for i, m in enumerate(marks) if len(ref.t_events[i])]
    if own.t_event is not None:
        stops.append((own.t_event, ref.t_events[-1][0], own.y[:, -1], ref.y_events[-1][0]))
    return stops


def _new_steps(own, marks):
    """How many steps the reads at the marks on the solution take the extra
    stages of: one each, less the crossing step's, which the loop took."""
    steps = {int(np.searchsorted(own.t, m)) for m in marks if own.t[0] < m <= own.t[-1]}
    return len(steps - ({len(own.t) - 1} if own.t_event is not None else set()))


def _assert_whole_solve_near_scipy(args, kwargs, read=True, marks=()):
    # the error estimate cancels to ~1e-5 of its terms, so another summation
    # order moves every step a little: bounds in units of the tolerance;
    # read=False reads the marks alone and checks that no other step took
    # its extra stages
    own, ref = _solved_with_scipy(args, kwargs, marks)
    rtol = kwargs["rtol"]
    y_max = np.max(np.abs(ref.y), axis=1)
    for mine, theirs, y_mine, y_theirs in _scipy_stops(own, ref, marks):
        assert abs(mine - theirs) <= rtol * max(1.0, abs(theirs))
        assert np.all(np.abs(y_mine - y_theirs) <= 10.0 * rtol * y_max)
    assert np.all(np.abs(own.y[:, -1] - ref.y[:, -1]) <= 10.0 * rtol * y_max)
    if read:
        ts = np.linspace(ref.t[0], ref.t[-1], 50)
        assert np.all(np.abs(own.sol(ts) - ref.sol(ts)) <= 20.0 * rtol * y_max[:, None])
    else:
        assert own.sol.nfev == 3 * _new_steps(own, marks)
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
                               level=kwargs["level"])
    K = np.empty((DOP853.n_stages + 1, len(y0)))
    for i in range(len(res.t) - 2):  # the last node is the boundary event
        t, y = float(res.t[i]), res.y[:, i]
        h = float(res.t[i + 1]) - t
        f = np.array(fun(t, [float(v) for v in y]))
        y_new, _ = rk_step(fun, t, y, f, h, DOP853.A, DOP853.B, DOP853.C, K)
        terms = np.abs(y) + abs(h) * np.abs(DOP853.B) @ np.abs(K[:-1])
        assert np.all(np.abs(res.y[:, i + 1] - y_new) <= 4.0 * EPS * terms), (mu, i)


@pytest.mark.parametrize("read", [False, True], ids=["plain", "dense"])
@pytest.mark.parametrize("family", [trivial, log_power_family])
@pytest.mark.parametrize("mu", [2.0, 6.0, 12.0, 24.0])
def test_loop_reproduces_scipy_on_shots(monkeypatch, mu, family, read):
    # the shot's own state function, start and level, and its read at the
    # split radius; "plain" reads only that, "dense" also the extension
    calls = _solve_ivp_arguments(monkeypatch, lambda: shoot(mu, family()))
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {"rtol": kwargs["rtol"], "atol": kwargs["atol"], "level": -mu ** 2}
    _assert_whole_solve_near_scipy(args, kwargs, read, marks=(SPLIT_EXPONENT * np.log(mu),))


def test_loop_reproduces_scipy_on_the_linearized_w0_solve(monkeypatch):
    calls = _solve_ivp_arguments(monkeypatch, lambda: solve_linearized(source_w0, r_max=2e3))
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs["level"] is None
    _assert_whole_solve_near_scipy(args, kwargs)


def _assert_steps_within_eps_of_scipy(args, kwargs, marks=()):
    # SciPy's dense output takes 3 calls on every step; radial_ode's loop
    # takes them only on the crossing step, a scalar read at a mark on
    # another step takes them there, and a read of every node takes them
    # on each step that has none yet
    own, ref = _solved_with_scipy(args, kwargs, marks)
    steps = len(ref.t) - 1
    crossed = own.t_event is not None
    assert own.t.shape == ref.t.shape
    assert own.nfev == ref.nfev - 3 * steps + 3 * crossed
    stops = _scipy_stops(own, ref, marks)
    assert own.sol.nfev == 3 * _new_steps(own, marks)
    own.sol(own.t)
    assert own.sol.nfev == 3 * (steps - crossed)
    assert np.all(np.abs(own.t - ref.t) <= 4.0 * EPS * np.maximum(1.0, np.abs(ref.t)))
    y_max = np.max(np.abs(ref.y), axis=1)
    assert np.all(np.abs(own.y - ref.y) <= 4.0 * EPS * y_max[:, None])
    for mine, theirs, y_mine, y_theirs in stops:
        assert abs(mine - theirs) <= 4.0 * EPS * max(1.0, abs(theirs))
        assert np.all(np.abs(y_mine - y_theirs) <= 4.0 * EPS * y_max)


def test_events_fire_and_end_the_solve_as_in_scipy():
    # u = -t reaches the level -5 inside the step that also holds t = 3 and
    # t = 7: a read at t = 3 gives the state there, while t = 7 lies past
    # the crossing, where the solution ends and a read raises, as SciPy's
    # event there does not fire with the level a terminal event
    args = (lambda t, y: (-1.0, 0.5), (0.0, 10.0), np.zeros(2))
    tols = {"rtol": 1e-3, "atol": 1e-6}
    free = radial_ode.solve_ivp(*args, **tols)
    assert free.t[-2] < 3.0 and free.t[-1] == 10.0  # one step holds all three
    assert free.t_event is None
    assert free.sol(7.0) == pytest.approx([-7.0, 3.5], abs=1e-12)
    _assert_steps_within_eps_of_scipy(args, tols, marks=(3.0, 7.0))
    stopped = {**tols, "level": -5.0}
    res = radial_ode.solve_ivp(*args, **stopped)
    assert np.array_equal(res.t[:-1], free.t[:-1])
    assert res.t[-1] == res.t_event == pytest.approx(5.0, abs=1e-12)
    assert res.y[0, -1] == pytest.approx(-5.0, abs=1e-12)
    sol = radial_ode.RadialSolution(radial_ode.LogRadialGrid(res.t), res.y[0], res.y[1],
                                    res.sol, res.t_event, res.y[:, -1], np.zeros((2, 3)),
                                    res.nfev, len(res.t) - 1)
    assert sol.eval_state_t(3.0) == pytest.approx([-3.0, 1.5], abs=1e-12)
    with pytest.raises(ValueError, match="t_max"):
        sol.eval_state_t(7.0)
    _assert_steps_within_eps_of_scipy(args, stopped, marks=(3.0, 7.0))
    # a level met exactly at a node ends the solve there
    on_node = {**tols, "level": float(free.y[0, 3])}
    res = radial_ode.solve_ivp(*args, **on_node)
    assert res.t_event == free.t[3] and np.array_equal(res.t, free.t[:4])
    _assert_steps_within_eps_of_scipy(args, on_node)
    # a read exactly at a node reads the step that ends there (SciPy's
    # two-sided rule fires its event on both steps meeting at the node)
    _assert_steps_within_eps_of_scipy(args, tols, marks=(free.t[3],))


def test_crossing_step_reader_is_the_dense_output_there():
    # the level crossing is read off its step's extension on floats, which
    # the solution keeps: a read in that step costs no call, and it and
    # the crossing, like a read strictly inside another step, give the
    # bits that an array read of the same points gives
    t10 = np.log(10.0)
    sol = liouville_solve(20.0, mass=True, level=-np.log(1e4))
    nodes, unread = sol.grid.t_nodes, sol.nfev
    assert np.exp(sol.t_event) == pytest.approx(np.sqrt(1e4 - 1.0), rel=1e-10)
    t_last = 0.5 * (nodes[-2] + nodes[-1])
    points = (t_last, sol.t_event, t10)
    before = [sol.eval_state_t(t) for t in points]
    assert sol.nfev == unread + 3  # t10's step alone
    assert not np.any(nodes == t10) and t10 < nodes[-2]
    assert np.array_equal(before[1], sol.end_state)
    assert np.array_equal(np.array(before), sol.eval_state_t(np.array(points)).T)


def _peak_rate(t):
    # a rate of t alone, whose peak at t = 1 makes the controller reject steps
    return 1.0 / (1e-4 + (t - 1.0) ** 2), math.cos(3.0 * t)


def test_dense_container_is_scipys_extension_of_the_same_steps():
    # rates of t alone fix every stage from the step's t_old and h, so SciPy's
    # pieces can be rebuilt from the nodes: a Dop853DenseOutput per step, its
    # F from that step's own product with D, in an OdeSolution over the
    # nodes, gives the extension's bits at every point, scalar or in an array
    res = radial_ode.solve_ivp(lambda t, y: _peak_rate(t), (0.0, 2.0), np.zeros(2),
                               rtol=1e-6, atol=1e-12)
    ts, ext = res.t, res.sol
    assert len(ts) > 10
    pieces = []
    k_end = _peak_rate(ts[0])  # stage 0 is the rate at the end of the step before
    for i, h in enumerate(np.diff(ts)):  # the loop's h is t_new - t
        t_old = ts[i]
        times = ([t_old + c * h for c in DOP853.C[5:]] + [t_old + h]
                 + [t_old + c * h for c in DOP853.C_EXTRA])
        K = np.array([k_end] + [_peak_rate(t) for t in times])
        k_end = K[8]
        dy = res.y[:, i + 1] - res.y[:, i]
        F = np.empty((7, 2))
        F[0] = dy
        F[1] = h * K[0] - dy
        F[2] = 2.0 * dy - h * (K[8] + K[0])
        F[3:] = h * DOP853.D[:, radial_ode._DENSE] @ K
        pieces.append(Dop853DenseOutput(t_old, t_old + h, res.y[:, i], F))
    ref = OdeSolution(ts, pieces)
    rng = np.random.default_rng(0)
    unsorted = rng.uniform(ts[0], ts[-1], 200)
    scalars = (*unsorted[:5], ts[3], ts[-1], -0.5)
    # scalar reads before any array read take only their own steps' stages
    before = [ext(t) for t in scalars]
    assert 0 < ext.nfev < 3 * (len(ts) - 1)
    for t in (unsorted, ts, ts[::-1], np.array([ts[-1]]), np.array([-0.5, 2.5])):
        assert ext(t).shape == (2, len(t))
        assert np.array_equal(ext(t), ref(t))
    for t, y in zip(scalars, before):
        assert ext(t).shape == y.shape == (2,)
        assert np.array_equal(ext(t), ref(t)) and np.array_equal(y, ref(t))


def _rates_checked_for_floats(monkeypatch, run, read=True):
    """Run run() with every radial_ode.solve_ivp state function checked: it
    gets t and each state as a float and returns each rate as a float.
    read=True reads each solve's extension at its nodes inside the checked
    call, so the extra stages of every step are checked too."""
    own = radial_ode.solve_ivp
    calls = []

    def checked_solve(fun, *args, **kwargs):
        def checked(t, y):
            rates = fun(t, y)
            calls.append(t)
            assert type(t) is float and type(y) is list
            assert all(type(p) is float for p in y), y
            assert all(type(rate) is float for rate in rates), rates
            return rates

        res = own(checked, *args, **kwargs)
        if read:
            res.sol(res.t)
        return res

    monkeypatch.setattr(radial_ode, "solve_ivp", checked_solve)
    run()
    return len(calls)


@pytest.mark.parametrize("source", [source_w0, source_z0, source_wa(0.7)],
                         ids=["w0", "z0", "w_a"])
def test_linearized_solves_step_on_floats(monkeypatch, source):
    # the sources give NumPy scalars on a float; the state converts once
    assert type(source(2.0)) is not float
    assert _rates_checked_for_floats(monkeypatch, lambda: solve_linearized(source)) > 1000


@pytest.mark.parametrize("read", [False, True], ids=["plain", "dense"])
@pytest.mark.parametrize("family", [trivial, log_power_family])
def test_shots_step_on_floats(monkeypatch, family, read):
    # "plain" checks the stepper alone, "dense" also the extension's stages
    for mu in (2.0, 12.0):
        assert _rates_checked_for_floats(
            monkeypatch, lambda: shoot(mu, family()), read) > 500


@pytest.mark.parametrize("rate", [
    _peak_rate,  # 10 rejections
    lambda t: (0.0, 0.0),  # a zero error estimate grows every step tenfold
], ids=["peak", "zero"])
def test_step_sizes_follow_scipys_controller(rate):
    # rates of t alone make the stages independent of the state, so only
    # the rounding of the error norm tells the two apart: the same attempts,
    # rejections included, and nodes within a fraction of rtol
    args = (lambda t, y: rate(t), (0.0, 2.0), np.zeros(2))
    own, ref = _solved_with_scipy(args, {"rtol": 1e-6, "atol": 1e-12})
    own.sol(own.t)
    assert own.nfev + own.sol.nfev == ref.nfev and own.t.shape == ref.t.shape
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


_NONFINITE_STARTS = textwrap.dedent("""
    import math
    from mtlab import radial_ode
    from mtlab.linearized import solve_linearized, source_wa

    def nan_below(t, y):
        return (math.nan, math.nan) if t < -10.0 else (y[1], -math.exp(2.0 * t))

    for solve in (lambda: solve_linearized(source_wa(float("nan")), r_max=10.0),
                  lambda: radial_ode.solve(lambda t, y: (math.nan, math.nan), 1.0, 1e-10, 1e-12),
                  lambda: radial_ode.solve(nan_below, 1.0, 1e-10, 1e-12)):
        try:
            solve()
        except radial_ode.IntegrationError as exc:
            print(exc)
""")


def test_nonfinite_start_raises_instead_of_hanging():
    # a state that is NaN at the start makes SciPy's initial step NaN, which
    # a plain `h < min_step` test lets through to reject forever; a child
    # process with a timeout turns such a hang into a failure
    src = str(Path(mtlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _NONFINITE_STARTS], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all("not finite" in line for line in lines), lines
