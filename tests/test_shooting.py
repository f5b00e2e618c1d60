"""Shooting solver: invariants, residuals and cross-checks."""

import copy
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from scipy.special import roots_legendre

from mtlab import profiles as pf
from mtlab import radial_ode, shooting
from mtlab.perturbations import (PerturbationSpec, inverse_square_tail,
                                 log_power_family, oscillating_family, trivial)
from mtlab.radial_ode import R_START, START_LADDER, IntegrationError
from mtlab.shooting import (SPLIT_EXPONENT, EventNotReachedError,
                            comparison_eta0, functional_value, pde_residual,
                            shoot)
from pin_shot_bits import PINNED, shot_bits

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi


def test_shot_bits_are_pinned():
    """Every pinned number of the sweep lattice's shots and their residuals,
    of the threshold and oscillating shots and of the w0 and z0 solves is
    the one that tests/pin_shot_bits.py wrote, bit for bit.

    The values come from this platform's libm (``math.exp``, ``np.log``...)
    and its NumPy: on another platform a last bit may move, and rerunning
    the script there pins that platform's values.
    """
    pinned = json.loads(PINNED.read_text())
    assert shot_bits(pinned["mus"], pinned["families"]) == {
        key: value for key, value in pinned.items() if key not in ("mus", "families")}


def test_mu_range_guard():
    with pytest.raises(ValueError):
        shoot(0.01, trivial())
    with pytest.raises(ValueError):
        shoot(25.0, trivial())


def test_boundary_event_and_multiplier(shots):
    for mu, sol in shots.items():
        # u vanishes at r = 1: eta(R) = -mu^2
        eta_R, _ = sol.eta.eval_t(sol.log_R)
        assert eta_R == pytest.approx(-mu ** 2, abs=1e-8)
        assert sol.log_lambda == pytest.approx(
            np.log(4.0) + 2.0 * sol.log_R - mu ** 2 - 2.0 * np.log(mu), abs=1e-12)


def test_physical_profile_endpoints(shots):
    # u = mu + eta / mu at physical radius r, i.e. at t = log r + log R;
    # r = 1e-12 still maps to a rescaled radius ~ 4e-5 (R is huge)
    sol = shots[6.0]
    eta, _ = sol.eta.eval_t(np.log([1e-12, 1.0]) + sol.log_R)
    u = sol.mu + eta / sol.mu
    assert u[0] == pytest.approx(6.0, abs=1e-8)   # center value
    assert u[1] == pytest.approx(0.0, abs=1e-8)   # boundary zero


def test_profile_monotone_decreasing(shots):
    sol = shots[8.0]
    eta, _ = sol.eta.eval_t(np.linspace(np.log(1e-5), 0.0, 300) + sol.log_R)
    u = sol.mu + eta / sol.mu
    assert np.all(np.diff(u) <= 1e-12)
    assert np.all(u >= -1e-12)


def test_energy_split_consistency(shots):
    for sol in shots.values():
        assert sol.energy_inner >= 0.0
        assert sol.energy_outer >= 0.0
        assert sol.energy_inner + sol.energy_outer == pytest.approx(
            sol.energy_total, rel=1e-12)


def test_energy_against_small_mu_physical_quadrature():
    """Independent oracle: integrate |grad u|^2 directly at modest mu.

    At mu = 3 the boundary radius is small enough that the physical
    gradient integral 2 pi int (u')^2 r dr is computable from the dense
    profile by plain quadrature.
    """
    sol = shoot(3.0, trivial())
    t = np.linspace(sol.eta.t_min, sol.log_R, 60_000)
    _, v = sol.eta.eval_t(t)
    # |grad u|^2 dx = 2 pi (u')^2 r dr = 2 pi (v/mu)^2 dt in log radius
    energy = 2.0 * np.pi * np.trapezoid((v / 3.0) ** 2, t)
    assert energy == pytest.approx(sol.energy_total, rel=1e-7)


def test_functional_value_against_mass_quadrature():
    # below the first node eval_t reads the core's fitted series, so the
    # integral still starts at R_START
    sol = shoot(3.0, trivial())
    t = np.linspace(np.log(R_START), sol.log_R, 60_000)
    eta, _ = sol.eta.eval_t(t)
    u = 3.0 + eta / 3.0
    # int e^{u^2} dx over B_1 = 2 pi int e^{u^2 + 2t - 2 log R} dt
    mass = 2.0 * np.pi * np.trapezoid(
        np.exp(u * u + 2.0 * t - 2.0 * sol.log_R), t)
    assert functional_value(sol) == pytest.approx(mass, rel=1e-6)


@pytest.mark.parametrize("family", [trivial, log_power_family, oscillating_family])
@pytest.mark.parametrize("mu", [0.5, 3.0, 12.0, 24.0])
def test_functional_value_against_pohozaev(family, mu):
    # Pohozaev on the unit disk for -Delta u = lambda (1+h(u)) u e^{u^2},
    # whose primitive is ((1+g(u)) e^{u^2} - (1+g(0)))/2, gives
    # int (1+g(u)) e^{u^2} dx = pi (1+g(0)) + pi u'(1)^2 / lambda; in the
    # rescaled variables u'(1) = v(log R)/mu with v = r eta', the boundary
    # node of the shot.  functional_value is that closed form, so the mass
    # integral itself is the independent check: 2 pi int (1+g(u))
    # e^{u^2 + 2t - 2 log R} dt by 8-point Gauss on every step of the dense
    # output and on the core's series from r = 1e-9 up to the first node
    spec = family()
    sol = shoot(mu, spec)
    v = sol.eta.r_derivs[-1]
    pohozaev = (np.pi * (1.0 + spec.g(0.0))
                + 0.25 * np.pi * v * v * np.exp(mu * mu - 2.0 * sol.log_R))
    assert functional_value(sol) == pytest.approx(pohozaev, rel=1e-8)
    nodes = np.concatenate([np.linspace(np.log(1e-9), sol.eta.t_min, 12)[:-1],
                            sol.eta.grid.t_nodes])
    half = 0.5 * np.diff(nodes)
    x, w = roots_legendre(8)
    t = ((nodes[:-1] + half)[:, None] + half[:, None] * x).ravel()
    eta, _ = sol.eta.eval_t(t)
    u = mu + eta / mu
    density = (1.0 + spec.g(u)) * np.exp(
        mu * mu + 2.0 * eta + eta * eta / (mu * mu) + 2.0 * t - 2.0 * sol.log_R)
    mass = TWO_PI * np.sum(np.repeat(half, len(x)) * np.tile(w, len(half)) * density)
    assert functional_value(sol) == pytest.approx(mass, rel=1e-6)


def test_functional_value_needs_g():
    # the inverse-square tail defines only h: its functional is undefined
    sol = shoot(3.0, inverse_square_tail(a=0.5))
    with pytest.raises(ValueError, match="defines no g"):
        functional_value(sol)


def test_subcritical_mass_bound():
    # below energy 4 pi, int e^{u^2} dx <= pi / (1 - E / 4 pi); the trivial
    # family has g = 0, so its functional is that plain mass
    sol = shoot(0.1, trivial())
    assert sol.energy_total < FOUR_PI
    assert functional_value(sol) <= np.pi / (1.0 - sol.energy_total / FOUR_PI)


def _from_low_start(monkeypatch, r_start, run):
    """run() with the start ladder cut down to the one radius r_start."""
    with monkeypatch.context() as m:
        m.setattr(radial_ode, "START_LADDER", (r_start,))
        return run()


def test_start_steps_down_past_a_kink_of_h(monkeypatch):
    # h(u) = -a/max(u, 2)^2 has a kink at u = 2, which a start fitted at
    # r = 1e-2 straddles at mu = 2 + 1e-5 (eta = -2e-5 at r ~ 6e-3): the
    # series misses there, by about 1e-9 in the energy, so the check sends
    # the start down the ladder
    spec = inverse_square_tail(a=2.0)
    mu = 2.0 + 1e-5
    sol = shoot(mu, spec)
    assert sol.eta.t_min < np.log(START_LADDER[0])
    tight = _from_low_start(monkeypatch, R_START,
                            lambda: shoot(mu, spec, tol=1e-13))
    start = sol.eta.eval_state_t(sol.eta.t_min)
    miss = np.abs(start - tight.eta.eval_state_t(sol.eta.t_min))
    assert np.all(miss <= [1e-14, 1e-14, 1e-11])
    assert abs(sol.energy_total - tight.energy_total) <= 1e-10
    assert abs(sol.log_R - tight.log_R) <= 1e-10


@pytest.mark.parametrize("mu", [0.05, 0.1])
def test_split_below_the_start_reads_the_series(monkeypatch, mu):
    # the split radius mu^3 lies below the start (1e-3 at these mu), so the
    # inner energy comes from the fitted series rather than from an event of
    # the solve; it matches the tight shot within that shot's energy atol
    spec = trivial()
    sol = shoot(mu, spec)
    assert SPLIT_EXPONENT * np.log(mu) <= sol.eta.t_min
    tight = _from_low_start(monkeypatch, R_START, lambda: shoot(mu, spec, tol=1e-13))
    assert abs(sol.energy_inner - tight.energy_inner) <= 1e-13
    assert abs(sol.energy_total - tight.energy_total) <= 1e-11


@pytest.mark.parametrize("family", [
    trivial, log_power_family, lambda: inverse_square_tail(a=1.3)],
    ids=["trivial", "log-power", "inverse-square"])
@pytest.mark.parametrize("mu", [0.05, 2.0, 6.0, 24.0])
def test_start_state_matches_a_tight_solve(monkeypatch, family, mu):
    # the fitted start of a default shot against a tol = 1e-13 shot from
    # r = 1e-9, within each state's atol: 1e-3 tol on (eta, v), tol on the energy
    spec = family()
    sol = shoot(mu, spec)
    tight = _from_low_start(monkeypatch, 1e-9,
                            lambda: shoot(mu, spec, tol=1e-13))
    t0 = sol.eta.t_min
    miss = np.abs(sol.eta.eval_state_t(t0) - tight.eta.eval_state_t(t0))
    assert np.all(miss <= [1e-14, 1e-14, 1e-11])


@pytest.mark.parametrize("name", ["h", "g"])
def test_nan_perturbation_raises_integration_error(name):
    # a NaN h would stall the adaptive stepper; the state function refuses
    # it.  The spec checks only the array h when built, so the NaN comes
    # from point, which is all a shot calls: a NaN h of its own, or the
    # NaN h = g + g'/(2t) of a NaN g
    g = {"h": np.zeros_like, "g": lambda t: np.full_like(t, np.nan)}[name]
    spec = PerturbationSpec(h=np.zeros_like, g=g, point=lambda t: np.nan)
    with pytest.raises(IntegrationError, match=r"non-finite perturbation h = nan .*mu=6\.0"):
        shoot(6.0, spec)


def test_nan_g_fails_the_functional_alone():
    # a shot never reads g, so a NaN g with a finite h leaves it whole; the
    # functional, the one place g enters a result, refuses it
    spec = PerturbationSpec(h=np.zeros_like, point=lambda t: 0.0,
                            g=lambda t: np.full_like(np.asarray(t, dtype=float), np.nan))
    sol = shoot(6.0, spec)
    assert sol.energy_total == shoot(6.0, trivial()).energy_total
    with pytest.raises(IntegrationError, match="non-finite functional value nan"):
        functional_value(sol)


def _min_max_state(mu, spec):
    """The shot's state function as written with the min/max builtins."""
    mu2 = mu * mu

    def state(t, eta, v):
        u = max(mu + eta / mu, 1e-12)
        hu = spec.point(u)
        if not math.isfinite(hu):
            raise IntegrationError(f"non-finite perturbation h = {hu} at u={u} "
                                   f"(mu={mu}, family {spec.name})")
        q = 1.0 + eta / mu2
        e = math.exp(min(2.0 * t + min(eta * (2.0 + eta / mu2), 0.0), 50.0))
        f = 4.0 * (1.0 + hu) * q * e
        return v, -f, TWO_PI * f * q

    return state


def _outcome(state, t, eta, v):
    """The bits of the rates, or the message of the IntegrationError."""
    try:
        return struct.pack("3d", *state(t, eta, v))
    except IntegrationError as exc:
        return str(exc)


@pytest.mark.parametrize("family", [trivial, log_power_family, inverse_square_tail])
@pytest.mark.parametrize("mu", [2.0, 6.0, 24.0])
def test_state_clamps_give_the_bits_of_min_and_max(family, mu):
    # the kernel's comparisons are the min/max calls they replaced, bit for
    # bit: past each clamp, at its edge, on signed zeros and on NaN, where a
    # family whose point is NaN there raises the same IntegrationError
    spec = family()
    mu2 = mu * mu
    cases = [
        (0.3, -0.5 * mu2, -1.2),  # no clamp bites
        (1.0, -2.5 * mu2, -3.0),  # eta below -2 mu^2: u and the eta exponent clamp
        (1.0, -2.0 * mu2, -3.0),  # the eta exponent is -0.0 at its clamp
        (30.0, -0.1, 0.5),  # the whole exponent above 50
        (25.0, 0.0, 0.5),  # the whole exponent at 50
        (0.5, -mu2 * (1.0 + 1e-3), -2.0),  # u below 1e-12
        (0.5, -mu2 + 0.5e-12 * mu, -2.0),  # u just below 1e-12
        (0.0, -0.0, -0.0), (-3.0, 0.0, 0.0), (0.0, -0.0, 0.0),  # signed zeros
        (math.nan, -1.0, 1.0), (0.5, -math.inf, 1.0), (math.inf, -1.0, 1.0),
        (0.5, math.nan, 1.0),  # NaN eta, last
    ]
    new, old = shooting._state(mu, spec), _min_max_state(mu, spec)
    outcomes = [_outcome(new, *case) for case in cases]
    assert outcomes == [_outcome(old, *case) for case in cases]
    nan_eta = outcomes[-1]
    if math.isnan(spec.point(math.nan)):
        assert nan_eta.startswith("non-finite perturbation h = nan at u=nan")
    else:
        assert all(map(math.isnan, struct.unpack("3d", nan_eta)[1:]))


def test_energy_concentrates_like_the_bubble(shots):
    # the energy inside the rescaled ball of radius R approaches the
    # Liouville bubble's 4 pi R^2 / (1 + R^2)
    R = 100.0
    eta = shots[12.0].eta
    energy = float(eta.eval_state_t(np.log(R))[2])
    assert abs(energy - FOUR_PI * (1.0 - 1.0 / (1.0 + R ** 2))) < 5e-3


def test_rescaled_profile_approaches_bubble(shots):
    # eta -> eta0 with error O(1/mu^2) on compact sets
    r = np.linspace(0.0, 5.0, 100)[1:]
    for mu, bound in ((6.0, 0.06), (12.0, 0.015)):
        eta, _ = shots[mu].eta.eval(r)
        assert np.max(np.abs(eta - pf.eta0(r))) < bound


def test_pde_residual_small():
    # the flux-form residual stays near the tolerance across the sweep range
    for family in (trivial, log_power_family):
        for mu in (3.45, 5.1, 6.0, 12.0, 24.0):
            assert pde_residual(shoot(mu, family())) <= 1e-7


def test_shot_nodes_do_not_grow_like_mu_squared():
    # without a step cap the adaptive steps widen with t: a cap of 1 in t
    # took about mu^2 / 2 nodes (391 at mu = 24)
    assert len(shoot(24.0, trivial()).eta.grid.t_nodes) <= 200


@pytest.mark.parametrize("family", [trivial, log_power_family])
def test_absolute_floor_coarsens_the_core(family):
    # eta ~ -(1+h(mu)) r^2 decays like e^{2t} at the origin; under pure
    # relative control on (eta, v) a shot at mu = 6 from r = 1e-6 took 66 of
    # its 120 nodes below t = -2, under the absolute floor 29 of 84, and from
    # the fitted start at r = 1e-2 it takes 14 of 65
    t = shoot(6.0, family()).eta.grid.t_nodes
    assert np.count_nonzero(t[1:] < -2.0) <= 35
    assert len(t) <= 95


@pytest.mark.parametrize("family", [trivial, log_power_family])
@pytest.mark.parametrize("mu", [0.05, 1.0, 2.0, 6.0, 12.0, 24.0])
def test_floored_shot_matches_a_tight_shot(family, mu):
    # the benchmark's sweep check |E - E_ref| <= 1e-9 against tol = 1e-13
    # holds at these mu and on the sweep lattice (worst 8.8e-10, log-power
    # at mu = 4), but not at every mu: on mu = 2, 2.05, ..., 12 the trivial
    # family misses by at most 3.5e-11, while 3 of 201 log-power shots miss
    # by more than 1e-9, the worst by 2.8e-9 at mu = 3.05 (see the next test).
    # The boundary event sits where |eta| = mu^2, whose relative control
    # sets the error of log R, so that bound scales with log R beyond 1
    spec = family()
    sol, tight = shoot(mu, spec), shoot(mu, spec, tol=1e-13)
    assert abs(sol.energy_total - tight.energy_total) <= 1e-9
    assert abs(sol.log_R - tight.log_R) <= 1e-10 * max(1.0, abs(tight.log_R))


@pytest.mark.parametrize("family, bound", [(trivial, 1e-10), (log_power_family, 5e-9)],
                         ids=["trivial", "log-power"])
def test_default_tol_energy_between_the_lattice_points(family, bound):
    # default-tol shots against tol = 1e-13 shots on mu = 2, 2.5, ..., 12.
    # The log-power family's miss depends on where its steps fall: from the
    # r = 1e-6 start it was 3.5e-9 at mu = 5.5 (3.3e-11 from the fitted
    # start), and on this grid it now peaks at 8.6e-10 at mu = 4
    spec = family()
    misses = [abs(shoot(mu, spec).energy_total - shoot(mu, spec, tol=1e-13).energy_total)
              for mu in np.arange(2.0, 12.01, 0.5)]
    assert max(misses) <= bound


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("mu", [2.0, 6.0, 12.0, 24.0])
def test_inverse_square_shot_matches_a_tight_shot(a, mu):
    # threshold_a shoots this family; at the default tol it misses a
    # tol = 1e-13 shot by more than the sweep families do (worst measured
    # 3.7e-10 in E and 5.0e-10 in log R, both at a = 1, mu = 6)
    spec = inverse_square_tail(a=a)
    sol, tight = shoot(mu, spec), shoot(mu, spec, tol=1e-13)
    assert abs(sol.energy_total - tight.energy_total) <= 1e-9
    assert abs(sol.log_R - tight.log_R) <= 1e-8


@pytest.mark.parametrize("family", [
    trivial, log_power_family, lambda: inverse_square_tail(a=1.3)],
    ids=["trivial", "log-power", "inverse-square"])
@pytest.mark.parametrize("mu", [0.5, 2.0, 6.0, 24.0])
def test_profile_does_not_change_the_shot(family, mu):
    # the continuous extension is built on the first read and never feeds
    # the steps: a read shot keeps the numbers of an unread one
    read, unread = shoot(mu, family()), shoot(mu, family())
    pde_residual(read)
    for name in ("log_R", "energy_total", "energy_inner", "energy_outer"):
        assert getattr(read, name) == getattr(unread, name), name
    assert read.eta.accepted_steps == unread.eta.accepted_steps
    assert np.array_equal(read.eta.grid.t_nodes, unread.eta.grid.t_nodes)
    assert np.array_equal(read.eta.end_state, unread.eta.end_state)
    # the split read again after the residual's read, and on a fresh shot
    t_split = SPLIT_EXPONENT * np.log(mu)
    if t_split <= read.eta.t_max:
        assert np.array_equal(read.eta.eval_state_t(t_split), unread.eta.eval_state_t(t_split))
    # a boundary event before the split radius leaves all the energy inner:
    # at mu = 2 it does for trivial and log-power (log R = 1.93 < 3 log 2)
    split_first = SPLIT_EXPONENT * np.log(mu) < read.log_R
    assert (read.energy_inner == read.energy_total) != split_first


@pytest.mark.parametrize("mu", [1.0, 3.0, 12.0, 24.0])
def test_profile_free_shot_skips_the_dense_output_calls(monkeypatch, mu):
    # DOP853's continuous extension costs 3 state-function calls per accepted
    # step: the stepper pays them only on the step holding the boundary
    # event, 12 calls per attempt besides and 2 to start, the read at the
    # split radius on its own step (at these mu another one), and a read
    # of every node on each of the other steps, once
    sol, res, fit_calls, calls = _recorded_shot(monkeypatch, mu, trivial())
    assert (res.nfev - 2 - 3) % 12 == 0
    assert res.sol.nfev == 3
    assert sol.eta.nfev == len(calls) == fit_calls + res.nfev + 3
    unread, steps = sol.eta.nfev, sol.eta.accepted_steps
    for _ in range(2):
        sol.eta.eval_state_t(sol.eta.grid.t_nodes)
        assert sol.eta.nfev == len(calls) == unread + 3 * (steps - 2)


def _recorded_shot(monkeypatch, mu, spec):
    """(the shot, its solve_ivp result, the number of kernel calls made
    before the stepper, and the list of all kernel calls), one kernel call
    per state-function call."""
    calls, results = [], []
    point, solve_ivp = spec.point, radial_ode.solve_ivp
    spec.point = lambda u: calls.append(u) or point(u)

    def recording_solve_ivp(*args, **kwargs):
        results.append(len(calls))
        results.append(solve_ivp(*args, **kwargs))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(radial_ode, "solve_ivp", recording_solve_ivp)
        sol = shoot(mu, spec)
    fit_calls, res = results
    return sol, res, fit_calls, calls


@pytest.mark.parametrize("family, mus", [
    (trivial, [2.32, 2.35, 2.37]),
    (log_power_family, [2.32, 2.34, 2.36, 2.38, 2.40, 2.42])], ids=["trivial", "log-power"])
def test_split_in_the_event_step_reads_its_kept_extension(monkeypatch, family, mus):
    # at these mu the split radius lies in the step that holds the boundary
    # event, whose extension the event's root search made on floats: the
    # read reuses it, so the shot makes no call past the start's and the
    # stepper's (3 more without the reuse), and an array read gives its bits
    for mu in mus:
        sol, res, fit_calls, calls = _recorded_shot(monkeypatch, mu, family())
        t_split, nodes = SPLIT_EXPONENT * np.log(mu), sol.eta.grid.t_nodes
        assert nodes[-2] < t_split < sol.log_R, mu
        assert sol.eta.nfev == len(calls) == fit_calls + res.nfev and res.sol.nfev == 0
        assert sol.energy_inner == sol.eta.eval_state_t(np.array([t_split]))[2, 0]


def _with_dense_output(sol, eval_state_t):
    eta = copy.copy(sol.eta)
    eta.eval_state_t = eval_state_t
    return dataclasses.replace(sol, eta=eta)


def test_pde_residual_detects_corruption(shots):
    sol = shots[6.0]

    def corrupted(t):
        y = sol.eta.eval_state_t(t).copy()
        y[0] *= 1.0 + 1e-4
        return y

    assert pde_residual(_with_dense_output(sol, corrupted)) > 1e-5


def test_pde_residual_rejects_nan_solution(shots):
    sol = shots[6.0]

    def nan_eval(t):
        return np.full_like(sol.eta.eval_state_t(t), np.nan)

    with pytest.raises(IntegrationError):
        pde_residual(_with_dense_output(sol, nan_eval))


@pytest.mark.parametrize("family", [trivial, log_power_family])
def test_one_point_call_per_rhs_evaluation(family):
    # the state function calls the scalar kernel once per evaluation, the
    # start fit's included, and a shot makes no other call
    spec = family()
    calls = []
    point = spec.point

    def counted(u):
        calls.append(u)
        return point(u)

    spec.point = counted
    sol = shoot(6.0, spec)
    assert len(calls) == sol.eta.nfev
    assert calls[0] == 6.0


def test_comparison_to_bubble_outside_core(shots):
    for mu in (6.0, 10.0):
        report = comparison_eta0(shots[mu])
        assert report.holds
        assert report.max_excess < 0.0


def test_perturbed_shot_shifts_energy():
    mu = 8.0
    plain = shoot(mu, trivial())
    tail = shoot(mu, inverse_square_tail(a=1.0))
    # the critical tail lowers the energy coefficient by about 4 pi
    c_plain = mu ** 4 * (plain.energy_total - FOUR_PI)
    c_tail = mu ** 4 * (tail.energy_total - FOUR_PI)
    assert c_tail < c_plain - 2.0 * np.pi


def test_log_power_perturbation_is_small():
    mu = 8.0
    plain = shoot(mu, trivial())
    pert = shoot(mu, log_power_family(a=1.0, p=3.0))
    assert abs(pert.energy_total - plain.energy_total) < 1e-3


def test_vanishing_nonlinearity_misses_event():
    # with 1 + h ~ 5e-13 the right-hand side cannot push eta to -mu^2
    # before t_end, so the boundary event is never located
    from mtlab.perturbations import PerturbationSpec
    weak = PerturbationSpec(
        h=lambda t: np.full_like(np.asarray(t, dtype=float), -1.0 + 5e-13),
        point=lambda t: -1.0 + 5e-13, name="near-degenerate")
    with pytest.raises(EventNotReachedError):
        shoot(0.05, weak, tol=1e-9)
