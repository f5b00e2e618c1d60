"""Energy expansions, residual hierarchies, thresholds, and the E(mu) branch.

This module drives :mod:`mtlab.shooting` over families of center values mu
and condenses the results into the quantities the theory predicts:

* the coefficient c(mu) = mu^4 (E(mu) - 4 pi) and its inner/outer split,
* sup norms of the rescaled profile minus its Taylor hierarchy
  eta0 + w0/mu^2 + z0/mu^4 (+ h(mu) zeta0 for perturbed functionals),
* the critical amplitude of the inverse-square perturbation tail,
* the branch E(mu) with its supremum Lambda* and the multiplicity of
  solutions of E(mu) = Lambda.

All slack constants used by finite-mu window checks live in ``SLACK`` so
the thresholds are auditable in one place.  The functions return data
classes; :mod:`mtlab.cli` renders them as CSV or JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import profiles as pf
from .linearized import solve_linearized, source_z0
from .perturbations import PerturbationSpec, delta_k, trivial
from .radial_ode import MIN_RTOL, IntegrationError
from .shooting import MU_MAX, MU_MIN, EventNotReachedError, pde_residual, shoot

__all__ = [
    "SLACK",
    "FOUR_PI",
    "ExpansionScan",
    "ResidualReport",
    "ThresholdResult",
    "BranchScan",
    "energy_scan",
    "residual_hierarchy",
    "threshold_a",
    "branch_scan",
]

FOUR_PI = 4.0 * np.pi

# Auditable slack table.  The theory gives asymptotic o(.) remainders; every
# finite-mu coefficient window below widens the asymptotic constant by
# exactly the additive "coefficient_window"; the other two entries bound
# a branch root's energy gap and its PDE residual.
SLACK = {
    "coefficient_window": 0.5,
    "branch_root_tol": 1e-6,
    "residual_bound": 1e-7,
}

# threshold_a: the amplitude bracket of the inverse-square tail and the
# tolerance of its shots (the other searches shoot at shoot's default)
A_LO, A_HI = 0.25, 3.0
THRESHOLD_SHOT_TOL = 1e-10


@dataclass
class ExpansionScan:
    """Energy coefficients c(mu) = mu^4 (E - 4 pi) along a mu list.

    ``window`` is the asymptotic window (widened by slack) that applies to
    the scanned family, and ``window_ok`` flags each mu against it; the
    caller decides whether to treat failures as errors.  A shot that never
    reaches its boundary event is recorded in ``failures`` and the scan
    continues.
    """

    mu_values: np.ndarray
    c_values: np.ndarray
    inner_coeffs: np.ndarray
    outer_coeffs: np.ndarray
    energies: np.ndarray
    window: Tuple[float, float]
    window_ok: List[bool]
    failures: Dict[float, str] = field(default_factory=dict)


def _window_for(spec: PerturbationSpec) -> Tuple[float, float]:
    """Asymptotic window for c(mu), widened by the coefficient slack.

    Unperturbed: [4 pi, 6 pi].  Decaying perturbations shift the upper
    end to 4 pi + 2 pi (1 + sup h); the inverse-square tail of amplitude a
    additionally shifts both ends by -4 pi a.
    """
    s = SLACK["coefficient_window"]
    lo, hi = FOUR_PI, FOUR_PI + 2.0 * np.pi * (1.0 + spec.sup_h)
    if spec.name == "inverse-square":
        a = spec.family_params["a"]
        lo -= FOUR_PI * a
        hi -= FOUR_PI * a
    return lo - s, hi + s


def _check_supported(mus: Sequence[float]) -> None:
    """ValueError unless every mu lies in shoot's range [MU_MIN, MU_MAX] (a NaN fails)."""
    for mu in mus:
        if not MU_MIN <= mu <= MU_MAX:
            raise ValueError(f"the mu grid holds {mu:g}, outside the supported range "
                             f"[{MU_MIN}, {MU_MAX}]")


def energy_scan(mu_list: Sequence[float], spec: PerturbationSpec,
                tol: float = 1e-11) -> ExpansionScan:
    """Shoot each mu and collect the energy coefficients.

    An empty ``mu_list``, a mu outside [MU_MIN, MU_MAX] or a ``tol``
    outside [MIN_RTOL, 1) (NaN included) raises ValueError before any shot.
    """
    if not len(mu_list):
        raise ValueError("empty mu grid: nothing to scan")
    _check_supported(mu_list)
    if not MIN_RTOL <= tol < 1:
        raise ValueError(f"need tol at or above the floor 100 eps = "
                         f"{MIN_RTOL:.3g} and below 1, got tol={tol:g}")
    mus, cs, inner, outer, energies = [], [], [], [], []
    failures: Dict[float, str] = {}
    for mu in sorted(mu_list):
        try:
            sol = shoot(mu, spec, tol=tol)
        except EventNotReachedError as exc:
            failures[float(mu)] = str(exc)
            continue
        mu4 = mu ** 4
        mus.append(mu)
        energies.append(sol.energy_total)
        cs.append(mu4 * (sol.energy_total - FOUR_PI))
        inner.append(mu4 * (sol.energy_inner - FOUR_PI))
        outer.append(mu4 * sol.energy_outer)
    window = _window_for(spec)
    window_ok = [bool(window[0] <= c <= window[1]) for c in cs]
    return ExpansionScan(mu_values=np.asarray(mus), c_values=np.asarray(cs),
                         inner_coeffs=np.asarray(inner),
                         outer_coeffs=np.asarray(outer),
                         energies=np.asarray(energies),
                         window=window, window_ok=window_ok,
                         failures=failures)


@dataclass
class ResidualReport:
    """Sup norms of the rescaled profile against its Taylor hierarchy."""

    mu: float
    sup_w_err: float       # sup |mu^2 (eta - eta0) - w0| on [0, 10]
    sup_z_err: float       # sup |mu^4 (eta - eta0 - w0/mu^2) - z0| on [0, 10]
    phi_over_xi: float     # weighted remainder sup, see residual_hierarchy
    perturbed: bool
    delta: float           # normalization of the perturbed remainder (else mu^-6)


@lru_cache(maxsize=1)
def _z0_solution():
    return solve_linearized(source_z0, r_max=1e6)


def residual_hierarchy(mu: float,
                       spec: Optional[PerturbationSpec] = None) -> ResidualReport:
    """Compare the shot profile to eta0 + w0/mu^2 + z0/mu^4 (+ h(mu) zeta0).

    For the unperturbed functional the remainder phi := mu^6 (eta - eta0
    - w0/mu^2 - z0/mu^4) is weighted by xi(r) = 1 + log(1+r) and the sup
    is taken on [0, min(e^mu, 1e6)].  For a perturbed functional the
    hierarchy gains the term h(mu) zeta0, the remainder is normalized by
    the perturbation scale delta instead of mu^-6, and the sup is taken
    on [0, mu^4].
    """
    if spec is None:
        spec = trivial()
    perturbed = spec.name != "trivial"
    sol = shoot(mu, spec)
    z0 = _z0_solution()
    mu2, mu4 = mu ** 2, mu ** 4

    def hierarchy_err(r_hi, n=600):
        """Radii plus (eta - eta0 - w0/mu^2, same - z0/mu^4) samples."""
        t = np.linspace(np.log(1e-3), min(np.log(r_hi), sol.log_R), n)
        r = np.exp(t)
        eta, _ = sol.eta.eval_t(t)
        d1 = eta - pf.eta0(r) - pf.w0(r) / mu2
        z0_vals, _ = z0.eval_t(np.minimum(t, z0.t_max))
        d2 = d1 - z0_vals / mu4
        return r, eta - pf.eta0(r), d1, d2

    r, d_w, d1, d2 = hierarchy_err(10.0)
    sup_w_err = float(np.max(np.abs(mu2 * d_w - pf.w0(r))))
    sup_z_err = float(np.max(np.abs(mu4 * d1 - z0.eval_t(np.log(r))[0])))

    if perturbed:
        delta = delta_k(mu, spec)
        h_mu = float(spec.h(np.asarray(mu)))
        r, _, _, d2 = hierarchy_err(mu4, n=2000)
        phi = (d2 - h_mu * pf.zeta0(r)) / delta
        phi_over_xi = float(np.max(np.abs(phi) / pf.xi(r)))
    else:
        delta = mu ** -6.0
        r, _, _, d2 = hierarchy_err(min(np.exp(mu), 1e6), n=2000)
        phi_over_xi = float(np.max(np.abs(mu ** 6 * d2) / pf.xi(r)))
    return ResidualReport(mu=mu, sup_w_err=sup_w_err, sup_z_err=sup_z_err,
                          phi_over_xi=phi_over_xi, perturbed=perturbed,
                          delta=delta)


@dataclass
class ThresholdResult:
    """Sign change of c(mu_probe) in the tail amplitude a."""

    mu_probe: float
    a_crit: float
    predicted_window: Tuple[float, float]
    c_lo: float
    c_hi: float


def _brentq(f, lo, hi, what, **kw) -> float:
    """``brentq`` on a sign-changing bracket; NaN or non-convergence raises."""

    def finite(x):
        y = f(x)
        if not np.isfinite(y):
            raise IntegrationError(f"{what}: non-finite value {y!r} at x={x!r}")
        return y

    x, res = brentq(finite, lo, hi, full_output=True, disp=False, **kw)
    if not res.converged:
        raise IntegrationError(
            f"{what} not converged after {res.iterations} iterations: "
            f"{res.flag}, last x={x!r}")
    return x


def threshold_a(mu_probe: float, a_tol: float = 1e-3) -> ThresholdResult:
    """Find the amplitude of the inverse-square tail where c changes sign.

    The energy coefficient of the tail family shifts linearly, c ~ c0 -
    4 pi a, so a single sign change is expected; the asymptotic
    prediction brackets it between a = 1 (lower window coefficient
    vanishes) and a = 3/2 + (sup h)/2 (upper coefficient vanishes).  The
    tail's h is negative, so sup h is 0 and ``predicted_window`` is
    (1, 3/2) for every amplitude.  Brent's method on [A_LO, A_HI]
    returns ``a_crit`` within a_tol/2 of the sign change; a_tol must be
    positive.
    """
    # imported here, so the family is looked up on the module at call time
    from .perturbations import inverse_square_tail
    if not a_tol > 0:
        raise ValueError(f"a_tol must be positive, got {a_tol!r}")

    @lru_cache(maxsize=None)
    def c_of(a):
        sol = shoot(mu_probe, inverse_square_tail(a), tol=THRESHOLD_SHOT_TOL)
        return mu_probe ** 4 * (sol.energy_total - FOUR_PI)

    c_lo, c_hi = c_of(A_LO), c_of(A_HI)
    if c_lo * c_hi > 0:
        raise ValueError(
            f"no sign change of c on [{A_LO}, {A_HI}]: c={c_lo:.3g}, {c_hi:.3g}")
    a_crit = _brentq(c_of, A_LO, A_HI, "sign change of c", xtol=0.5 * a_tol)
    return ThresholdResult(mu_probe=mu_probe, a_crit=a_crit,
                           predicted_window=(1.0, 1.5),
                           c_lo=c_lo, c_hi=c_hi)


@dataclass
class BranchScan:
    """The energy branch E(mu) with its supremum and level-set roots."""

    points: List[Tuple[float, float]]
    lambda_star: float
    mu_star: float
    pairs: Dict[float, List[float]]
    notes: Dict[float, str] = field(default_factory=dict)
    failures: Dict[float, str] = field(default_factory=dict)


def branch_scan(mu_grid: Sequence[float], spec: Optional[PerturbationSpec] = None,
                lambda_queries: Sequence[float] = (),
                level_fractions: Sequence[float] = ()) -> BranchScan:
    """Sample E(mu), refine its maximum, and solve E(mu) = Lambda levels.

    Every shot runs at shoot's default tolerance.  Lambda* is the grid
    maximum refined by bounded Brent (mu to 1e-6) between the neighbors of
    the best sample (no global claim beyond the grid resolution).  A best
    sample without a successful neighbor on each side means the grid does
    not bracket the maximum: ValueError, naming the grid ends.  Each Lambda
    below Lambda*, 4 pi and subcritical levels included, is bracketed on
    the grid, every bracket is solved by ``brentq`` (mu to about 1e-12),
    and a root whose |E - Lambda| exceeds ``SLACK["branch_root_tol"]``
    raises ``IntegrationError``; a level at or above Lambda* gets no roots
    and a note.
    ``level_fractions`` adds queries at Lambda = 4 pi + f (Lambda* - 4 pi),
    resolved after Lambda* is known (f = 0.5 is the midpoint level of the
    multiplicity theorem).  A grid shot that never reaches its boundary
    event or returns a non-finite energy is recorded in ``failures`` and
    left out of the branch; if no grid shot succeeds, ``IntegrationError``
    names them all.  An empty
    ``mu_grid``, a mu outside [MU_MIN, MU_MAX], or a non-finite entry of
    ``lambda_queries`` or ``level_fractions``, raises ValueError before any
    shot.
    """
    if spec is None:
        spec = trivial()
    if not len(mu_grid):
        raise ValueError("empty mu grid: no branch to sample")
    _check_supported(mu_grid)
    for name, values in (("lambda_queries", lambda_queries),
                         ("level_fractions", level_fractions)):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ValueError(f"{name} must be finite, got {list(values)!r}")
    mus = np.asarray(sorted(mu_grid), dtype=float)
    energies = np.full_like(mus, np.nan)
    failures: Dict[float, str] = {}

    @lru_cache(maxsize=None)
    def E(mu):
        return shoot(float(mu), spec).energy_total

    for i, mu in enumerate(mus):
        try:
            energies[i] = E(mu)
        except EventNotReachedError as exc:
            failures[float(mu)] = str(exc)
            continue
        if not np.isfinite(energies[i]):
            failures[float(mu)] = f"non-finite energy {energies[i]!r}"
    ok = np.isfinite(energies)
    if not np.any(ok):
        raise IntegrationError(
            "every grid shot failed: " + "; ".join(
                f"mu={mu:g}: {msg}" for mu, msg in failures.items()))
    pts = list(zip(mus[ok].tolist(), energies[ok].tolist()))
    mu_ok, E_ok = mus[ok], energies[ok]
    i_best = int(np.argmax(E_ok))
    if not 0 < i_best < len(mu_ok) - 1:
        raise ValueError(
            f"the largest sampled E(mu) is at mu={float(mu_ok[i_best])!r}, which "
            f"lacks a successful grid neighbor on one side: the grid "
            f"[{float(mus[0])!r}, {float(mus[-1])!r}] does not bracket the "
            f"maximum of E(mu)")
    lo, hi = mu_ok[i_best - 1], mu_ok[i_best + 1]
    best = minimize_scalar(lambda mu: -E(mu), bounds=(lo, hi),
                           method="bounded", options={"xatol": 1e-6})
    if not best.success:
        raise IntegrationError(
            f"maximum of E(mu) on [{lo!r}, {hi!r}] not converged: {best.message}")
    mu_star = best.x
    lambda_star = max(-best.fun, float(E_ok[i_best]))

    pairs: Dict[float, List[float]] = {}
    notes: Dict[float, str] = {}
    root_tol = SLACK["branch_root_tol"]
    queries = list(lambda_queries) + [
        FOUR_PI + f * (lambda_star - FOUR_PI) for f in level_fractions]
    for lam in queries:
        lam = float(lam)
        if lam >= lambda_star:
            pairs[lam] = []
            notes[lam] = (f"level {lam:.6g} at or above Lambda* = "
                          f"{lambda_star:.6g}; no roots sought")
            continue
        roots = []
        diffs = E_ok - lam
        for i in range(len(mu_ok) - 1):
            if diffs[i] == 0.0:
                roots.append(float(mu_ok[i]))
                continue
            if diffs[i] * diffs[i + 1] < 0:
                a, b = float(mu_ok[i]), float(mu_ok[i + 1])
                mu = _brentq(lambda m: E(m) - lam, a, b,
                             f"root of E(mu) = {lam!r} on [{a!r}, {b!r}]")
                gap = E(mu) - lam
                if abs(gap) > root_tol:
                    raise IntegrationError(
                        f"root of E(mu) = {lam!r} on [{a!r}, {b!r}] misses the "
                        f"level by more than {root_tol}: mu={mu!r}, "
                        f"E - Lambda = {gap!r}")
                roots.append(mu)
        pairs[lam] = sorted(roots)
    return BranchScan(points=pts, lambda_star=float(lambda_star),
                      mu_star=float(mu_star), pairs=pairs, notes=notes,
                      failures=failures)


def verify_branch_root(mu: float, lam: float,
                       spec: Optional[PerturbationSpec] = None) -> Tuple[float, float]:
    """Fresh shoot at a claimed root: (|E - Lambda|, flux-form PDE residual)."""
    if spec is None:
        spec = trivial()
    sol = shoot(mu, spec)
    return abs(sol.energy_total - lam), pde_residual(sol)
