"""Perturbation families (g, h) and numeric checkers for their decay.

A perturbation of the exponential functional is specified by an even
function g; the Euler-Lagrange equation only sees the combination

    h(t) = g(t) + g'(t) / (2t),   t > 0.

Built-in families: the smooth-cutoff log-power family, its oscillating
variant, and the inverse-square tail h(t) = -a t^{-2} (t >= R) used to
probe the critical decay rate.  Every family has a scalar kernel
``point(t) -> h(t)`` for one float, written in plain ``math``: a shot
calls it once per right-hand-side evaluation and never reads g.  The two
cutoff families write their formula once, over a namespace: ``math`` for
that kernel and NumPy for their array ``h`` and ``g``, which evaluate it
only where g is not identically 0; the inverse-square tail defines h
only, so it has no functional F.  ``check_conditions`` samples the two decay
conditions (t^2 h(t) -> 0 and the t^4-modulus-of-continuity condition) and
reports a monotone-trend verdict; ``delta_k`` is the perturbation scale
entering the expansion of the rescaled solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "PerturbationSpec",
    "trivial",
    "log_power_family",
    "oscillating_family",
    "inverse_square_tail",
    "check_conditions",
    "ConditionReport",
    "delta_k",
    "FAMILIES",
    "family_by_name",
]

CONDITION_SAMPLES = 25  # t values sampled by check_conditions


@dataclass
class PerturbationSpec:
    """An (h, optionally g) perturbation with cached bounds.

    ``h`` and ``g`` take arrays; ``point(t) -> h(t)`` takes one float
    t > 0 and returns h(t) as a float.  Every spec passes its own
    ``point``: shots call only it, while the maximizer, the checkers and
    ``shooting.functional_value`` call the arrays.
    ``h`` must be total on (0, inf); ``sup_h`` / ``inf_h`` are computed
    on a fixed log grid plus the zero tail limit, so they are
    reproducible.
    """

    h: Callable
    point: Callable[[float], float]
    g: Optional[Callable] = None
    name: str = "custom"
    family_params: Dict = field(default_factory=dict)
    sup_h: float = field(init=False)
    inf_h: float = field(init=False)

    def __post_init__(self):
        ts = np.exp(np.linspace(np.log(1e-3), np.log(1e8), 10_000))
        hs = np.asarray(self.h(ts), dtype=float)
        if np.any(~np.isfinite(hs)):
            raise ValueError("h must be finite on (0, inf)")
        # the families all satisfy h -> 0 at infinity, so 0 is a candidate bound
        self.sup_h = float(max(np.max(hs), 0.0))
        self.inf_h = float(min(np.min(hs), 0.0))
        if self.inf_h <= -1.0:
            raise ValueError("inf h must exceed -1")


def _cutoff_family(a: float, R: float, p: float, core: Callable,
                   core_slope: Callable):
    """(point, h, g) of g(t) = a chi(|t|/R) core(log s) s^{-p}, s = max(|t|, R).

    chi is the C-infinity bridge from 0 on [0, 1] to 1 on [2, inf), built
    from e^{-1/y} so results are bit-reproducible; g vanishes on [0, R]
    and ``core(lg, xp)`` (derivative ``core_slope(lg, xp)``) is only
    evaluated at lg = log s >= log R.  The arithmetic is written once, over
    a namespace xp: ``math`` for ``point``, which gives h = g + g'/(2t) at
    one t, and NumPy for the array ``h`` and ``g``, which evaluate it
    only where |t| > R.  On 1 < |t|/R < 2 one evaluation of the two bridge
    exponentials serves chi and chi', and one of log s and s^{-p} serves g
    and g'.  ``h`` is undefined at t = 0 (ValueError).
    """

    def bridge(x, xp):
        # a double x in (1, 2) keeps x - 1 and 2 - x above 1e-16
        d1, d2 = x - 1.0, 2.0 - x
        up, down = xp.exp(-1.0 / d1), xp.exp(-1.0 / d2)
        # chi' = (up' down - up down') / (up + down)^2, up' = up / d1^2
        dchi = (up / d1 ** 2 * down + up * (down / d2 ** 2)) / (up + down) ** 2 / R
        return up / (up + down), dchi

    def active(s, chi, dchi, xp):
        lg = xp.log(s)
        c = core(lg, xp)
        pw = s ** -p
        g = a * chi * c * pw
        # g is even, so g'(t) / (2t) = g'(|t|) / (2|t|)
        g_prime = a * (dchi * (c * pw) + chi * (core_slope(lg, xp) - p * c) * (pw / s))
        return g + g_prime / (2.0 * s), g

    def point(t):
        s = abs(t)
        x = s / R
        if x <= 1.0:
            return 0.0
        chi, dchi = bridge(x, math) if x < 2.0 else (1.0, 0.0)
        return active(s, chi, dchi, math)[0]

    def arrays(t):
        s = np.abs(np.asarray(t, dtype=float))
        x = s / R
        on = ~(x <= 1.0)  # NaN included, as in point
        # at x >= 2, clipped to the double below 2, e^{-1/(2 - x)} is 0, so
        # the bridge gives exactly chi = 1 and chi' = 0, as point does
        chi, dchi = bridge(np.minimum(x[on], np.nextafter(2.0, 0.0)), np)
        h, g = np.zeros_like(s), np.zeros_like(s)
        h[on], g[on] = active(s[on], chi, dchi, np)
        return h, g

    def h(t):
        t = np.asarray(t, dtype=float)
        if np.any(t == 0.0):
            raise ValueError("h(t) is undefined at t = 0")
        return arrays(t)[0]

    def g(t):
        return arrays(t)[1]

    return point, h, g


def trivial() -> PerturbationSpec:
    """The unperturbed functional: g = h = 0."""
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return PerturbationSpec(h=zero, g=zero, name="trivial",
                            point=lambda t: 0.0)


def log_power_family(a: float = 1.0, p: float = 3.0, q: float = 0.0,
                     R: float = 2.0) -> PerturbationSpec:
    """g(t) = a * chi(|t|/R) * log^q(|t|) * |t|^{-p}, p > 2.

    The cutoff keeps g = 0 on [0, R]; with R >= 2 the active range has
    log t > 0 so fractional q is safe.  R outside [2, inf), NaN
    included, raises ValueError.
    """
    if p <= 2:
        raise ValueError("need p > 2")
    # written so that a NaN fails the test
    if not 2.0 <= R < np.inf:
        raise ValueError(f"need 2 <= R < inf, got R={R}")

    point, h, g = _cutoff_family(a, R, p, lambda lg, xp: lg ** q,
                                 lambda lg, xp: q * lg ** (q - 1.0))
    return PerturbationSpec(h=h, g=g, point=point, name="log-power",
                            family_params={"a": a, "p": p, "q": q, "R": R})


def oscillating_family(a: float = 1.0, p: float = 3.0,
                       R: float = 2.0) -> PerturbationSpec:
    """g(t) = a * chi(|t|/R) * cos(log|t|) * |t|^{-p}, p > 2.

    R outside (0, inf), NaN included, raises ValueError.
    """
    if p <= 2:
        raise ValueError("need p > 2")
    # written so that a NaN fails the test
    if not 0.0 < R < np.inf:
        raise ValueError(f"need 0 < R < inf, got R={R}")

    point, h, g = _cutoff_family(a, R, p, lambda lg, xp: xp.cos(lg),
                                 lambda lg, xp: -xp.sin(lg))
    return PerturbationSpec(h=h, g=g, point=point, name="oscillating",
                            family_params={"a": a, "p": p, "R": R})


def inverse_square_tail(a: float = 1.0, R: Optional[float] = None) -> PerturbationSpec:
    """h(t) = -a t^{-2} for t >= R, frozen at -a/R^2 below.

    The default R = sqrt(2a) pins the range of h to [-1/2, 0); this is the
    critical-decay family whose energy coefficient shifts by -4 pi a.
    """
    if a <= 0:
        raise ValueError("need a > 0")
    if R is None:
        R = float(np.sqrt(2.0 * a))

    def h(t):
        t = np.asarray(t, dtype=float)
        return -a / np.maximum(t, R) ** 2

    return PerturbationSpec(h=h, point=lambda t: -a / max(t, R) ** 2,
                            name="inverse-square",
                            family_params={"a": a, "R": R})


@dataclass
class ConditionReport:
    """Sampled decay diagnostics for one condition."""

    name: str
    t_values: np.ndarray
    q_values: np.ndarray
    verdict: str  # satisfied / violated / inconclusive


def _verdict(q: np.ndarray) -> str:
    m = float(np.max(np.abs(q)))
    if m < 1e-12:
        return "satisfied"
    last = float(np.abs(q[-1]))
    if last <= 0.1 * m:
        return "satisfied"
    if last >= 0.5 * m:
        return "violated"
    return "inconclusive"


def check_conditions(spec: PerturbationSpec,
                     t_max: float = 1e6) -> Dict[str, ConditionReport]:
    """Sample the two tail conditions on h and classify the trend.

    Condition 1: t^2 h(t) -> 0.  Condition 2: the modulus
    t^4 sup_{|s|<=1} |h(t + s(8 log t + 1)/t) - h(t)| -> 0, with the
    s-supremum taken over a fixed 21-point grid.  The log grid of
    CONDITION_SAMPLES points runs from t = 10 to ``t_max``, which must be
    finite and above 10 (ValueError).
    """
    # written so that a NaN fails the test
    if not 10.0 < t_max < np.inf:
        raise ValueError(f"need 10 < t_max < inf, got t_max={t_max}")
    ts = np.exp(np.linspace(np.log(10.0), np.log(t_max), CONDITION_SAMPLES))
    q1 = ts ** 2 * np.asarray(spec.h(ts), dtype=float)

    s_grid = np.linspace(-1.0, 1.0, 21)
    q2 = np.empty_like(ts)
    for i, t in enumerate(ts):
        shift = s_grid * (8.0 * np.log(t) + 1.0) / t
        q2[i] = t ** 4 * np.max(np.abs(spec.h(t + shift) - spec.h(t)))

    return {
        "condh1": ConditionReport("condh1", ts, q1, _verdict(q1)),
        "condh2": ConditionReport("condh2", ts, q2, _verdict(q2)),
    }


def delta_k(mu: float, spec: PerturbationSpec) -> float:
    """Perturbation scale at center value mu.

    max of: the s-supremum of |h(mu + s(8 log mu + 1)/mu) - h(mu)| over a
    201-point grid in [-1, 1]; the floor 1/mu^6; and h(mu)/mu^2.
    """
    if mu <= 1:
        raise ValueError("need mu > 1")
    s = np.linspace(-1.0, 1.0, 201)
    shift = s * (8.0 * np.log(mu) + 1.0) / mu
    h_mu = float(spec.h(np.asarray(mu)))
    sup_term = float(np.max(np.abs(spec.h(mu + shift) - h_mu)))
    return max(sup_term, mu ** -6, h_mu / mu ** 2)


# name -> builder of each built-in family, in the order the CLI lists them
FAMILIES: Dict[str, Callable[..., PerturbationSpec]] = {
    "trivial": trivial,
    "log-power": log_power_family,
    "oscillating": oscillating_family,
    "inverse-square": inverse_square_tail,
}


def family_by_name(name: str, **params) -> PerturbationSpec:
    """Factory used by the command-line interface."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name](**params)
