"""Seeded workloads of the mtlab benchmark: inputs, operations and checks.

A workload is built from a seed into one *pass*: a list of operations.
Each operation is one unit of one kind of work (a c(mu) row, a branch
search, a maximization, a theory evaluation), so latency percentiles
never mix kinds.  mtlab only ever receives the generated numbers; the
seed picks them from lattices whose reference values are committed in
``references.json`` (see ``make_references.py``).

Every operation returns the evidence it produced and a separate check
compares that evidence against the references with the tolerances of the
acceptance suite.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from mtlab import (analysis, cli, linearized, maximizer, perturbations,
                   profiles, shooting)

FOUR_PI = 4.0 * np.pi
REFERENCES = Path(__file__).with_name("references.json")

# --- lattices the seed draws from (make_references.py covers all of them) --

SWEEP_ANCHORS = (2.0, 6.0, 12.0, 24.0)
# One extra point within 1 of each centre keeps the cost of a pass nearly
# independent of the seed.  Row cost grows with mu, so four rows below 12
# and four above put the anchor mu=12 in the middle: the median latency
# then falls inside one row's samples, not in the gap between two rows.
SWEEP_CENTRES = (4.0, 9.0, 14.0, 17.0, 20.0)
SWEEP_OFFSETS = (-1.0, -0.5, 0.0, 0.5, 1.0)
SWEEP_REF_TOL = 1e-13

SEARCH_EDGE_STEP = 0.0125
SEARCH_EDGE_SHIFTS = tuple(range(-4, 5))
SEARCH_PROBES = tuple(10.0 + 0.5 * k for k in range(9))

# alpha / 4 pi candidates per criterion-12 rung
MAXIMIZE_RUNGS = {
    "half": (0.49, 0.495, 0.5, 0.505, 0.51),
    "near": (0.895, 0.8975, 0.9, 0.9025, 0.905),
    "top": (0.9985, 0.99875, 0.999, 0.99925),
}
MAXIMIZE_TOP_MAX_ITER = 600
MAXIMIZE_FINE_NODES = 8192

THEORY_AMPLITUDES = tuple(0.25 * k for k in range(1, 13))
THEORY_OPS_PER_PASS = 8
THEORY_RADII = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 500))

# --- tolerances (those of tests/test_acceptance.py where one exists) -------

# |E - E_ref| on the total energy, i.e. |c - c_ref| <= SWEEP_ENERGY_TOL mu^4.
# Shots at the default tol=1e-11 miss the tol=1e-13 reference by at most
# 2.9e-10 (log-power family, mu=4; ~9e-12 for mu >= 6); shots at tol=1e-8
# miss it by 3.5e-9 to 1.4e-6 at every anchor and fail.
SWEEP_ENERGY_TOL = 1e-9
LAMBDA_STAR_TOL = 1e-10
A_CRIT_TOL = 1e-3          # the bisection resolution a_tol of threshold_a
MAXIMIZE_VALUE_TOL = 1e-5
TABLE_REL_TOL = 1e-8
PROFILE_ABS_TOL = 1e-8
BETA_ODE_TOL = 1e-3
BETA_INTEGRAL_TOL = 1e-6


class CheckFailed(AssertionError):
    """An operation's output missed its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def key(x: float) -> str:
    """Stable text key of a lattice point in references.json."""
    return repr(round(float(x), 6))


def sweep_lattice() -> List[float]:
    extra = {c + d for c in SWEEP_CENTRES for d in SWEEP_OFFSETS}
    return sorted(set(SWEEP_ANCHORS) | extra)


def sweep_families() -> Dict[str, perturbations.PerturbationSpec]:
    return {"trivial": perturbations.trivial(),
            "log-power": perturbations.log_power_family(a=1.0, p=3.0)}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


@dataclass
class Op:
    """One timed unit of work and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    tag: str = ""


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: Op
    deadline_s: float
    specs: List[perturbations.PerturbationSpec] = field(default_factory=list)


# --- sweep ------------------------------------------------------------------

def _sweep_row(mu: float, families, refs) -> Op:
    c_ref = {name: refs["sweep"]["c"][name][key(mu)] for name in families}
    tol = SWEEP_ENERGY_TOL * mu ** 4

    def run():
        return {name: mu ** 4 * (shooting.shoot(mu, spec).energy_total - FOUR_PI)
                for name, spec in families.items()}

    def check(cs):
        for name, c in cs.items():
            _require(abs(c - c_ref[name]) <= tol,
                     f"c({mu}) of {name} = {c!r}, reference {c_ref[name]!r}")

    return Op(f"row mu={mu:g}", run, check)


def build_sweep(rng: random.Random, refs: dict, workdir: str) -> Workload:
    families = sweep_families()
    mus = sorted(SWEEP_ANCHORS + tuple(c + rng.choice(SWEEP_OFFSETS)
                                       for c in SWEEP_CENTRES))
    return Workload("sweep", [_sweep_row(mu, families, refs) for mu in mus],
                    warmup=_sweep_row(SWEEP_ANCHORS[0], families, refs),
                    deadline_s=20.0, specs=list(families.values()))


# --- search -----------------------------------------------------------------

def build_search(rng: random.Random, refs: dict, workdir: str) -> Workload:
    spec = perturbations.trivial()
    lo = 2.0 + SEARCH_EDGE_STEP * rng.choice(SEARCH_EDGE_SHIFTS)
    hi = 7.0 + SEARCH_EDGE_STEP * rng.choice(SEARCH_EDGE_SHIFTS)
    probe = rng.choice(SEARCH_PROBES)
    grid = np.linspace(lo, hi, 11)
    lambda_ref = refs["search"]["lambda_star"]
    a_ref = refs["search"]["a_crit"][key(probe)]

    def run():
        scan = analysis.branch_scan(grid, spec, level_fractions=(0.5,))
        (lam, roots), = scan.pairs.items()
        checks = [analysis.verify_branch_root(mu, lam, spec)
                  for mu in (roots[0], roots[-1])]
        return scan.lambda_star, roots, checks, analysis.threshold_a(probe).a_crit

    def check(out):
        lambda_star, roots, checks, a_crit = out
        _require(abs(lambda_star - lambda_ref) <= LAMBDA_STAR_TOL,
                 f"Lambda* = {lambda_star!r}, reference {lambda_ref!r}")
        _require(len(roots) >= 2 and roots[0] != roots[-1],
                 f"midpoint level has roots {roots}, expected two")
        for gap, resid in checks:
            _require(gap <= analysis.SLACK["branch_root_tol"], f"|E - Lambda| = {gap!r}")
            _require(resid <= analysis.SLACK["residual_bound"], f"residual = {resid!r}")
        _require(abs(a_crit - a_ref) <= A_CRIT_TOL,
                 f"a_crit({probe}) = {a_crit!r}, reference {a_ref!r}")

    def warm():
        analysis.verify_branch_root(4.0, FOUR_PI, spec)
        return analysis.threshold_a(probe, a_tol=1.0).a_crit

    label = f"search [{lo:g}, {hi:g}] probe={probe:g}"
    return Workload("search", [Op(label, run, check)],
                    warmup=Op("warm-up", warm, lambda out: None),
                    deadline_s=60.0, specs=[spec])


# --- maximize ---------------------------------------------------------------

def _maximize_op(rung: str, frac: float, spec, refs, n_nodes: int = 4096,
                 max_iter: int = 200) -> Op:
    ref = refs["maximize"][f"{rung}@{n_nodes}"][key(frac)]

    def run():
        return maximizer.maximize_subcritical(frac * FOUR_PI, spec,
                                              n_nodes=n_nodes, max_iter=max_iter)

    def check(res):
        _require(res.converged, f"ascent at {frac} still improving")
        _require(abs(res.value - ref) <= MAXIMIZE_VALUE_TOL,
                 f"F at {frac} 4pi ({n_nodes} nodes) = {res.value!r}, reference {ref!r}")
        _require(maximizer.pointwise_moser_bound(res).holds,
                 f"pointwise Moser bound violated at {frac} 4pi")

    return Op(f"maximize {frac:g}*4pi n={n_nodes}", run, check, tag=rung)


def build_maximize(rng: random.Random, refs: dict, workdir: str) -> Workload:
    spec = perturbations.trivial()
    half, near, top = (rng.choice(MAXIMIZE_RUNGS[r]) for r in ("half", "near", "top"))
    ops = [
        _maximize_op("half", half, spec, refs),
        _maximize_op("near", near, spec, refs),
        _maximize_op("top", top, spec, refs, max_iter=MAXIMIZE_TOP_MAX_ITER),
        _maximize_op("near", near, spec, refs, n_nodes=MAXIMIZE_FINE_NODES),
    ]
    warm = Op("warm-up", lambda: maximizer.maximize_subcritical(
        half * FOUR_PI, spec, n_nodes=256), lambda out: None)
    return Workload("maximize", ops, warmup=warm, deadline_s=60.0, specs=[spec])


# --- theory -----------------------------------------------------------------

def _read_csv(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def build_theory(rng: random.Random, refs: dict, workdir: str) -> Workload:
    tables_path = os.path.join(workdir, "tables.csv")
    beta_path = os.path.join(workdir, "beta.csv")
    table_refs = refs["theory"]["tables"]
    beta_ref = refs["theory"]["beta_z0"]
    # closed forms evaluated once here, outside every timed or traced region
    w0_exact = profiles.w0(THEORY_RADII)
    zeta0_exact = profiles.zeta0(THEORY_RADII)

    def make(a: float) -> Op:
        def run():
            rc_tables = cli.main(["tables", "--output", tables_path])
            rc_beta = cli.main(["beta", "--output", beta_path])
            w0 = linearized.solve_linearized(linearized.source_w0, r_max=2e3)
            wa = linearized.solve_linearized(linearized.source_wa(a), r_max=2e3)
            return rc_tables, rc_beta, w0, wa

        def check(out):
            rc_tables, rc_beta, w0, wa = out
            _require(rc_tables == 0 and rc_beta == 0,
                     f"mtlab tables/beta exited {rc_tables}/{rc_beta}")
            rows = {row[0]: row[1:] for row in _read_csv(tables_path)[1:]}
            for name, closed in table_refs.items():
                _require(float(rows[name][0]) == closed, f"closed form of {name} changed")
                value = float(rows[name][1])
                _require(abs(value - closed) <= TABLE_REL_TOL * abs(closed),
                         f"table {name} = {value!r}, closed form {closed!r}")
            routes = {row[0]: float(row[1]) for row in _read_csv(beta_path)[1:]}
            _require(abs(routes["ode_tail"] - beta_ref) <= BETA_ODE_TOL,
                     f"ODE slope {routes['ode_tail']!r}")
            _require(abs(routes["weighted_integral"] - beta_ref) <= BETA_INTEGRAL_TOL,
                     f"integral slope {routes['weighted_integral']!r}")
            u0, _ = w0.eval(THEORY_RADII)
            _require(np.max(np.abs(u0 - w0_exact)) <= PROFILE_ABS_TOL, "w0 misses closed form")
            ua, _ = wa.eval(THEORY_RADII)
            _require(np.max(np.abs(ua - w0_exact + a * zeta0_exact)) <= PROFILE_ABS_TOL,
                     f"w_a (a={a}) misses w0 - a zeta0")

        return Op(f"theory a={a:g}", run, check)

    amplitudes = [rng.choice(THEORY_AMPLITUDES) for _ in range(THEORY_OPS_PER_PASS)]
    return Workload("theory", [make(a) for a in amplitudes],
                    warmup=make(THEORY_AMPLITUDES[0]), deadline_s=10.0)


BY_NAME = {"sweep": build_sweep, "search": build_search,
            "maximize": build_maximize, "theory": build_theory}
WORKLOADS = tuple(BY_NAME)


def build(name: str, seed: int, workdir: str,
          refs: Optional[dict] = None) -> Workload:
    """The seeded pass of workload ``name``; ``workdir`` takes CLI outputs."""
    refs = load_references() if refs is None else refs
    return BY_NAME[name](random.Random(seed), refs, workdir)
