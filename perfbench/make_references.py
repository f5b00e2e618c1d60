"""Compute references.json, the reference values the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_references.py

It shoots every sweep lattice point at tol=1e-13, runs the canonical
criterion-11 branch scan for Lambda* and threshold_a at every probe mu,
maximizes at every candidate alpha of every rung, and records the closed
forms the theory workload compares with.  It takes two to three minutes
on a 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mtlab import analysis, maximizer, perturbations, quadrature, shooting  # noqa: E402

import workloads as wl  # noqa: E402


def sweep_refs() -> dict:
    out = {}
    for name, spec in wl.sweep_families().items():
        out[name] = {}
        for mu in wl.sweep_lattice():
            sol = shooting.shoot(mu, spec, tol=wl.SWEEP_REF_TOL)
            out[name][wl.key(mu)] = mu ** 4 * (sol.energy_total - wl.FOUR_PI)
    return {"tol": wl.SWEEP_REF_TOL, "c": out}


def search_refs() -> dict:
    scan = analysis.branch_scan(np.linspace(2.0, 7.0, 11), perturbations.trivial(),
                                level_fractions=(0.5,))
    a_crit = {wl.key(mu): analysis.threshold_a(mu).a_crit for mu in wl.SEARCH_PROBES}
    return {"lambda_star": scan.lambda_star, "a_crit": a_crit}


def maximize_refs() -> dict:
    spec = perturbations.trivial()
    runs = [("half", 4096, 200), ("near", 4096, 200),
            ("top", 4096, wl.MAXIMIZE_TOP_MAX_ITER),
            ("near", wl.MAXIMIZE_FINE_NODES, 200)]
    out = {}
    for rung, n_nodes, max_iter in runs:
        table = out.setdefault(f"{rung}@{n_nodes}", {})
        for frac in wl.MAXIMIZE_RUNGS[rung]:
            res = maximizer.maximize_subcritical(frac * wl.FOUR_PI, spec,
                                                 n_nodes=n_nodes, max_iter=max_iter)
            if not res.converged:
                raise RuntimeError(f"no convergence at {frac} 4pi, {n_nodes} nodes")
            table[wl.key(frac)] = res.value
    return out


def theory_refs() -> dict:
    tables = quadrature.integral_tables()
    return {"tables": {name: float(closed) for name, (closed, _) in tables.items()},
            "beta_z0": -6.0 - np.pi ** 2 / 3.0}


def main() -> None:
    refs = {}
    for name, fn in (("sweep", sweep_refs), ("search", search_refs),
                     ("maximize", maximize_refs), ("theory", theory_refs)):
        t0 = time.perf_counter()
        refs[name] = fn()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(wl.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
