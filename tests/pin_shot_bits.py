"""Pin the shots' numbers bit for bit: write tests/shot_bits.json.

Run from the repository root as ``PYTHONPATH=src python3 tests/pin_shot_bits.py``.
For every mu of the benchmark's sweep lattice (``perfbench/workloads.py``)
and both of its families it records log R, the total and inner energies,
the end state and the nodes of the shot, and the ``pde_residual`` of the
shots at RESIDUAL_MUS; the same numbers of the inverse-square shots that
``threshold_a`` takes (THRESHOLD_AMPLITUDES at THRESHOLD_MUS, tolerance
THRESHOLD_SHOT_TOL) and of one oscillating-family shot; of the linearized
w0 and z0 solves, the nodes and the whole state read at READ_T.  JSON
keeps each float as its repr, so the file holds every bit, and
``tests/test_shooting.py::test_shot_bits_are_pinned`` recomputes the
values with :func:`shot_bits` and compares them by ==.  Rerun this script
only for a change that is meant to move a shot's numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from mtlab.analysis import A_HI, A_LO, THRESHOLD_SHOT_TOL
from mtlab.linearized import solve_linearized, source_w0, source_z0
from mtlab.perturbations import family_by_name, inverse_square_tail, oscillating_family
from mtlab.shooting import pde_residual, shoot

PINNED = Path(__file__).with_name("shot_bits.json")
# the families of perfbench's sweep_families(), by name and parameters
FAMILIES = {"trivial": {}, "log-power": {"a": 1.0, "p": 3.0}}
RESIDUAL_MUS = (2.0, 6.0, 12.0, 24.0)  # lattice mus whose shots' pde_residual is pinned
# threshold_a's bracket and two amplitudes inside it, at two probe mus
THRESHOLD_AMPLITUDES = (A_LO, 1.0, 2.0, A_HI)
THRESHOLD_MUS = (10.0, 14.0)
OSCILLATING_MU = 5.0
LINEARIZED = {"w0": source_w0, "z0": source_z0}
# from below the solves' first node, on the fitted series, to their end at r = 1e6
READ_T = np.linspace(np.log(1e-7), np.log(1e6), 50)


def _shot_values(sol) -> dict:
    return {
        "log_R": sol.log_R,
        "energy_total": sol.energy_total,
        "energy_inner": sol.energy_inner,
        "end_state": sol.eta.end_state.tolist(),
        "t_nodes": sol.eta.grid.t_nodes.tolist(),
    }


def shot_bits(mus, families) -> dict:
    """The pinned values of the shots at ``mus``, of the threshold and
    oscillating shots and of the w0 and z0 solves."""
    shots, residuals = {}, {}
    for name, params in families.items():
        spec = family_by_name(name, **params)
        for mu in mus:
            sol = shoot(mu, spec)
            shots[f"{name} {mu!r}"] = _shot_values(sol)
            if mu in RESIDUAL_MUS:
                residuals[f"{name} {mu!r}"] = pde_residual(sol)
    others = {}
    for a in THRESHOLD_AMPLITUDES:
        for mu in THRESHOLD_MUS:
            sol = shoot(mu, inverse_square_tail(a), tol=THRESHOLD_SHOT_TOL)
            others[f"inverse-square a={a!r} {mu!r}"] = _shot_values(sol)
    others[f"oscillating {OSCILLATING_MU!r}"] = _shot_values(
        shoot(OSCILLATING_MU, oscillating_family()))
    linearized = {}
    for name, source in LINEARIZED.items():
        sol = solve_linearized(source)
        linearized[name] = {"t_nodes": sol.grid.t_nodes.tolist(),
                            "reads": sol.eval_state_t(READ_T).tolist()}
    return {"shots": shots, "pde_residuals": residuals, "other_shots": others,
            "linearized": linearized}


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import sweep_lattice

    mus = sweep_lattice()
    pinned = {"mus": mus, "families": FAMILIES, **shot_bits(mus, FAMILIES)}
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
