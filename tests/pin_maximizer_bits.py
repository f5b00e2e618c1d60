"""Pin the maximizer's outputs bit for bit: write tests/maximizer_bits.json.

Run from the repository root as ``PYTHONPATH=src python3 tests/pin_maximizer_bits.py``.
For the trivial, log-power and oscillating families at alpha / 4 pi in
FRACS on SINGLE_NODES nodes (one level), and for the trivial family at
NESTED_FRAC on NESTED_NODES nodes (a coarse level first), it records the
result's value, lambda_hat, iterations, evaluations, stationarity and
the field's nodal values.  JSON keeps each float as its repr, so the file
holds every bit, and ``tests/test_maximizer.py::test_maximizer_bits_are_pinned``
recomputes the numbers with :func:`maximizer_bits` and compares them by
==.  Rerun this script only for a change that is meant to move them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from mtlab.maximizer import maximize_subcritical
from mtlab.perturbations import family_by_name

PINNED = Path(__file__).with_name("maximizer_bits.json")
FAMILIES = {"trivial": {}, "log-power": {"a": 1.0, "p": 3.0}, "oscillating": {}}
FRACS = (0.5, 0.9, 0.999)
SINGLE_NODES = 256
NESTED_FRAC, NESTED_NODES = 0.9, 4096


def _result_values(res) -> dict:
    return {
        "value": float(res.value),
        "lambda_hat": float(res.lambda_hat),
        "iterations": res.iterations,
        "evaluations": res.evaluations,
        "stationarity": float(res.stationarity),
        "values": res.field.values.tolist(),
    }


def maximizer_bits() -> dict:
    """The pinned numbers of every run, keyed '<family> <frac> n=<nodes>'."""
    runs = [(name, frac, SINGLE_NODES) for name in FAMILIES for frac in FRACS]
    runs.append(("trivial", NESTED_FRAC, NESTED_NODES))
    bits = {}
    for name, frac, n_nodes in runs:
        spec = family_by_name(name, **FAMILIES[name])
        res = maximize_subcritical(frac * 4.0 * np.pi, spec, n_nodes=n_nodes)
        bits[f"{name} {frac!r} n={n_nodes}"] = _result_values(res)
    return bits


def main() -> None:
    PINNED.write_text(json.dumps(maximizer_bits(), indent=1) + "\n")


if __name__ == "__main__":
    main()
