"""Numerical laboratory for radial critical points of the perturbed
Moser-Trudinger functional on the unit disk.

Modules
-------
profiles
    Closed-form blow-up profiles (Liouville bubble and its corrections).
radial_ode
    Adaptive initial-value integration of radial equations in log radius.
linearized
    Linearized Liouville equations and log-slope extraction.
quadrature
    Weighted plane integrals, the slope cross-oracle and integral tables.
perturbations
    Perturbation families (g, h) and decay-condition checkers.
shooting
    Shooting solver for the Euler-Lagrange equation, energies and residuals.
analysis
    Energy-expansion scans, residual hierarchy, thresholds and the branch.
maximizer
    Constrained maximization of the functional at subcritical energy.
cli
    Command-line entry point (``mtlab``) and the only CSV/JSON renderer.
"""

__version__ = "0.1.0"

__all__ = [
    "profiles",
    "radial_ode",
    "linearized",
    "quadrature",
    "perturbations",
    "shooting",
    "analysis",
    "maximizer",
]
