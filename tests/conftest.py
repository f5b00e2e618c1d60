"""Shared fixtures: expensive shots and tables are computed once per session.

Hypothesis runs derandomized, so every property test draws the same
examples on every run and a tier-1 result is reproducible.
"""

import numpy as np
import pytest
from hypothesis import settings

from mtlab.perturbations import trivial
from mtlab.quadrature import integral_tables
from mtlab.shooting import shoot

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def trivial_spec():
    return trivial()


@pytest.fixture(scope="session")
def shots(trivial_spec):
    """Unperturbed shots at the standard center values, keyed by mu."""
    return {mu: shoot(mu, trivial_spec) for mu in (6.0, 8.0, 10.0, 12.0)}


@pytest.fixture(scope="session")
def tables():
    return integral_tables()
