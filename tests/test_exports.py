"""Every name a module exports resolves."""

import importlib

import pytest

import mtlab

NAMES = ["mtlab", *(f"mtlab.{name}" for name in mtlab.__all__), "mtlab.cli"]
# importing every submodule binds it on the package, as `from mtlab import *` does
MODULES = {name: importlib.import_module(name) for name in NAMES}


@pytest.mark.parametrize("module_name", NAMES)
def test_all_names_resolve(module_name):
    module = MODULES[module_name]
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
