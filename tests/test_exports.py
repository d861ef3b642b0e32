"""Every name a module exports resolves, so a class that was removed or
renamed cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import bloomsim

MODULES = [info.name for info in pkgutil.iter_modules(bloomsim.__path__, "bloomsim.")]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_every_solver_module_is_covered():
    assert {"bloomsim.core", "bloomsim.ode", "bloomsim.solver1d", "bloomsim.solver2d"} <= set(MODULES)
