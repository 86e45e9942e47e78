"""Every name a module of aoisched exports in __all__ exists in it, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import aoisched

MODULES = [m.name for m in pkgutil.iter_modules(aoisched.__path__)]


def test_modules_found():
    assert {"cli", "decomposed", "mdp", "policies", "sim", "stability"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"aoisched.{name}")
    if name == "cli":  # the command-line front end exports nothing
        assert not hasattr(module, "__all__")
        return
    exports = module.__all__
    assert len(set(exports)) == len(exports), "repeated name in __all__"
    missing = [n for n in exports if not hasattr(module, n)]
    assert not missing, f"aoisched.{name}.__all__ names {missing}"
