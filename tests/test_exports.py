"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import hfmm

# cli is the command-line entry point and exports nothing
MODULES = ["hfmm"] + [f"hfmm.{m.name}" for m in pkgutil.iter_modules(hfmm.__path__)
                      if m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
