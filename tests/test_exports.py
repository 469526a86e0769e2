"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import ahiso

MODULES = ["ahiso"] + [
    f"ahiso.{info.name}" for info in pkgutil.iter_modules(ahiso.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
