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


def test_root_and_ode_kernels_live_in_numerics_only():
    # The core-radius root and the sphere-radius ODE are internal to their
    # one caller each; the package namespace does not re-export them.
    import ahiso.numerics

    for name in ("solve_ode", "find_root", "OdeSolution"):
        assert name not in ahiso.__all__
        assert not hasattr(ahiso, name)
        assert name in ahiso.numerics.__all__
        assert hasattr(ahiso.numerics, name)
