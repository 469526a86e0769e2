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


@pytest.mark.parametrize(
    "module, name",
    [
        ("ahiso.profiles", "hyperbolic_volume"),
        ("ahiso.models", "scalar_curvature"),
        ("ahiso.numerics", "integrate_panels"),
        ("ahiso.spheres", "sphere_data_from_profile"),
        ("ahiso.spheres", "hawking_mass"),
        ("ahiso.spheres", "gauss_bonnet_total"),
    ],
)
def test_deleted_names_are_gone(module, name):
    # Nothing in the package, its scripts or its benchmark called them.
    mod = importlib.import_module(module)
    for owner in (ahiso, mod):
        assert name not in owner.__all__
        assert not hasattr(owner, name)


def test_rho_from_s_lives_in_models_only():
    # The spheres table takes rho from the gap sweep; the benchmark tracer
    # still rebinds ahiso.models.rho_from_s.
    import ahiso.models

    assert "rho_from_s" not in ahiso.__all__
    assert not hasattr(ahiso, "rho_from_s")
    assert "rho_from_s" in ahiso.models.__all__
    assert hasattr(ahiso.models, "rho_from_s")
