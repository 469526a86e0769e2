"""Isoperimetry and quasi-local mass for rotationally symmetric
asymptotically hyperbolic 3-manifolds.

The package is organized from the inside out:

- numerics: adaptive quadrature, embedded Runge-Kutta, bracketed roots
- models: radial metrics in area-radius form and their validation
- spheres: geometry of the centered spheres (curvatures, Hawking mass,
  stability)
- imcf: inverse mean curvature flow and the area comparison ODE
- profiles: isoperimetric profiles, renormalized volume, and the
  large-volume gap
- cli: reproducible command-line runs with manifest-stamped outputs
"""

from .imcf import ComparisonCurve, FlowSample, comparison_ode, flow_spheres, t_of_v
from .models import (
    RadialMetric,
    ValidationReport,
    coordinate_gap,
    default_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    rho_from_s,
    s_from_rho,
    scalar_curvature,
    scalar_curvature_excess,
    validate_ah,
)
from .numerics import NumericsError, OdeSolution, QuadResult, find_root, integrate, solve_ode
from .profiles import (
    ProfileSample,
    RenormVolumeResult,
    gap_table,
    hyperbolic_profile,
    hyperbolic_volume,
    model_profile,
    model_radius_for_volume,
    model_volume,
    profile_monotone_check,
    renormalized_volume,
)
from .spheres import (
    SphereGeometry,
    gauss_bonnet_total,
    hawking_mass,
    jacobi_spectrum,
    sphere_data,
    sphere_data_from_profile,
    stability_total,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonCurve",
    "FlowSample",
    "NumericsError",
    "OdeSolution",
    "ProfileSample",
    "QuadResult",
    "RadialMetric",
    "RenormVolumeResult",
    "SphereGeometry",
    "ValidationReport",
    "__version__",
    "comparison_ode",
    "coordinate_gap",
    "default_grid",
    "find_root",
    "flow_spheres",
    "gap_table",
    "gauss_bonnet_total",
    "hawking_mass",
    "hyperbolic_profile",
    "hyperbolic_volume",
    "integrate",
    "jacobi_spectrum",
    "make_ads_schwarzschild",
    "make_hyperbolic",
    "make_perturbed",
    "model_profile",
    "model_radius_for_volume",
    "model_volume",
    "profile_monotone_check",
    "renormalized_volume",
    "rho_from_s",
    "s_from_rho",
    "scalar_curvature",
    "scalar_curvature_excess",
    "solve_ode",
    "sphere_data",
    "sphere_data_from_profile",
    "stability_total",
    "t_of_v",
    "validate_ah",
]
