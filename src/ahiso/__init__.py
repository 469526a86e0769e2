"""Isoperimetry and quasi-local mass for rotationally symmetric
asymptotically hyperbolic 3-manifolds.

The package is organized from the inside out:

- numerics: adaptive quadrature and Newton inversion of integrals, plus
  the radius ODE of imcf and the core-radius root of models (those two
  kernels are not exported here; they live in ``ahiso.numerics``)
- models: radial metrics in area-radius form and their validation
- spheres: geometry of the centered spheres (curvatures, Hawking mass,
  stability)
- imcf: inverse mean curvature flow and the area comparison curve
- profiles: isoperimetric profiles, renormalized volume, and the
  large-volume gap
- cli: reproducible command-line runs with manifest-stamped outputs
"""

from .imcf import ComparisonCurve, Flow, comparison_ode, flow_spheres
from .models import (
    RadialMetric,
    ValidationReport,
    coordinate_gap,
    default_grid,
    gap_over_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    s_from_rho,
    scalar_curvature_excess,
    validate_ah,
)
from .numerics import NumericsError, QuadResult, integrate
from .profiles import (
    ProfileTable,
    RenormVolumeResult,
    gap_table,
    hyperbolic_profile,
    model_radius_for_volume,
    model_volume,
    renormalized_volume,
)
from .spheres import (
    SphereGeometry,
    jacobi_spectrum,
    sphere_data,
    stability_total,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonCurve",
    "Flow",
    "NumericsError",
    "ProfileTable",
    "QuadResult",
    "RadialMetric",
    "RenormVolumeResult",
    "SphereGeometry",
    "ValidationReport",
    "__version__",
    "comparison_ode",
    "coordinate_gap",
    "gap_over_grid",
    "default_grid",
    "flow_spheres",
    "gap_table",
    "hyperbolic_profile",
    "integrate",
    "jacobi_spectrum",
    "make_ads_schwarzschild",
    "make_hyperbolic",
    "make_perturbed",
    "model_radius_for_volume",
    "model_volume",
    "renormalized_volume",
    "s_from_rho",
    "scalar_curvature_excess",
    "sphere_data",
    "stability_total",
    "validate_ah",
]
