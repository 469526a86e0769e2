"""Geometry of centered coordinate spheres.

Every sphere {s = const} in a radial model is round and umbilic, so all
of its extrinsic data reduces to closed forms in s, f(s), f'(s):

    area     = 4 pi s^2
    H        = (2/s) sqrt(f)
    |A|^2    = H^2 / 2,   |Aring|^2 = 0
    K        = 1 / s^2
    Ric(nu)  = R/2 + f/s^2 - 1/s^2    (= -f'/(2s) * 2, same thing)

together with the Hawking mass and the spherical-harmonic spectrum of
the stability operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import RadialMetric

__all__ = [
    "SphereGeometry",
    "sphere_data",
    "sphere_data_from_profile",
    "hawking_mass",
    "stability_total",
    "jacobi_spectrum",
    "gauss_bonnet_total",
]

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi


@dataclass(frozen=True)
class SphereGeometry:
    """Invariants of one centered sphere.

    Fields mirror the geometric quantities: ``traceless_norm_sq`` is
    |Aring|^2 (zero by umbilicity), ``second_fund_norm_sq`` is |A|^2,
    ``ricci_normal`` is Ric(nu, nu) of the ambient metric, ``scalar``
    the ambient scalar curvature, ``gauss_curvature`` the intrinsic K.
    """

    s: float
    area: float
    mean_curvature: float
    traceless_norm_sq: float
    second_fund_norm_sq: float
    ricci_normal: float
    gauss_curvature: float
    scalar: float
    hawking_mass: float

    def gauss_equation_residual(self) -> float:
        """K - (R/2 - Ric(nu) + H^2/4 - |Aring|^2/2); zero in exact arithmetic."""
        rhs = (
            0.5 * self.scalar
            - self.ricci_normal
            + 0.25 * self.mean_curvature ** 2
            - 0.5 * self.traceless_norm_sq
        )
        return self.gauss_curvature - rhs


def sphere_data_from_profile(s: float, f_val: float, fp_val: float, hawking: float | None = None) -> SphereGeometry:
    """Build the geometry from raw profile samples f(s), f'(s).

    Useful for synthetic profiles (the flat test case f = 1) where no
    RadialMetric exists.  ``hawking`` overrides the Hawking mass field;
    when omitted it is computed from the literal defining formula.
    """
    if s <= 0.0 or f_val <= 0.0:
        raise ValueError("need s > 0 and f(s) > 0")
    area = FOUR_PI * s * s
    h = 2.0 * math.sqrt(f_val) / s
    r = (2.0 / (s * s)) * (1.0 - f_val - s * fp_val)
    ric = 0.5 * r + f_val / (s * s) - 1.0 / (s * s)
    k = 1.0 / (s * s)
    if hawking is None:
        hawking = (math.sqrt(area) / SIXTEEN_PI ** 1.5) * (
            SIXTEEN_PI - area * (h * h - 4.0)
        )
    return SphereGeometry(
        s=s,
        area=area,
        mean_curvature=h,
        traceless_norm_sq=0.0,
        second_fund_norm_sq=0.5 * h * h,
        ricci_normal=ric,
        gauss_curvature=k,
        scalar=r,
        hawking_mass=hawking,
    )


def sphere_data(metric: RadialMetric, s: float) -> SphereGeometry:
    """Geometry of the coordinate sphere at area-radius s."""
    if not math.isfinite(s) or s <= metric.core_radius:
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {s!r}"
        )
    f_val = metric.f(s)
    fp_val = metric.f_prime(s)
    # The Hawking mass reduces to -(s/2) d(s): area*(H^2-4) = 16 pi (1 + d)
    # with d the deficit, so the 16 pi cancels exactly.  Forming H^2 - 4 in
    # floating point instead loses ~1e-7 absolute by s = 1e3.
    hawking = -0.5 * s * metric.deficit(s)
    return sphere_data_from_profile(s, f_val, fp_val, hawking=hawking)


def hawking_mass(geom: SphereGeometry) -> float:
    """Hawking mass from the defining formula on the stored fields.

    (area^{1/2} / (16 pi)^{3/2}) * (16 pi - area (H^2 - 4)).  On spheres
    built by sphere_data this agrees with the stored ``hawking_mass`` up
    to the rounding of H^2 - 4 (about 1e-7 at s = 1e3); the stored field
    is the cancellation-free evaluation.
    """
    return (math.sqrt(geom.area) / SIXTEEN_PI ** 1.5) * (
        SIXTEEN_PI - geom.area * (geom.mean_curvature ** 2 - 4.0)
    )


def _stability_density(metric: RadialMetric, s: float) -> float:
    """Ric(nu) + |A|^2 = (2 + 2 d - s d') / s^2, cancellation-free.

    Direct evaluation through Ric and H rounds at the 1e-16 * s^2 level,
    which the 8 pi identity for hyperbolic space cannot afford at large s.
    """
    d = metric.deficit(s)
    dp = metric.deficit_prime(s)
    return (2.0 + 2.0 * d - s * dp) / (s * s)


def stability_total(metric: RadialMetric, s: float) -> float:
    """int_Sigma (Ric(nu) + |A|^2) dmu = area * (Ric(nu) + H^2/2).

    Equals 8 pi for hyperbolic space at every radius and
    8 pi - 24 pi m / s for AdS-Schwarzschild.
    """
    if not math.isfinite(s) or s <= metric.core_radius:
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {s!r}"
        )
    return FOUR_PI * s * s * _stability_density(metric, s)


def jacobi_spectrum(
    metric: RadialMetric, s: float, l_max: int
) -> list[tuple[int, float]]:
    """Eigenvalues of the stability form, diagonalized by harmonics.

    The induced metric is the round sphere of radius s, so the quadratic
    form Q(phi) = int |grad phi|^2 - (Ric(nu) + |A|^2) phi^2 has exact
    eigenvalues lambda_l = l(l+1)/s^2 - (Ric(nu) + |A|^2), each with
    multiplicity 2l + 1.  No discretization is involved.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max!r}")
    if not math.isfinite(s) or s <= metric.core_radius:
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {s!r}"
        )
    q = _stability_density(metric, s)
    s2 = s * s
    return [(l, l * (l + 1) / s2 - q) for l in range(l_max + 1)]


def gauss_bonnet_total(metric: RadialMetric, s: float) -> float:
    """int_Sigma K dmu; equals 4 pi (1 - genus) with genus 0."""
    if not math.isfinite(s) or s <= metric.core_radius:
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {s!r}"
        )
    area = FOUR_PI * s * s
    return area * (1.0 / (s * s))
