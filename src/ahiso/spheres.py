"""Geometry of centered coordinate spheres.

Every sphere {s = const} in a radial model is round and umbilic, so all
of its data reduces to closed forms in s, the deficit d = f - (1 + s^2)
and the scalar curvature excess R + 6 of
:func:`models.scalar_curvature_excess`, each evaluated term by term:

    area     = 4 pi s^2
    H        = (2/s) sqrt(f),   f = 1 + s^2 + d
    |A|^2    = H^2 / 2,   |Aring|^2 = 0
    K        = 1 / s^2
    R        = (R + 6) - 6
    Ric(nu)  = -f'/s = -2 + (R + 6)/2 + d/s^2

since -s d' = s^2 (R + 6)/2 + d.  No f' is formed: R from f' cancels
terms of order one to rounding, below -6 by up to 1.5e-14 on hyperbolic
space.  The module also gives the Hawking mass, as -(s/2) d, and the
spherical-harmonic spectrum of the stability operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import RadialMetric, scalar_curvature_excess

__all__ = [
    "SphereGeometry",
    "sphere_data",
    "stability_total",
    "jacobi_spectrum",
]

FOUR_PI = 4.0 * math.pi


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


def sphere_data(metric: RadialMetric, s) -> SphereGeometry:
    """Geometry of the coordinate sphere at area-radius s.

    ``s`` may be a float or a 1-d array of radii; an array gives one
    :class:`SphereGeometry` whose fields are arrays over the radii.
    """
    # The excess is taken first: its call checks the radii.
    excess = scalar_curvature_excess(metric, s)
    arr = np.asarray(s, dtype=float)
    d = metric.deficit(arr)
    area = FOUR_PI * arr * arr
    h = 2.0 * np.sqrt(1.0 + arr * arr + d) / arr
    fields = dict(
        s=arr,
        area=area,
        mean_curvature=h,
        traceless_norm_sq=np.zeros_like(arr),
        second_fund_norm_sq=0.5 * h * h,
        ricci_normal=-2.0 + 0.5 * excess + d / (arr * arr),
        gauss_curvature=1.0 / (arr * arr),
        scalar=excess - 6.0,
        # The Hawking mass reduces to -(s/2) d(s): area*(H^2-4) = 16 pi (1 + d)
        # with d the deficit, so the 16 pi cancels exactly.  Forming H^2 - 4
        # in floating point instead loses ~1e-7 absolute by s = 1e3.
        hawking_mass=-0.5 * arr * d,
    )
    if arr.ndim == 0:
        fields = {name: float(val) for name, val in fields.items()}
    return SphereGeometry(**fields)


def _stability_density(metric: RadialMetric, s):
    """s as a float array and Ric(nu) + |A|^2 there, after one domain check.

    Ric(nu) + |A|^2 = (2 + 2 d - s d') / s^2 = (R + 6)/2 + (2 + 3 d) / s^2,
    cancellation-free.  Direct evaluation through Ric and H rounds at the
    1e-16 * s^2 level, which the 8 pi identity for hyperbolic space cannot
    afford at large s.
    """
    excess = scalar_curvature_excess(metric, s)
    arr = np.asarray(s, dtype=float)
    return arr, 0.5 * excess + (2.0 + 3.0 * metric.deficit(arr)) / (arr * arr)


def stability_total(metric: RadialMetric, s):
    """int_Sigma (Ric(nu) + |A|^2) dmu = area * (Ric(nu) + H^2/2).

    Equals 8 pi for hyperbolic space at every radius and
    8 pi - 24 pi m / s for AdS-Schwarzschild.  ``s`` may be a float or
    an array of radii.
    """
    arr, q = _stability_density(metric, s)
    out = FOUR_PI * arr * arr * q
    return float(out) if arr.ndim == 0 else out


def jacobi_spectrum(metric: RadialMetric, s, l_max: int) -> list[tuple[int, float]]:
    """Eigenvalues of the stability form, diagonalized by harmonics.

    The induced metric is the round sphere of radius s, so the quadratic
    form Q(phi) = int |grad phi|^2 - (Ric(nu) + |A|^2) phi^2 has exact
    eigenvalues lambda_l = l(l+1)/s^2 - (Ric(nu) + |A|^2), each with
    multiplicity 2l + 1.  No discretization is involved.  For an array
    of radii each lambda_l is an array over them.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max!r}")
    arr, q = _stability_density(metric, s)
    s2 = arr * arr
    lams = [l * (l + 1) / s2 - q for l in range(l_max + 1)]
    return [(l, float(lam) if arr.ndim == 0 else lam) for l, lam in enumerate(lams)]

