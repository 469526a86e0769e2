"""Inverse mean curvature flow of centered spheres, and the area
comparison curve it feeds.

For round spheres in a radial model the flow stays round, so the whole
evolution reduces to the scalar law ds/dt = sqrt(f) / H = s / 2 (H =
2 sqrt(f) / s) in every model.  The closed-form consequence B(t) = B(0)
e^t is deliberately NOT used by the integrator; it serves as an oracle
in the test suite to bound the integrator's error.

The comparison ODE is the Hawking-mass area inequality with equality,

    dB/dv = B^{-1/2} (16 pi + 4 B - (16 pi)^{3/2} mu B^{-1/2})^{1/2},

with mu a constant mass floor (IMCF never lowers the Hawking mass).  It
is not integrated: with B = 4 pi s^2 it reads dv/ds = 4 pi s^2 /
sqrt(f_mu), the volume element of the AdS-Schwarzschild slice of mass
mu, so its solution is that model's centered-sphere profile shifted in
volume (the hyperbolic profile at mu = 0), and one volume inversion
gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import RadialMetric, _geomspace, make_ads_schwarzschild, make_hyperbolic
from .numerics import NumericsError, solve_ode
from .profiles import (
    cumulative_volume_over_grid,
    hyperbolic_profile,
    model_radius_for_volume,
    model_volume,
)

__all__ = [
    "Flow",
    "ComparisonCurve",
    "flow_spheres",
    "lipschitz_check",
    "comparison_ode",
]

FOUR_PI = 4.0 * math.pi

# Absolute scale at which a comparison curve started on the hyperbolic
# profile may exceed it before the excess counts as a numerical fault.
_PROFILE_FAULT = 1e-6
# Relative part of that allowance.  B and A_H come from two different
# inversions, each within 1e-14 of the exact area (the oracle tests), so
# at floor 0 they may differ by that much: past A_H ~ 5e9 an ulp of the
# area alone exceeds 1e-6.
_PROFILE_FAULT_REL = 2e-14


@dataclass(frozen=True)
class Flow:
    """States of the expanding sphere, one array element per flow time."""

    t: np.ndarray
    s: np.ndarray
    area: np.ndarray
    enclosed_volume: np.ndarray
    hawking: np.ndarray

    def __post_init__(self):
        n = self.t.shape
        rest = (self.s, self.area, self.enclosed_volume, self.hawking)
        if any(x.shape != n for x in rest):
            raise ValueError("flow arrays must share one shape")


@dataclass(frozen=True)
class ComparisonCurve:
    """Comparison curve alongside the hyperbolic profile."""

    v_grid: np.ndarray
    B_values: np.ndarray
    hyperbolic_values: np.ndarray
    mass_floor: float

    def __post_init__(self):
        n = self.v_grid.shape
        if self.B_values.shape != n or self.hyperbolic_values.shape != n:
            raise ValueError("curve arrays must share one shape")


def flow_spheres(
    metric: RadialMetric,
    s0: float,
    t_max: float,
    dt: float,
) -> Flow:
    """Flow the centered sphere of initial radius s0 for time t_max.

    Samples every dt flow-time units (plus the final time).  Enclosed
    volumes are measured from the core, so the t = 0 sample already
    carries the volume inside s0.  The radius ODE runs at
    :func:`solve_ode`'s relative tolerance 1e-9, the volumes at 1e-10.
    """
    if not math.isfinite(s0) or s0 <= metric.core_radius:
        raise ValueError(
            f"s0 must lie in ({metric.core_radius!r}, inf), got {s0!r}"
        )
    if not (t_max > 0.0) or not (0.0 < dt <= t_max):
        raise ValueError("need t_max > 0 and 0 < dt <= t_max")
    if not math.isfinite(t_max / dt):
        raise ValueError(f"t_max / dt must be finite, got {t_max!r} / {dt!r}")

    n = int(math.floor(t_max / dt + 1e-9))
    if n + 1 > np.iinfo(np.intp).max:
        raise ValueError(f"t_max / dt = {t_max / dt!r} is too many samples")
    ts = np.arange(n + 1) * dt
    # n*dt can overshoot t_max by a few ulp; keep the grid inside [0, t_max].
    ts[-1] = min(ts[-1], t_max)
    if ts[-1] < t_max - 1e-9 * max(1.0, t_max):
        ts = np.append(ts, t_max)

    # ds/dt = sqrt(f) / H = s / 2, with H = 2 sqrt(f) / s; f > 0 on s >= s0 > core.
    sol = solve_ode(lambda t, s: 0.5 * s, s0, ts)
    radii = sol.ys
    increments, _ = cumulative_volume_over_grid(metric, radii)
    volumes = model_volume(metric, s0) + increments
    return Flow(
        t=ts,
        s=radii,
        area=FOUR_PI * radii * radii,
        enclosed_volume=volumes,
        hawking=-0.5 * radii * metric.deficit(radii),
    )


def lipschitz_check(flow: Flow) -> float:
    """Largest violation of dt/dv <= (int H^2)^{1/2} area^{-3/2}.

    On round spheres the bound holds with equality (both sides reduce to
    H / area), so the returned maximum is finite-difference noise for a
    correct flow.  Positive values mean the inequality failed.  H = 2 sqrt(f) / s
    takes f = 1 + s^2 - 2 m_H / s from the flow's Hawking mass m_H = -s d / 2.
    """
    if flow.t.size < 3:
        raise ValueError("flow must contain at least three samples")
    ts, s, vs, areas = flow.t, flow.s, flow.enclosed_volume, flow.area
    h = 2.0 * np.sqrt(1.0 + s * s - 2.0 * flow.hawking / s) / s
    dtdv = (ts[2:] - ts[:-2]) / (vs[2:] - vs[:-2])
    bound = (np.sqrt(h * h * areas) * areas ** -1.5)[1:-1]
    return float(np.max(dtdv - bound))


def comparison_ode(
    B0: float,
    mass_floor: float,
    v0: float,
    v_end: float,
    n_grid: int = 200,
) -> ComparisonCurve:
    """Solve the equality case of the Hawking-mass area inequality.

    With B = 4 pi s^2 the radicand is 16 pi f_mu(s), f_mu = 1 + s^2 -
    2 mu / s, so dv/ds = 4 pi s^2 / sqrt(f_mu): the curve is the
    centered-sphere profile of the AdS-Schwarzschild slice of mass mu
    (hyperbolic space at mu = 0), shifted to pass through (v0, B0).  Row
    0 is B0; every later row is 4 pi s^2 with s from one batched
    :func:`model_radius_for_volume` of vol_mu(s0) + (v - v0), where
    s0 = sqrt(B0 / 4 pi).

    Parameters
    ----------
    B0, v0 : float
        Initial area and volume.  v0 = 0 is allowed; the grid is then
        linear instead of logarithmic.
    mass_floor : float
        Constant mu >= 0 standing in for the Hawking mass along the flow.

    Raises
    ------
    ValueError
        If the radicand is negative at v0 (mass floor too large for B0);
        v0 is reported.
    NumericsError
        If a curve started on the hyperbolic profile exceeds it by more
        than 1e-6 + 2e-14 A_H, or the volume element overflows (areas
        past ~1e308).
    """
    if not math.isfinite(B0) or B0 <= 0.0:
        raise ValueError(f"B0 must be finite and > 0, got {B0!r}")
    if not math.isfinite(mass_floor) or mass_floor < 0.0:
        raise ValueError(f"mass_floor must be >= 0, got {mass_floor!r}")
    if not (0.0 <= v0 < v_end < math.inf):
        raise ValueError("need finite v_end > v0 >= 0")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    metric = make_ads_schwarzschild(mass_floor) if mass_floor else make_hyperbolic()
    s0 = math.sqrt(B0 / FOUR_PI)
    if metric.f(s0) < 0.0:
        raise ValueError(
            f"comparison ODE radicand negative at v = {v0:.6g}: "
            f"mass floor too large for area {B0:.6g}"
        )
    # f_mu(s0) >= 0 puts s0 on or above the horizon, up to the rounding of
    # the computed horizon radius.
    s0 = max(s0, metric.core_radius)

    if v0 > 0.0:
        grid = _geomspace(v0, v_end, n_grid)
    else:
        grid = np.linspace(v0, v_end, n_grid)

    a_h = np.zeros_like(grid)
    a_h[grid > 0.0] = hyperbolic_profile(grid[grid > 0.0])
    base = model_volume(metric, s0)
    s = model_radius_for_volume(metric, base + (grid[1:] - v0))
    b_vals = np.concatenate([[B0], FOUR_PI * s * s])

    curve = ComparisonCurve(
        v_grid=grid, B_values=b_vals, hyperbolic_values=a_h, mass_floor=mass_floor
    )
    # Under the profile at the start and a nonnegative floor, the curve
    # can never cross A_H; a crossing would be a fault of the inversion.
    if B0 <= a_h[0] + _PROFILE_FAULT:
        excess = float(np.max(b_vals - a_h - _PROFILE_FAULT_REL * a_h))
        if excess > _PROFILE_FAULT:
            raise NumericsError(
                f"comparison curve exceeded the hyperbolic profile by {excess:.3e}"
            )
    return curve
