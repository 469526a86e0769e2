"""Inverse mean curvature flow of centered spheres, and the area
comparison ODE it feeds.

For round spheres in a radial model the flow stays round, so the whole
evolution reduces to the scalar law ds/dt = sqrt(f(s)) / H(s).  The
closed-form consequence B(t) = B(0) e^t is deliberately NOT used by the
integrator; it serves as an oracle in the test suite to bound the
integrator's error.

The comparison ODE integrates the Hawking-mass area inequality with
equality,

    dB/dv = B^{-1/2} (16 pi + 4 B - (16 pi)^{3/2} mu(v) B^{-1/2})^{1/2},

with mu a constant mass floor (or a sampled Hawking-mass curve).  With
mu = 0 it reproduces the hyperbolic profile exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import RadialMetric
from .numerics import NumericsError, solve_ode
from .profiles import cumulative_volume_over_grid, hyperbolic_profile, model_volume

__all__ = [
    "FlowSample",
    "ComparisonCurve",
    "flow_spheres",
    "t_of_v",
    "lipschitz_check",
    "comparison_ode",
]

SIXTEEN_PI = 16.0 * math.pi

# Absolute scale at which a comparison curve started on the hyperbolic
# profile may exceed it before the excess counts as an integrator fault.
_PROFILE_FAULT = 1e-6


@dataclass(frozen=True)
class FlowSample:
    """State of the expanding sphere at one flow time."""

    t: float
    s: float
    area: float
    enclosed_volume: float
    hawking: float


@dataclass(frozen=True)
class ComparisonCurve:
    """Comparison ODE solution alongside the hyperbolic profile."""

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
    ode_tol: float = 1e-9,
    quad_tol: float = 1e-10,
) -> list[FlowSample]:
    """Flow the centered sphere of initial radius s0 for time t_max.

    Samples every dt flow-time units (plus the final time).  Enclosed
    volumes are measured from the core, so the t = 0 sample already
    carries the volume inside s0.
    """
    if not math.isfinite(s0) or s0 <= metric.core_radius:
        raise ValueError(
            f"s0 must lie in ({metric.core_radius!r}, inf), got {s0!r}"
        )
    if not (t_max > 0.0) or not (0.0 < dt <= t_max):
        raise ValueError("need t_max > 0 and 0 < dt <= t_max")

    n = int(math.floor(t_max / dt + 1e-9))
    ts = [i * dt for i in range(n + 1)]
    # n*dt can overshoot t_max by a few ulp; keep the grid inside [0, t_max].
    ts[-1] = min(ts[-1], t_max)
    if ts[-1] < t_max - 1e-9 * max(1.0, t_max):
        ts.append(t_max)
    ts = np.asarray(ts)

    def rhs(t: float, s: float) -> float:
        fv = metric.f(s)
        if fv <= 0.0:
            raise NumericsError(f"flow left the domain at s = {s!r}")
        h = 2.0 * math.sqrt(fv) / s
        return math.sqrt(fv) / h

    sol = solve_ode(rhs, s0, 0.0, float(ts[-1]), rel_tol=ode_tol, x_eval=ts)
    radii = sol.ys
    increments, _ = cumulative_volume_over_grid(metric, radii, quad_tol)
    volumes = model_volume(metric, s0, quad_tol) + increments
    areas = 4.0 * math.pi * radii * radii
    hawking = -0.5 * radii * metric.deficit(radii)
    return [
        FlowSample(
            t=float(ts[i]),
            s=float(radii[i]),
            area=float(areas[i]),
            enclosed_volume=float(volumes[i]),
            hawking=float(hawking[i]),
        )
        for i in range(len(ts))
    ]


def t_of_v(flow: list[FlowSample], v: float) -> float:
    """Flow time at which the enclosed volume reaches v, by interpolation."""
    if len(flow) < 2:
        raise ValueError("flow must contain at least two samples")
    vs = np.array([f.enclosed_volume for f in flow])
    ts = np.array([f.t for f in flow])
    if not (vs[0] <= v <= vs[-1]):
        raise ValueError(
            f"v = {v!r} outside the flow's volume range [{vs[0]!r}, {vs[-1]!r}]"
        )
    return float(np.interp(v, vs, ts))


def lipschitz_check(metric: RadialMetric, flow: list[FlowSample]) -> float:
    """Largest violation of dt/dv <= (int H^2)^{1/2} area^{-3/2}.

    On round spheres the bound holds with equality (both sides reduce to
    H / area), so the returned maximum is finite-difference noise for a
    correct flow.  Positive values mean the inequality failed.
    """
    if len(flow) < 3:
        raise ValueError("flow must contain at least three samples")
    ts = np.array([f.t for f in flow])
    vs = np.array([f.enclosed_volume for f in flow])
    ss = np.array([f.s for f in flow])
    areas = np.array([f.area for f in flow])
    h = 2.0 * np.sqrt(metric.f(ss)) / ss
    dtdv = (ts[2:] - ts[:-2]) / (vs[2:] - vs[:-2])
    bound = (np.sqrt(h * h * areas) * areas ** -1.5)[1:-1]
    return float(np.max(dtdv - bound))


def comparison_ode(
    B0: float,
    mass_floor: float,
    v0: float,
    v_end: float,
    rel_tol: float = 1e-11,
    n_grid: int = 200,
    mass_curve: tuple[np.ndarray, np.ndarray] | None = None,
) -> ComparisonCurve:
    """Integrate the equality case of the Hawking-mass area inequality.

    Parameters
    ----------
    B0, v0 : float
        Initial area and volume.  v0 = 0 is allowed; the grid is then
        linear instead of logarithmic.
    mass_floor : float
        Constant mu >= 0 standing in for the Hawking mass along the flow.
    mass_curve : (v_array, m_array), optional
        Sampled Hawking-mass curve (for instance from flow_spheres);
        overrides the constant floor via linear interpolation, clamped
        at the curve ends.
    rel_tol : float
        Integration tolerance.  The default is tight because the result
        is compared against closed forms at absolute scale ~1e-6 while
        B itself reaches ~1e4.  For larger areas the tolerance passed to
        the solver is tightened further, to 5e-7 / max(B0, A_H(v_end)),
        so that the absolute error stays well below that scale.

    Raises
    ------
    ValueError
        If the radicand is negative at v0 (mass floor too large for B0);
        v0 is reported.
    NumericsError
        If a sampled mass curve drives the radicand negative later on
        (the step size underflows there, and that v is reported), or if
        a curve started on the hyperbolic profile exceeds it by more
        than 1e-6.
    """
    if not math.isfinite(B0) or B0 <= 0.0:
        raise ValueError(f"B0 must be finite and > 0, got {B0!r}")
    if not math.isfinite(mass_floor) or mass_floor < 0.0:
        raise ValueError(f"mass_floor must be >= 0, got {mass_floor!r}")
    if v0 < 0.0 or not (v_end > v0):
        raise ValueError("need v_end > v0 >= 0")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    if mass_curve is not None:
        mv, mm = (np.asarray(x, dtype=float) for x in mass_curve)
        if mv.shape != mm.shape or mv.ndim != 1 or mv.size < 2:
            raise ValueError("mass_curve must be two matching 1-d arrays")
        if np.any(np.diff(mv) <= 0.0):
            raise ValueError("mass_curve volumes must be strictly increasing")

        def mu(v: float) -> float:
            return float(np.interp(v, mv, mm))

    else:

        def mu(v: float) -> float:
            return mass_floor

    def radicand(v: float, B: float) -> float:
        return SIXTEEN_PI + 4.0 * B - SIXTEEN_PI ** 1.5 * mu(v) / math.sqrt(B)

    if radicand(v0, B0) < 0.0:
        raise ValueError(
            f"comparison ODE radicand negative at v = {v0:.6g}: "
            f"mass floor too large for area {B0:.6g}"
        )

    def rhs(v: float, B: float) -> float:
        # A trial stage of a long step can land where the area or the
        # radicand is negative; NaN makes the solver retry it shorter.
        if B <= 0.0:
            return math.nan
        rad = radicand(v, B)
        return math.sqrt(rad) / math.sqrt(B) if rad >= 0.0 else math.nan

    if v0 > 0.0:
        grid = np.geomspace(v0, v_end, n_grid)
    else:
        grid = np.linspace(v0, v_end, n_grid)
    grid[0], grid[-1] = v0, v_end

    a_h = np.array([hyperbolic_profile(float(v)) if v > 0.0 else 0.0 for v in grid])
    # The solver's global error is about 0.2 * tol * B, so this cap keeps it
    # near 1e-7, 10x below the fault scale, however large B grows.
    tol = min(rel_tol, 0.5 * _PROFILE_FAULT / max(B0, float(a_h[-1])))
    b_vals = solve_ode(rhs, B0, v0, v_end, rel_tol=tol, x_eval=grid).ys

    curve = ComparisonCurve(
        v_grid=grid, B_values=b_vals, hyperbolic_values=a_h, mass_floor=mass_floor
    )
    # Under the profile at the start and a nonnegative floor, the curve
    # can never cross A_H; a crossing would be an integrator fault.
    if mass_curve is None and B0 <= a_h[0] + _PROFILE_FAULT:
        excess = float(np.max(b_vals - a_h))
        if excess > _PROFILE_FAULT:
            raise NumericsError(
                f"comparison curve exceeded the hyperbolic profile by {excess:.3e}"
            )
    return curve
