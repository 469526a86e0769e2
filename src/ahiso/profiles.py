"""Isoperimetric profiles, renormalized volume, and the area gap.

Volumes of centered regions in a radial model and in hyperbolic space
are compared at equal geodesic radius rho.  Three conventions fixed
here:

* Model volumes start at the core: vol(s) = int_core^s 4 pi u^2
  f(u)^{-1/2} du.  For mass > 0 this measures the region outside the
  horizon sphere.
* The model profile is the centered-sphere one: A_hat(v) = 4 pi s_v^2
  with vol(s_v) = v.  It upper-bounds the true isoperimetric profile.
* The renormalized volume is the large-radius limit of
  vol(s(rho)) - v_H(rho), evaluated at a finite truncation radius with
  an explicit tail estimate.

The renormalized volume is never formed by subtracting two large
volumes: at rho = 20 both terms are ~1e17 and float64 would leave no
digits.  Instead the difference of volume elements is integrated
directly via 4 pi (u^2 - sinh^2 rho(u)), expanded in the coordinate gap
G so that every factor is evaluated at its own scale.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .models import RadialMetric, coordinate_gap, s_from_rho, validate_ah
from .numerics import NumericsError, QuadResult, find_root, gk15_panels, integrate

__all__ = [
    "ProfileSample",
    "RenormVolumeResult",
    "hyperbolic_volume",
    "hyperbolic_profile",
    "model_volume",
    "model_volume_quad",
    "model_profile",
    "model_radius_for_volume",
    "renormalized_volume",
    "gap_table",
    "profile_monotone_check",
]

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ProfileSample:
    """One row of the profile comparison table."""

    v: float
    A_g: float
    A_H: float
    gap: float
    scaled_gap: float

    def __post_init__(self):
        if self.v <= 0.0:
            raise ValueError("v must be positive")
        if self.A_H <= 0.0:
            raise ValueError("A_H must be positive for v > 0")


@dataclass(frozen=True)
class RenormVolumeResult:
    """Renormalized volume at a finite truncation radius."""

    value: float
    truncation_rho: float
    tail_estimate: float
    quad_error: float


# ----------------------------------------------------------------------
# Hyperbolic closed forms


def _hyperbolic_volume_any(rho: float) -> float:
    # Antiderivative of 4 pi sinh^2; valid for any real rho.
    return FOUR_PI * (
        0.5 * math.sinh(rho) ** 2 + 0.25 - 0.5 * rho - 0.25 * math.exp(-2.0 * rho)
    )


def hyperbolic_volume(rho: float) -> float:
    """Volume of the hyperbolic ball of geodesic radius rho >= 0."""
    if not math.isfinite(rho) or rho < 0.0:
        raise ValueError(f"rho must be finite and >= 0, got {rho!r}")
    return _hyperbolic_volume_any(rho)


def _hyperbolic_rho(v: float) -> float:
    """Radius of the hyperbolic ball of volume v > 0, to 1e-12."""
    hi = 1.0
    for _ in range(80):
        if _hyperbolic_volume_any(hi) >= v:
            break
        hi *= 2.0
    else:
        raise ValueError(f"failed to bracket rho for v = {v!r}")
    return find_root(
        lambda r: _hyperbolic_volume_any(r) - v, 0.0, hi, tol=1e-12 * max(1.0, hi)
    )


def hyperbolic_profile(v: float) -> float:
    """Hyperbolic isoperimetric profile A_H(v) = 4 pi sinh^2 rho_v."""
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"v must be finite and > 0, got {v!r}")
    return FOUR_PI * math.sinh(_hyperbolic_rho(v)) ** 2


# ----------------------------------------------------------------------
# Model volumes


def _volume_integrand(metric: RadialMetric):
    def fn(u):
        u = np.asarray(u, dtype=float)
        return FOUR_PI * u * u / np.sqrt(metric.f(u))

    return fn


def _volume_segment(
    metric: RadialMetric, s0: float, s1: float, tol: float
) -> QuadResult:
    """Volume between the spheres at radii s0 <= s1, with its error bound.

    A segment that starts on a positive core radius is integrated in w
    with s = core + w^2, which removes the f^{-1/2} spike there.
    """
    core = metric.core_radius
    if s0 == core and core > 0.0:

        def fn(w):
            w = np.asarray(w, dtype=float)
            b = core + w * w
            return 8.0 * math.pi * b * b / np.sqrt(metric.core_quotient(w * w))

        return integrate(fn, 0.0, math.sqrt(s1 - core), abs_tol=tol)
    return integrate(_volume_integrand(metric), s0, s1, abs_tol=tol)


def model_volume_quad(
    metric: RadialMetric, s: float, quad_tol: float = 1e-10
) -> QuadResult:
    """Volume from the core out to area-radius s, with its error bound."""
    core = metric.core_radius
    if not math.isfinite(s) or s < core:
        raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
    return _volume_segment(metric, core, s, quad_tol)


def model_volume(metric: RadialMetric, s: float, quad_tol: float = 1e-10) -> float:
    """Volume of the centered region bounded by the sphere at radius s."""
    return model_volume_quad(metric, s, quad_tol).value


class _VolumeCache:
    """Cumulative volume evaluations anchored at previously seen radii.

    Inverting the volume repeatedly (profile tables, bisection) would
    otherwise re-integrate from the core on every probe.  Each query
    integrates only from the nearest anchor below, so a monotone sweep
    costs one short segment per probe.  State is per instance: callers
    create one per table so that results never depend on history from
    unrelated calls.
    """

    def __init__(self, metric: RadialMetric, quad_tol: float = 1e-10):
        self.metric = metric
        self.quad_tol = quad_tol
        self._s = [metric.core_radius]
        self._v = [0.0]

    def volume(self, s: float) -> float:
        core = self.metric.core_radius
        if s < core:
            raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
        i = bisect.bisect_right(self._s, s) - 1
        if s == self._s[i]:
            return self._v[i]
        seg = _volume_segment(self.metric, self._s[i], s, self.quad_tol)
        v = self._v[i] + seg.value
        self._s.insert(i + 1, s)
        self._v.insert(i + 1, v)
        return v


def model_radius_for_volume(
    metric: RadialMetric,
    v: float,
    quad_tol: float = 1e-10,
    cache: _VolumeCache | None = None,
) -> float:
    """Area-radius s_v of the centered region of volume v > 0."""
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"v must be finite and > 0, got {v!r}")
    if cache is None:
        cache = _VolumeCache(metric, quad_tol)
    core = metric.core_radius
    hi = max(1.0, 2.0 * core, math.sqrt(v / (2.0 * math.pi)))
    for _ in range(80):
        if cache.volume(hi) >= v:
            break
        hi *= 2.0
    else:
        raise NumericsError(f"failed to bracket s for v = {v!r}")
    return find_root(
        lambda s: cache.volume(s) - v, core, hi, tol=1e-12 * max(1.0, hi)
    )


def model_profile(metric: RadialMetric, v: float, quad_tol: float = 1e-10) -> float:
    """Centered-sphere profile A_hat(v) = 4 pi s_v^2.

    Upper-bounds the isoperimetric profile of the model; for
    AdS-Schwarzschild at large volume the bound is attained.
    """
    s_v = model_radius_for_volume(metric, v, quad_tol)
    return FOUR_PI * s_v * s_v


# ----------------------------------------------------------------------
# Renormalized volume


def _area_difference(metric: RadialMetric, u, quad_tol: float = 1e-13):
    """4 pi (u^2 - sinh^2 rho(u)) without forming either square.

    With G the coordinate gap, sinh rho(u) = u cosh G - sqrt(1+u^2)
    sinh G, and the difference of squares collapses to
    2 u sqrt(1+u^2) sinh G cosh G - (2 u^2 + 1) sinh^2 G, every term of
    which is O(G) small.  Direct evaluation would subtract ~u^2-sized
    quantities to extract an O(mass) answer.
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    g = np.array(
        [coordinate_gap(metric, float(x), quad_tol).value for x in flat]
    )
    sh = np.sinh(g)
    ch = np.cosh(g)
    out = FOUR_PI * (
        2.0 * flat * np.sqrt(1.0 + flat * flat) * sh * ch
        - (2.0 * flat * flat + 1.0) * sh * sh
    )
    return float(out[0]) if scalar else out


def renormalized_volume(
    metric: RadialMetric, truncation_rho: float = 20.0, quad_tol: float = 1e-9
) -> RenormVolumeResult:
    """Renormalized volume V = lim [vol_g(rho) - vol_H(rho)].

    Evaluated at ``truncation_rho`` by integrating the difference of
    volume elements out to s(truncation_rho).  The neglected tail decays
    like 1/sinh(rho) with coefficient 8 pi m / 3; ``tail_estimate``
    reports it and a truncation radius that leaves more than 10% of the
    value in the tail is rejected.

    Nonnegative for every valid model, zero exactly for hyperbolic
    space.
    """
    if not math.isfinite(truncation_rho):
        raise ValueError("truncation_rho must be finite")
    core = metric.core_radius
    gap_tol = min(1e-13, quad_tol)

    if core > 0.0:
        rho_low = math.asinh(core) - coordinate_gap(metric, core, gap_tol).value
        s_low = core
    else:
        rho_low = -coordinate_gap(metric, 0.0, gap_tol).value
        s_low = 0.0

    if truncation_rho <= rho_low + 1e-9:
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} does not exceed the inner "
            f"boundary radius {rho_low!r}"
        )
    s_top = s_from_rho(metric, truncation_rho, gap_tol)

    pieces: list[QuadResult] = []
    base = 0.0
    if rho_low >= 0.0:
        base = -_hyperbolic_volume_any(rho_low)
    else:
        # Hyperbolic balls only exist for rho >= 0; the model region
        # below rho = 0 enters at full volume.
        u0 = s_from_rho(metric, 0.0, gap_tol)
        head_vol = model_volume_quad(metric, u0, quad_tol=0.25 * quad_tol)
        pieces.append(head_vol)
        base = head_vol.value
        s_low = u0

    part_tol = 0.25 * quad_tol

    def diff_integrand(u):
        u = np.asarray(u, dtype=float)
        return _area_difference(metric, u, gap_tol) / np.sqrt(metric.f(u))

    total = base
    if core > 0.0 and s_low == core:
        w1 = min(2.0, math.sqrt(s_top - core))

        def head_integrand(w):
            w = np.asarray(w, dtype=float)
            b = core + w * w
            return (
                2.0
                * _area_difference(metric, b, gap_tol)
                / np.sqrt(metric.core_quotient(w * w))
            )

        head = integrate(head_integrand, 0.0, w1, abs_tol=part_tol)
        pieces.append(head)
        total += head.value
        s_mid = core + w1 * w1
    else:
        s_mid = s_low

    # Middle segment on [s_mid, min(s1, s_top)] in u, far tail in x = 1/u.
    s1 = max(s_mid, 1.0)
    if s_top <= s1:
        if s_top > s_mid:
            mid = integrate(diff_integrand, s_mid, s_top, abs_tol=part_tol)
            pieces.append(mid)
            total += mid.value
    else:
        if s1 > s_mid:
            mid = integrate(diff_integrand, s_mid, s1, abs_tol=part_tol)
            pieces.append(mid)
            total += mid.value

        def far_integrand(x):
            x = np.asarray(x, dtype=float)
            u = 1.0 / x
            return _area_difference(metric, u, gap_tol) / np.sqrt(metric.f(u)) / (x * x)

        far = integrate(far_integrand, 1.0 / s_top, 1.0 / s1, abs_tol=part_tol)
        pieces.append(far)
        total += far.value

    tail = 8.0 * math.pi * metric.mass / (3.0 * math.sinh(truncation_rho))
    if metric.mass > 0.0 and tail > 0.1 * abs(total):
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} too small: tail estimate "
            f"{tail:.3e} exceeds 10% of the value {total:.6e}"
        )
    quad_error = sum(p.error_bound for p in pieces)
    return RenormVolumeResult(
        value=total,
        truncation_rho=truncation_rho,
        tail_estimate=tail,
        quad_error=quad_error,
    )


# ----------------------------------------------------------------------
# Gap table


def gap_table(
    metric: RadialMetric,
    v_grid,
    quad_tol: float = 1e-10,
    truncation_rho: float = 20.0,
) -> list[ProfileSample]:
    """Profile comparison rows on an increasing positive volume grid.

    scaled_gap is (gap + 2V) sqrt(v); along a growing grid it tends to a
    constant proportional to the mass.
    """
    grid = np.asarray(v_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("v_grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("v_grid must be positive and strictly increasing")
    report = validate_ah(metric)
    if not report.is_ah:
        raise ValueError(
            "model fails AH validation: " + "; ".join(report.messages)
        )
    v_ren = renormalized_volume(metric, truncation_rho, quad_tol=min(quad_tol, 1e-9))
    cache = _VolumeCache(metric, quad_tol)
    rows = []
    for v in grid:
        v = float(v)
        s_v = model_radius_for_volume(metric, v, quad_tol, cache=cache)
        a_g = FOUR_PI * s_v * s_v
        a_h = hyperbolic_profile(v)
        gap = a_g - a_h
        rows.append(
            ProfileSample(
                v=v,
                A_g=a_g,
                A_H=a_h,
                gap=gap,
                scaled_gap=(gap + 2.0 * v_ren.value) * math.sqrt(v),
            )
        )
    return rows


def profile_monotone_check(
    metric: RadialMetric, v_grid, quad_tol: float = 1e-10
) -> bool:
    """True when the centered-sphere profile is nondecreasing on the grid."""
    grid = np.asarray(v_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("v_grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("v_grid must be positive and strictly increasing")
    cache = _VolumeCache(metric, quad_tol)
    areas = []
    for v in grid:
        s_v = model_radius_for_volume(metric, float(v), quad_tol, cache=cache)
        areas.append(FOUR_PI * s_v * s_v)
    return bool(np.all(np.diff(areas) >= 0.0))


# ----------------------------------------------------------------------
# Vectorized cumulative volume for dense flow grids


def cumulative_volume_over_grid(
    metric: RadialMetric, s_grid: np.ndarray, quad_tol: float = 1e-10
) -> tuple[np.ndarray, float]:
    """Volume increments along a dense increasing radius grid.

    Returns cumulative volumes relative to s_grid[0] and a total error
    bound.  Each consecutive interval gets one Gauss-Kronrod panel,
    evaluated for the whole grid in one vectorized sweep; intervals
    whose error estimate is too large fall back to adaptive
    integration individually.  Interval count ~1e4 stays well under a
    second this way, where a per-interval adaptive call would not.
    """
    s = np.asarray(s_grid, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("s_grid must contain at least two radii")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("s_grid must be strictly increasing")
    if s[0] <= metric.core_radius:
        raise ValueError("s_grid must start above the core radius")
    vals, err = gk15_panels(_volume_integrand(metric), s)
    # Error floor per panel is 50 eps * |integral|; the tolerance must sit
    # above it or every smooth panel would take the slow path.
    tol_vec = np.maximum(quad_tol / s.size, 2e-14 * np.abs(vals))
    for i in np.flatnonzero(err > tol_vec):
        res = _volume_segment(metric, float(s[i]), float(s[i + 1]), float(tol_vec[i]))
        vals[i], err[i] = res.value, res.error_bound
    out = np.concatenate([[0.0], np.cumsum(vals)])
    return out, float(np.sum(err))
