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

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    RadialMetric,
    _s_from_rho_at,
    coordinate_gap,
    gap_over_grid,
    make_hyperbolic,
    s_from_rho,
    validate_ah,
)
from .numerics import (
    NumericsError,
    QuadResult,
    gk15_nodes,
    gk15_rule,
    integrate,
    integrate_intervals,
    solve_increasing,
)

__all__ = [
    "ProfileTable",
    "RenormVolumeResult",
    "hyperbolic_volume",
    "hyperbolic_profile",
    "model_volume",
    "model_volume_quad",
    "model_radius_for_volume",
    "renormalized_volume",
    "gap_table",
]

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ProfileTable:
    """Profile comparison columns, one array element per volume."""

    v: np.ndarray
    A_g: np.ndarray
    A_H: np.ndarray
    gap: np.ndarray
    scaled_gap: np.ndarray


@dataclass(frozen=True)
class RenormVolumeResult:
    """Renormalized volume at a finite truncation radius."""

    value: float
    truncation_rho: float
    tail_estimate: float
    quad_error: float


# ----------------------------------------------------------------------
# Hyperbolic closed forms


# (3 / (4 pi))^{1/3}: the Euclidean ball of volume v has radius this * v^{1/3}.
_EUCLID_RADIUS = float(np.cbrt(0.75 / math.pi))

# Taylor coefficients 6 / (2j + 3)! of 6 (sinh x - x) / x^3 in z = x^2.
_SINH_EXCESS_COEFFS = tuple(6 / math.factorial(2 * j + 3) for j in range(8))


def _sinh_excess_ratio(z: float) -> float:
    """6 (sinh x - x) / x^3 at z = x^2 <= 0.64, where the first term left
    out of the series is below 2e-18."""
    out = 0.0
    for c in reversed(_SINH_EXCESS_COEFFS):
        out = out * z + c
    return out


def _hyperbolic_volume_any(rho: float) -> float:
    # Antiderivative of 4 pi sinh^2; valid for any real rho.  Below 0.4
    # the closed form would subtract O(1) terms to get an O(rho^3) volume
    # (1.2e-13 relative error at 0.101, 4.3e-15 on [0.3, 0.4]); the series
    # is exact to rounding up to z = 4 rho^2 = 0.64.
    if abs(rho) <= 0.4:
        return FOUR_PI / 3.0 * rho**3 * _sinh_excess_ratio(4.0 * rho * rho)
    return FOUR_PI * (
        0.5 * math.sinh(rho) ** 2 + 0.25 - 0.5 * rho - 0.25 * math.exp(-2.0 * rho)
    )


def hyperbolic_volume(rho: float) -> float:
    """Volume of the hyperbolic ball of geodesic radius rho >= 0."""
    if not math.isfinite(rho) or rho < 0.0:
        raise ValueError(f"rho must be finite and >= 0, got {rho!r}")
    return _hyperbolic_volume_any(rho)


_HYPERBOLIC = make_hyperbolic()


def hyperbolic_profile(v):
    """Hyperbolic isoperimetric profile A_H(v) = 4 pi sinh^2 rho_v.

    Hyperbolic space is the model f = 1 + s^2 with s = sinh rho, so this
    is 4 pi s_v^2 from :func:`model_radius_for_volume` on it: ``v`` may be
    a scalar or an array of volumes, inverted together.
    """
    s = model_radius_for_volume(_HYPERBOLIC, v)
    return FOUR_PI * s * s


# ----------------------------------------------------------------------
# Model volumes


def _volume_integrand(metric: RadialMetric):
    def fn(u):
        u = np.asarray(u, dtype=float)
        return FOUR_PI * u * u / np.sqrt(metric.f(u))

    return fn


def _volume_head_integrand(metric: RadialMetric):
    """The volume element in w, with s = core + w^2 above a positive core.

    It stays finite at the core, where the element in s has an f^{-1/2}
    spike.
    """
    core = metric.core_radius

    def fn(w):
        w = np.asarray(w, dtype=float)
        b = core + w * w
        return 8.0 * math.pi * b * b / np.sqrt(metric.core_quotient(w * w))

    return fn


def model_volume_quad(
    metric: RadialMetric, s: float, quad_tol: float = 1e-10
) -> QuadResult:
    """Volume from the core out to area-radius s, with its error bound.

    Above a positive core the volume is integrated in w with
    s = core + w^2, which removes the f^{-1/2} spike there.
    """
    core = metric.core_radius
    if not math.isfinite(s) or s < core:
        raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
    if core > 0.0:
        return integrate(
            _volume_head_integrand(metric), 0.0, math.sqrt(s - core), abs_tol=quad_tol
        )
    return integrate(_volume_integrand(metric), 0.0, s, abs_tol=quad_tol)


def model_volume(metric: RadialMetric, s: float, quad_tol: float = 1e-10) -> float:
    """Volume of the centered region bounded by the sphere at radius s."""
    return model_volume_quad(metric, s, quad_tol).value


def model_radius_for_volume(metric: RadialMetric, v, quad_tol: float = 1e-10):
    """Area-radius s_v of the centered region of volume v > 0.

    ``v`` may be a scalar (a float comes back) or a 1-d array of volumes
    in any order, inverted together.  The inversion runs in the area
    radius s, or in w with s = core + w^2 above a positive core, where
    the volume element stays finite.  One cumulative sweep
    (:func:`integrate_intervals`) gives the volume at a ladder of
    starting guesses, the Euclidean radius of v or sqrt(v / 2 pi),
    whichever is larger, and at twice the largest of them (doubled again
    until it encloses every v); each volume is bracketed between two
    ladder points and starts at the one whose volume is closer.
    :func:`solve_increasing` then takes Newton steps with the volume
    element as the derivative, all volumes together, one GK15 panel per
    step.  The sweep, and the panels of each volume together, are held to
    ``quad_tol``.
    """
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    vols = arr.reshape(-1)
    if vols.size == 0 or not np.all(np.isfinite(vols)) or np.any(vols <= 0.0):
        raise ValueError(f"v must be finite and > 0, got {v!r}")
    core = metric.core_radius
    # Both are below s_v in hyperbolic space.
    guess = np.maximum(_EUCLID_RADIUS * np.cbrt(vols), np.sqrt(vols / (2.0 * math.pi)))
    if core > 0.0:
        density = _volume_head_integrand(metric)
        # Near the core the volume grows like density(0) * w.
        start = np.where(
            guess > core, np.sqrt(np.maximum(guess - core, 0.0)), vols / density(0.0)
        )
    else:
        density = _volume_integrand(metric)
        start = guess
    # A start that underflows to zero would repeat the ladder's first point.
    ladder = np.sort(np.maximum(start, np.finfo(float).tiny))
    ladder = np.concatenate([[0.0], ladder[:1], ladder[1:][np.diff(ladder) > 0.0]])
    ladder = np.append(ladder, 2.0 * ladder[-1])
    vals, _ = integrate_intervals(density, ladder, quad_tol)
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    v_max = float(np.max(vols))
    for _ in range(80):
        if cum[-1] >= v_max:
            break
        top = float(ladder[-1])
        more, _ = integrate_intervals(density, [top, 2.0 * top], quad_tol)
        ladder = np.append(ladder, 2.0 * top)
        cum = np.append(cum, cum[-1] + more[0])
    else:
        raise NumericsError(f"failed to bracket s for v = {v_max!r}")
    k = np.searchsorted(cum, vols)
    from_lo = vols - cum[k - 1] <= cum[k] - vols
    t = solve_increasing(
        density,
        vols,
        np.where(from_lo, ladder[k - 1], ladder[k]),
        np.where(from_lo, cum[k - 1], cum[k]),
        ladder[k - 1],
        ladder[k],
        quad_tol,
    )
    s = core + t * t if core > 0.0 else t
    return float(s[0]) if scalar else s.reshape(arr.shape)


# ----------------------------------------------------------------------
# Renormalized volume


def _area_difference(u, g):
    """4 pi (u^2 - sinh^2 rho(u)) and its derivative in G, at gap values g.

    With G the coordinate gap, sinh rho(u) = u cosh G - sqrt(1+u^2)
    sinh G, and the difference of squares collapses to
    2 u sqrt(1+u^2) sinh G cosh G - (2 u^2 + 1) sinh^2 G, every term of
    which is O(G) small.  Direct evaluation would subtract ~u^2-sized
    quantities to extract an O(mass) answer.  The derivative,
    4 pi (2 u sqrt(1+u^2) cosh 2G - (2 u^2 + 1) sinh 2G), carries the
    error of g into the result.
    """
    sh = np.sinh(g)
    ch = np.cosh(g)
    r = 2.0 * u * np.sqrt(1.0 + u * u)
    q = 2.0 * u * u + 1.0
    area = FOUR_PI * (r * sh * ch - q * sh * sh)
    slope = FOUR_PI * (r * np.cosh(2.0 * g) - q * np.sinh(2.0 * g))
    return area, slope


# Cap on the outer mesh of renormalized_volume; every refinement round
# bisects all panels over their share of the tolerance.
_MAX_OUTER_PANELS = 4096


def renormalized_volume(
    metric: RadialMetric, truncation_rho: float = 20.0, quad_tol: float = 1e-9
) -> RenormVolumeResult:
    """Renormalized volume V = lim [vol_g(rho) - vol_H(rho)].

    Evaluated at ``truncation_rho`` by integrating the difference of
    volume elements out to s(truncation_rho).  The neglected tail decays
    like 1/sinh(rho) with coefficient 8 pi m / 3; ``tail_estimate``
    reports it and a truncation radius that leaves more than 10% of the
    value in the tail is rejected.

    The difference is integrated on one outer mesh of GK15 panels over
    three regions: near a positive core in w with u = core + w^2, then
    in u up to u = 1, then in x = 1/u out to s(truncation_rho).  Each
    round takes G at every node of every panel from one
    :func:`gap_over_grid` sweep and bisects every panel whose Kronrod
    error exceeds its share of the tolerance.  ``quad_error`` sums the
    panel errors, the sweep's bounds on G carried through the integrand,
    and the bounds of the inner-boundary terms.

    Nonnegative for every valid model, zero exactly for hyperbolic
    space.
    """
    if not math.isfinite(truncation_rho):
        raise ValueError("truncation_rho must be finite")
    core = metric.core_radius
    gap_tol = min(1e-13, quad_tol)

    inner = coordinate_gap(metric, core, gap_tol)
    rho_low = math.asinh(core) - inner.value
    s_low = core

    if truncation_rho <= rho_low + 1e-9:
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} does not exceed the inner "
            f"boundary radius {rho_low!r}"
        )
    s_top = s_from_rho(metric, truncation_rho, gap_tol)

    if rho_low >= 0.0:
        base = -_hyperbolic_volume_any(rho_low)
        base_error = FOUR_PI * math.sinh(rho_low) ** 2 * inner.error_bound
    else:
        # Hyperbolic balls only exist for rho >= 0; the model region
        # below rho = 0 enters at full volume.
        # s_from_rho(metric, 0.0) would start at the core and integrate G
        # there again; rho_low is rho at the core.
        s_low = _s_from_rho_at(metric, 0.0, core, rho_low, gap_tol)
        head_vol = model_volume_quad(metric, s_low, quad_tol=0.25 * quad_tol)
        base, base_error = head_vol.value, head_vol.error_bound

    # Regions as (lo, hi, u(t), du/dt / sqrt(f(u))) in their variable t.
    regions = []
    if core > 0.0 and s_low == core:
        w1 = min(2.0, math.sqrt(s_top - core))
        regions.append((
            0.0, w1, lambda w: core + w * w,
            lambda w: 2.0 / np.sqrt(metric.core_quotient(w * w)),
        ))
        s_mid = core + w1 * w1
    else:
        s_mid = s_low
    s1 = max(s_mid, 1.0)
    if min(s1, s_top) > s_mid:
        regions.append((
            s_mid, min(s1, s_top), lambda u: u, lambda u: 1.0 / np.sqrt(metric.f(u))
        ))
    if s_top > s1:
        regions.append((
            1.0 / s_top, 1.0 / s1, lambda x: 1.0 / x,
            lambda x: 1.0 / (np.sqrt(metric.f(1.0 / x)) * (x * x)),
        ))

    tol = 0.75 * quad_tol
    edges = [np.linspace(lo, hi, 5) for lo, hi, _, _ in regions]
    while True:
        nodes = [gk15_nodes(e) for e in edges]
        us = [to_u(t) for t, (_, _, to_u, _) in zip(nodes, regions)]
        gap, gap_err = gap_over_grid(
            metric, np.concatenate([u.ravel() for u in us]), gap_tol
        )
        vals, errs, carried = [], [], 0.0
        start = 0
        for e, t, u, (_, _, _, jac) in zip(edges, nodes, us, regions):
            stop = start + u.size
            g = gap[start:stop].reshape(u.shape)
            g_err = gap_err[start:stop].reshape(u.shape)
            start = stop
            area, slope = _area_difference(u, g)
            weight = jac(t)
            fv = area * weight
            if not np.all(np.isfinite(fv)):
                bad = float(u[~np.isfinite(fv)][0])
                raise NumericsError(f"renormalized volume integrand not finite at u={bad!r}")
            v, err = gk15_rule(e, fv)
            vals.append(v)
            errs.append(err)
            carried += float(np.sum(gk15_rule(e, np.abs(slope * weight) * g_err)[0]))
        n_panels = sum(v.size for v in vals)
        total = math.fsum([base, *(x for v in vals for x in v.tolist())])
        share = max(tol, 1e-13 * abs(total)) / n_panels
        over = [err > share for err in errs]
        if not any(o.any() for o in over):
            break
        if n_panels > _MAX_OUTER_PANELS:
            raise NumericsError(
                f"renormalized volume: error bound "
                f"{sum(float(np.sum(x)) for x in errs):.3e} after {n_panels} "
                f"outer panels (target {tol:.3e})"
            )
        edges = [
            np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])[o]]))
            for e, o in zip(edges, over)
        ]

    tail = 8.0 * math.pi * metric.mass / (3.0 * math.sinh(truncation_rho))
    if metric.mass > 0.0 and tail > 0.1 * abs(total):
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} too small: tail estimate "
            f"{tail:.3e} exceeds 10% of the value {total:.6e}"
        )
    quad_error = sum(float(np.sum(err)) for err in errs) + carried + base_error
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
) -> ProfileTable:
    """Profile comparison columns on an increasing positive volume grid.

    scaled_gap is (gap + 2V) sqrt(v); along a growing grid it tends to a
    constant proportional to the mass.
    """
    grid = np.array(v_grid, dtype=float)
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
    s_v = model_radius_for_volume(metric, grid, quad_tol)
    a_g = FOUR_PI * s_v * s_v
    a_h = hyperbolic_profile(grid)
    if np.any(a_h <= 0.0):
        raise ValueError("A_H must be positive for v > 0")
    gap = a_g - a_h
    return ProfileTable(
        v=grid,
        A_g=a_g,
        A_H=a_h,
        gap=gap,
        scaled_gap=(gap + 2.0 * v_ren.value) * np.sqrt(grid),
    )


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
    vals, err = integrate_intervals(_volume_integrand(metric), s, quad_tol)
    out = np.concatenate([[0.0], np.cumsum(vals)])
    return out, float(np.sum(err))
