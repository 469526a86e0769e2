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
  vol(s(rho)) - V_H(sinh rho).  renormalized_volume evaluates it at a
  finite truncation radius with an explicit tail estimate; gap_table
  takes the limit K itself.

The renormalized volume is never formed by subtracting two large
volumes: at rho = 20 both terms are ~1e17 and float64 would leave no
digits.  Instead it comes from the volume deficit

    W(s) = integral_s^inf 4 pi u^2 [f(u)^{-1/2} - (1+u^2)^{-1/2}] du,

whose integrand decays like 4 pi m / u^2.  With V_H(s) the hyperbolic
ball volume at area-radius s, the model volume is
vol(s) = V_H(s) - V_H(core) + W(core) - W(s), so K = W(core) - V_H(core)
is the limit of vol(s(rho)) - V_H(sinh rho), and at a finite rho only W(s) and
a hyperbolic shell of width G(s) are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    RadialMetric,
    _gap_moment,
    coordinate_gap,
    s_from_rho,
    validate_ah,
)
from .numerics import (
    NumericsError,
    QuadResult,
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
#
# Hyperbolic space is the model f = 1 + s^2 with s = sinh rho.  Its ball
# of area-radius s has volume V_H(s) = 2 pi (s sqrt(1 + s^2) - asinh s),
# whose derivative is the volume element 4 pi s^2 / sqrt(1 + s^2).


# (3 / (4 pi))^{1/3}: the Euclidean ball of volume v has radius this * v^{1/3}.
_EUCLID_RADIUS = float(np.cbrt(0.75 / math.pi))

# Below s = 0.6 the closed form cancels O(s) terms to an O(s^3) volume.
# There V_H(s) = (4 pi / 3) s^3 sum_j c_j s^{2j}, the integral of the
# binomial series of the volume element, with c_j = 3 C(-1/2, j) / (2j + 3);
# at s^2 = 0.36 the first term left out is below 1e-20.
_SERIES_TOP = 0.6
_SERIES_POWERS = np.arange(40.0)
_SERIES_COEFFS = np.array(
    [(-1) ** j * 3 * math.comb(2 * j, j) / (4**j * (2 * j + 3)) for j in range(40)]
)


def _hyperbolic_volume_over_s(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """V_H(s) / s for a 1-d array of area radii s >= 0, with q = sqrt(1 + s^2).

    Unlike V_H itself it is a normal float for the radii of subnormal
    volumes (s ~ 1e-108).
    """
    big = s >= _SERIES_TOP
    if big.all():
        return 2.0 * math.pi * (q - np.arcsinh(s) / s)
    out = np.empty_like(s)
    sb = s[big]
    out[big] = 2.0 * math.pi * (q[big] - np.arcsinh(sb) / sb)
    z = s[~big] ** 2
    # All terms at once: a Horner loop would cost one array pass per term.
    acc = (np.power.outer(z, _SERIES_POWERS) * _SERIES_COEFFS).sum(axis=1)
    out[~big] = FOUR_PI / 3.0 * z * acc
    return out


def _ball_volume(s: float) -> float:
    """V_H(s), the volume of the hyperbolic ball of area-radius s >= 0."""
    ratio = _hyperbolic_volume_over_s(np.array([s]), np.array([math.sqrt(1.0 + s * s)]))
    return s * float(ratio[0])


def hyperbolic_volume(rho: float) -> float:
    """Volume V_H(sinh rho) of the hyperbolic ball of geodesic radius rho >= 0.

    Raises ``ValueError`` past rho ~ 354.7, where the volume exceeds the
    float range.
    """
    if not math.isfinite(rho) or rho < 0.0:
        raise ValueError(f"rho must be finite and >= 0, got {rho!r}")
    vol = _ball_volume(math.sinh(rho)) if rho < 710.0 else math.inf
    if math.isinf(vol):
        raise ValueError(f"the hyperbolic volume at rho = {rho!r} overflows")
    return vol


# (3 sqrt 2 / 4 pi)^{1/3}: a start s = this * v^{1/3} <= 1 is above the
# root, since V_H(s) >= 4 pi s^3 / (3 sqrt 2) = v for s <= 1.
_SMALL_START = float(np.cbrt(3.0 * math.sqrt(2.0) / FOUR_PI))
# Newton rounds after which hyperbolic_profile gives up.
_PROFILE_ROUNDS = 64


def hyperbolic_profile(v):
    """Hyperbolic isoperimetric profile A_H(v) = 4 pi s_v^2, V_H(s_v) = v.

    ``v`` may be a scalar (a float comes back) or an array of volumes.
    No quadrature: Newton's method on the closed form V_H, all rows
    together, each started above its root.  That start is
    (3 sqrt 2 v / 4 pi)^{1/3} when at most 1, else, with t^2 = v / 2 pi
    and b = 1 + sqrt(1 + t^2), the smaller of b and
    sqrt(t^2 + asinh b - 1/2 + 1 / (8 (t^2 + 0.9375))), by
    V_H(s) >= 2 pi (s^2 + 1/2 - 1 / (8 s^2) - asinh s).  V_H is convex,
    so the iterates descend monotonically with no bracket.  The step
    (V_H(s) / s - v / s) sqrt(1 + s^2) / (4 pi s) stays in range from
    subnormal v up.  A row stops once its step is at most 4 ulp of s
    (applied) or no longer positive, and is not touched again, so each
    volume's A_H does not depend on the batch.

    Raises
    ------
    ValueError
        If a volume is not finite and > 0.
    NumericsError
        If a row still moves after 64 rounds, or an A_H exceeds the float
        range (v above ~9e307).
    """
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    vols = arr.reshape(-1)
    if vols.size == 0 or not np.all(np.isfinite(vols)) or np.any(vols <= 0.0):
        raise ValueError(f"v must be finite and > 0, got {v!r}")
    small = _SMALL_START * np.cbrt(vols)
    t2 = vols / (2.0 * math.pi)
    b = 1.0 + np.sqrt(1.0 + t2)
    s = np.where(
        small <= 1.0,
        small,
        np.minimum(b, np.sqrt(t2 + np.arcsinh(b) - 0.5 + 0.125 / (t2 + 0.9375))),
    )
    out = np.empty_like(s)
    rows = np.arange(s.size)
    for _ in range(_PROFILE_ROUNDS):
        q = np.sqrt(1.0 + s * s)
        step = (_hyperbolic_volume_over_s(s, q) - vols / s) * q / (FOUR_PI * s)
        done = step <= 4.0 * np.spacing(s)
        s = s - np.maximum(step, 0.0)
        if done.any():
            out[rows[done]] = s[done]
            if done.all():
                break
            keep = ~done
            rows, s, vols = rows[keep], s[keep], vols[keep]
    else:
        raise NumericsError(
            f"hyperbolic_profile: s = {float(s[0])!r} still moving for "
            f"v = {float(vols[0])!r} after {_PROFILE_ROUNDS} rounds"
        )
    with np.errstate(over="ignore"):
        area = FOUR_PI * out * out
    if np.any(np.isinf(area)):
        bad = float(arr.reshape(-1)[np.isinf(area)][0])
        raise NumericsError(f"hyperbolic_profile: A_H not finite for v = {bad!r}")
    return float(area[0]) if scalar else area.reshape(arr.shape)


# ----------------------------------------------------------------------
# Model volumes


def _volume_integrand(metric: RadialMetric):
    def fn(u):
        u = np.asarray(u, dtype=float)
        # Past u ~ 1.3e154 this is inf / inf (in w too, past b ~ 1.3e154),
        # which the kernels' finite checks turn into a NumericsError.
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            return 8.0 * math.pi * b * b / np.sqrt(metric.core_quotient(w * w))

    return fn


# Absolute tolerance of every model volume: a volume, a flow's volume
# increments, and a volume inversion's sweep and Newton panels.
_VOLUME_TOL = 1e-10


def model_volume_quad(metric: RadialMetric, s: float) -> QuadResult:
    """Volume from the core out to area-radius s, with its error bound.

    Above a positive core the volume is integrated in w with
    s = core + w^2, which removes the f^{-1/2} spike there.
    """
    core = metric.core_radius
    if not math.isfinite(s) or s < core:
        raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
    if core > 0.0:
        head = _volume_head_integrand(metric)
        return integrate(head, 0.0, math.sqrt(s - core), abs_tol=_VOLUME_TOL)
    return integrate(_volume_integrand(metric), 0.0, s, abs_tol=_VOLUME_TOL)


def model_volume(metric: RadialMetric, s: float) -> float:
    """Volume of the centered region bounded by the sphere at radius s."""
    return model_volume_quad(metric, s).value


def model_radius_for_volume(metric: RadialMetric, v):
    """Area-radius s_v of the centered region of volume v > 0.

    ``v`` may be a scalar (a float comes back) or a 1-d array of volumes
    in any order, inverted together.  The inversion runs in the area
    radius s, or in w with s = core + w^2 above a positive core, where
    the volume element stays finite.  One cumulative sweep
    (:func:`integrate_intervals`) gives the volume at a ladder of
    starting guesses, the Euclidean radius of v or sqrt(v / 2 pi),
    whichever is larger, and at twice the largest of them (doubled again
    until it encloses every v; a rung in w where the element would
    overflow doubles s - core instead); each volume is bracketed between two
    ladder points and starts at the one whose volume is closer.
    :func:`solve_increasing` then takes Newton steps with the volume
    element as the derivative, all volumes together, one GK15 panel per
    step.  The sweep, and the panels of each volume together, are held to
    1e-10 (``_VOLUME_TOL``).
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

    def above(t):
        # The next rung, 2t.  In w, where the element 8 pi b^2 would
        # overflow there, sqrt(2) t instead, which doubles s - core.
        up = 2.0 * t
        if core > 0.0 and not np.isfinite(density(up)):
            up = math.sqrt(2.0) * t
        return up

    # A start that underflows to zero would repeat the ladder's first point.
    ladder = np.sort(np.maximum(start, np.finfo(float).tiny))
    ladder = np.concatenate([[0.0], ladder[:1], ladder[1:][np.diff(ladder) > 0.0]])
    ladder = np.append(ladder, above(ladder[-1]))
    vals, _ = integrate_intervals(density, ladder, _VOLUME_TOL)
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    v_max = float(np.max(vols))
    for _ in range(80):
        if cum[-1] >= v_max:
            break
        top = above(float(ladder[-1]))
        more, _ = integrate_intervals(density, [ladder[-1], top], _VOLUME_TOL)
        ladder = np.append(ladder, top)
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
        _VOLUME_TOL,
    )
    s = core + t * t if core > 0.0 else t
    return float(s[0]) if scalar else s.reshape(arr.shape)


# ----------------------------------------------------------------------
# Renormalized volume

def renormalized_volume(
    metric: RadialMetric, truncation_rho: float = 20.0
) -> RenormVolumeResult:
    """Renormalized volume V = lim [vol_g(rho) - vol_H(rho)].

    Evaluated at ``truncation_rho`` = rho_T.  The neglected tail decays
    like 1/sinh(rho) with coefficient 8 pi m / 3; ``tail_estimate``
    reports it and a truncation radius that leaves more than 10% of the
    value in the tail is rejected.

    With s_T = s(rho_T) and G_T = G(s_T), so that asinh s_T = rho_T + G_T,
    and W the volume deficit (module docstring),

        V(rho_T) = W(core) - W(s_T) - V_H(core)
                   + 4 pi integral_{rho_T}^{rho_T + G_T} sinh^2 r dr.

    Both W values are semi-infinite :func:`_gap_moment` integrals, and
    the shell is 2 pi [(cosh(2 rho_T + G_T) - 1) sinh G_T + (sinh G_T - G_T)],
    whose two terms have the sign of G_T.  ``quad_error`` sums the bounds
    of the two W integrals and the bound of G_T times the shell's slope
    4 pi sinh^2(rho_T + G_T).

    Nonnegative for every valid model of mass > 0, zero exactly for
    hyperbolic space.  A massless model singular at the origin can pass
    :func:`validate_ah` with V < 0: f = 1 + s^2 + 0.05 / s^2 has
    V = -0.2437.
    """
    if not math.isfinite(truncation_rho):
        raise ValueError("truncation_rho must be finite")
    core = metric.core_radius

    rho_low = math.asinh(core) - coordinate_gap(metric, core).value
    if truncation_rho <= rho_low + 1e-9:
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} does not exceed the inner "
            f"boundary radius {rho_low!r}"
        )
    s_top = s_from_rho(metric, truncation_rho)
    gap_top = coordinate_gap(metric, s_top)
    w_core = _gap_moment(metric, core, 2)
    w_top = _gap_moment(metric, s_top, 2)

    g = gap_top.value
    sh = math.sinh(g)
    shell = 2.0 * math.pi * (
        (math.cosh(2.0 * truncation_rho + g) - 1.0) * sh + (sh - g)
    )
    total = math.fsum([
        FOUR_PI * w_core.value,
        -FOUR_PI * w_top.value,
        -_ball_volume(core),
        shell,
    ])

    tail = 8.0 * math.pi * metric.mass / (3.0 * math.sinh(truncation_rho))
    if metric.mass > 0.0 and tail > 0.1 * abs(total):
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} too small: tail estimate "
            f"{tail:.3e} exceeds 10% of the value {total:.6e}"
        )
    quad_error = (
        FOUR_PI * (w_core.error_bound + w_top.error_bound)
        + FOUR_PI * math.sinh(truncation_rho + g) ** 2 * gap_top.error_bound
    )
    return RenormVolumeResult(
        value=total,
        truncation_rho=truncation_rho,
        tail_estimate=tail,
        quad_error=quad_error,
    )


def _renormalized_limit(metric: RadialMetric) -> float:
    """K = W(core) - V_H(core), the rho_T -> inf limit of V(rho_T); 0.0 on H^3."""
    core = metric.core_radius
    w_core = _gap_moment(metric, core, 2)
    return math.fsum([FOUR_PI * w_core.value, -_ball_volume(core)])


# ----------------------------------------------------------------------
# Gap table


def gap_table(metric: RadialMetric, v_grid) -> ProfileTable:
    """Profile comparison columns on an increasing positive volume grid.

    scaled_gap is (gap + 2K) sqrt(v), with K = W(core) - V_H(core) the
    renormalized volume itself (no truncation radius, no tail); along a
    growing grid it tends to a constant proportional to the mass.
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
    limit = _renormalized_limit(metric)
    s_v = model_radius_for_volume(metric, grid)
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
        scaled_gap=(gap + 2.0 * limit) * np.sqrt(grid),
    )


# ----------------------------------------------------------------------
# Vectorized cumulative volume for dense flow grids


def cumulative_volume_over_grid(
    metric: RadialMetric, s_grid: np.ndarray
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
    vals, err = integrate_intervals(_volume_integrand(metric), s, _VOLUME_TOL)
    out = np.concatenate([[0.0], np.cumsum(vals)])
    return out, float(np.sum(err))
