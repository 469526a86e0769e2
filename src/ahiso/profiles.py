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
    _chart,
    _Chart,
    _gap_moment,
    coordinate_gap,
    s_from_rho,
    validate_ah,
)
from .numerics import (
    NumericsError,
    QuadResult,
    _increasing,
    _interpolant_root,
    _panels,
    solve_increasing,
)

__all__ = [
    "ProfileTable",
    "RenormVolumeResult",
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


# cbrt(6 / pi): x = cbrt(6 / pi) cbrt(v) bounds 2 rho_v from above, with
# no underflow at v = 5e-324 (cbrt(6 v / pi) rounds to 0 there).
_CUBE_START = float(np.cbrt(6.0 / math.pi))
# Newton rounds after which hyperbolic_profile gives up.
_PROFILE_ROUNDS = 64


def hyperbolic_profile(v):
    """Hyperbolic isoperimetric profile A_H(v) = 4 pi s_v^2, V_H(s_v) = v.

    ``v`` may be a scalar (a float comes back) or an array of volumes.
    No quadrature: Newton's method on the closed form V_H, all rows
    together, each started above its root.  With s = sinh(x / 2) the
    ball volume is pi (sinh x - x), so x solves sinh x - x = y = v / pi,
    and the start bounds x from above three times over: by
    c = cbrt(6 / pi) cbrt(v), since sinh x - x >= x^3 / 6; by
    asinh(y + c), since sinh x = y + x; and, where that is above 1/2, by
    two Newton steps on sinh x - x - y, which is convex there.  Then
    s = w / sqrt(2 (1 + sqrt(1 + w^2))) with w = y + x, which is
    sinh(x / 2) at the root and grows with x: x enters only through w, so
    its rounding (up to ~60 ulp of s at large v, were s taken as
    sinh(x / 2)) does not reach s.  Four ulp more cover the start's own
    rounding (at most 1.7 ulp below the root, measured).  From there the
    loop takes at most three rounds (one at v = 5e-324 and at 8e307),
    except four for v between ~6e-4 and ~0.05, where x < 1/2 takes no
    Newton step and the start lies up to x^2 / 60 high.  V_H is convex,
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
    if vols.size == 0 or not np.isfinite(vols).all() or (vols <= 0.0).any():
        raise ValueError(f"v must be finite and > 0, got {v!r}")
    y = vols / math.pi
    x = np.arcsinh(y + _CUBE_START * np.cbrt(vols))
    big = x > 0.5
    xb, yb = x[big], y[big]
    for _ in range(2):
        xb = xb - (np.sinh(xb) - xb - yb) / (np.cosh(xb) - 1.0)
    x[big] = xb
    w = y + x
    s = w / np.sqrt(2.0 * (1.0 + np.hypot(1.0, w)))
    s = s + 4.0 * np.spacing(s)
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
    if np.isinf(area).any():
        bad = float(arr.reshape(-1)[np.isinf(area)][0])
        raise NumericsError(f"hyperbolic_profile: A_H not finite for v = {bad!r}")
    return float(area[0]) if scalar else area.reshape(arr.shape)


# ----------------------------------------------------------------------
# Model volumes


def _volume_element(chart: _Chart, p: int = 0):
    """2^p times the volume element 4 pi s^2 ds / (sqrt(f) dt) at chart points t."""
    scale = math.ldexp(FOUR_PI, p)

    def fn(t):
        # Past s ~ 1.3e154, s * s and f overflow and this is inf or nan,
        # which the kernels' finite checks turn into a NumericsError.
        with np.errstate(over="ignore", invalid="ignore"):
            s, jac, _ = chart.point(t)
            return scale * s * s * jac

    return fn


# Absolute tolerance of every model volume: a volume, a flow's volume
# increments, and a volume inversion's sweep and Newton panels.
_VOLUME_TOL = 1e-10
# Rung j of the volume lattice, t = 2^(j / 8), is the mantissa
# _EIGHTHS[j % 8] times the exact power 2^(j // 8).
_EIGHTHS = np.exp2(np.arange(8) / 8.0)


def _rungs(chart: _Chart, top: int, lowest: float = math.inf) -> np.ndarray:
    """Rungs t = 2^(j / 8) of the volume lattice in ``chart`` for j < top, from the
    lower of ``lowest`` and the anchor rung, at or below s - core = 2^-8 max(1, core),
    so that a ladder's first panel, from t = 0, stays in the core region."""
    core = chart.metric.core_radius
    anchor = math.floor(8.0 * math.log2(chart.to_t(core + math.ldexp(max(1.0, core), -8))))
    j = np.arange(min(lowest, anchor), top)
    return np.ldexp(_EIGHTHS[j % 8], j // 8)


def model_volume_quad(metric: RadialMetric, s: float) -> QuadResult:
    """Volume from the core out to area-radius s, with its error bound.

    One GK15 panel of the element in the chart t of :func:`models._chart`
    from t = 0 to the first rung of :func:`_rungs` below t(s), one per rung
    interval and one from the last rung to t(s), at 1e-10 / (number of
    panels) each in one :func:`numerics._panels` sweep: the lattice that
    :func:`model_radius_for_volume` brackets on, so the bound holds at every s.
    """
    core = metric.core_radius
    if not math.isfinite(s) or s < core:
        raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
    if s == core:
        return QuadResult(0.0, 0.0, 0)
    chart = _chart(metric)
    t = float(chart.to_t(s))
    rungs = _rungs(chart, math.floor(8.0 * math.log2(t)) + 1)
    ends = np.concatenate([[0.0], rungs[rungs < t], [t]])
    n = ends.size - 1
    vals, err, _ = _panels(_volume_element(chart), ends[:-1], ends[1:], _VOLUME_TOL / n)
    return QuadResult(float(vals.sum()), float(err.sum()), 15 * n)


def model_volume(metric: RadialMetric, s: float) -> float:
    """Volume of the centered region bounded by the sphere at radius s."""
    return model_volume_quad(metric, s).value


def model_radius_for_volume(metric: RadialMetric, v):
    """Area-radius s_v of the centered region of volume v > 0.

    ``v`` may be a scalar (a float comes back) or a 1-d array of volumes
    in any order, inverted together in the chart t of :func:`models._chart`
    (w with s = core + w^2 above a positive core), where the volume
    element stays finite.  Every volume is bracketed between rungs of the
    lattice that :func:`model_volume_quad` panels along (:func:`_rungs`).
    The ladder is t = 0 and the rungs from the lower of the anchor rung
    and the rung below the smallest volume's guess up to four rungs above
    the largest volume's guess, then four more at a time until it encloses
    every v (NumericsError once a rung overflows).  A guess is the larger
    of the Euclidean radius of v and sqrt(v / 2 pi), or t = v / element(0)
    at or below a positive core.  One sweep (:func:`numerics._panels`)
    gives the volume at every rung and keeps the element at each rung
    panel's 15 nodes.  Each volume starts at the root of the degree-14
    interpolant of those values on its bracket
    (:func:`numerics._interpolant_root`, no element call), good to ~1e-10
    of t or better, and one more panel call, from the lower rung to every
    start, gives the volume and the element there.  From these
    :func:`solve_increasing`, bracketed by the two rungs, applies one
    Newton step; a row that the interpolant put too far off takes Newton
    rounds, one GK15 panel and one element call per round.  A batch that
    reaches near the subnormal range scales the element and the volumes by
    one exact power of two, so that the smallest volume is a normal float.
    The sweep's panels together are held to 1e-10 (``_VOLUME_TOL``), and
    the panels of each volume to it together: half to its start panel and
    half to its Newton rounds.
    """
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    vols = arr.reshape(-1)
    if vols.size == 0 or not np.isfinite(vols).all() or (vols <= 0.0).any():
        raise ValueError(f"v must be finite and > 0, got {v!r}")
    core = metric.core_radius
    chart = _chart(metric)
    lo_v, hi_v = vols.min(), vols.max()
    # Volumes below 2^-960 are scaled up to it, as far as the largest
    # stays below 2^960; the scale is exact, and p = 0 everywhere else.
    p = max(0, min(-960 - math.frexp(lo_v)[1], 960 - math.frexp(hi_v)[1]))
    element = _volume_element(chart, p)

    def rung_below(vol) -> int:
        # Both guesses are below s_v in hyperbolic space.  numpy's cbrt
        # and log2, not libm's, which can differ by an ulp and move a rung.
        guess = max(_EUCLID_RADIUS * np.cbrt(vol), math.sqrt(vol / (2.0 * math.pi)))
        if guess > core:
            log = np.log2(chart.to_t(guess))
        else:
            # Near a positive core the volume grows like element(0) t; in
            # logs, since v / element(0) can underflow.
            log = np.log2(vol) + p - math.log2(element(0.0))
        # No rung below 2^-1070: below it, neighbouring rungs round to one float.
        return max(math.floor(8.0 * log), -8559)

    ends = rung_below(lo_v), rung_below(hi_v)
    bottom, top = min(ends), max(ends) + 5
    target, tol = np.ldexp(vols, p), math.ldexp(_VOLUME_TOL, p)
    ladder, vals, nodes, cum, share = np.zeros(1), [], None, np.zeros(1), tol
    while not cum[-1] >= target.max():
        if top > 8192:  # 2^(j / 8) overflows
            raise NumericsError(f"failed to bracket s for v = {float(hi_v)!r}")
        rungs = _rungs(chart, top, bottom - 1)[ladder.size - 1 :]  # not yet swept
        # Each sweep takes half of what the ones before it left of tol.
        share /= 2.0
        more, _, _, at_nodes = _panels(
            element, np.append(ladder[-1], rungs[:-1]), rungs, share / rungs.size, nodes=True
        )
        ladder = np.append(ladder, rungs)
        vals = np.append(vals, more)
        nodes = at_nodes if nodes is None else np.concatenate([nodes, at_nodes])
        cum = np.concatenate([[0.0], np.cumsum(vals)])
        top += 4
    k = np.searchsorted(cum, target)
    lo, hi = ladder[k - 1], ladder[k]
    half = 0.5 * (hi - lo)
    x = _interpolant_root(nodes[k - 1], (target - cum[k - 1]) / half)
    # A start in (lo, hi] gives the start panel a width.
    start = np.minimum(np.maximum(0.5 * (lo + hi) + half * x, np.nextafter(lo, hi)), hi)
    part, _, slope = _panels(element, lo, start, tol / 2.0, start)
    t = solve_increasing(element, target, start, cum[k - 1] + part, slope, lo, hi, tol / 2.0)
    s = chart.to_s(t)
    return float(s[0]) if scalar else s.reshape(arr.shape)


# ----------------------------------------------------------------------
# Renormalized volume

def renormalized_volume(
    metric: RadialMetric, truncation_rho: float = 20.0
) -> RenormVolumeResult:
    """Renormalized volume V = lim [vol_g(rho) - vol_H(rho)].

    Evaluated at ``truncation_rho`` = rho_T, which must be > 0 and at
    most 348.38... (:func:`s_from_rho`).  The neglected tail decays like
    1/sinh(rho_T) with coefficient 8 pi m / 3; ``tail_estimate`` reports
    it and a truncation radius that leaves more than 10% of the value in
    the tail is rejected.  A rho_T below the image of the
    domain is rejected by :func:`s_from_rho` ("below the image").

    With s_T = s(rho_T) and G_T = G(s_T), so that asinh s_T = rho_T + G_T,
    W the volume deficit and K = W(core) - V_H(core) the limit
    (module docstring, :func:`_renormalized_limit`),

        V(rho_T) = K - W(s_T) + 4 pi integral_{rho_T}^{rho_T + G_T} sinh^2 r dr.

    W(s_T) is a semi-infinite :func:`_gap_moment` integral, and the shell
    is 2 pi [(cosh(2 rho_T + G_T) - 1) sinh G_T + (sinh G_T - G_T)], whose
    two terms have the sign of G_T.  ``quad_error`` sums the bounds of
    the two W integrals and the bound of G_T times the shell's slope
    4 pi sinh^2(rho_T + G_T).

    Nonnegative for every valid model of mass > 0, zero exactly for
    hyperbolic space.  A massless model singular at the origin can pass
    :func:`validate_ah` with V < 0: f = 1 + s^2 + 0.05 / s^2 has
    V = -0.2437.
    """
    if not 0.0 < truncation_rho < math.inf:
        raise ValueError(
            f"truncation_rho must be finite and > 0, got {truncation_rho!r}"
        )
    s_top = s_from_rho(metric, truncation_rho)
    gap_top = coordinate_gap(metric, s_top)
    limit = _renormalized_limit(metric)
    w_top = _gap_moment(metric, s_top, 2)

    g = gap_top.value
    sh = math.sinh(g)
    shell = 2.0 * math.pi * (
        (math.cosh(2.0 * truncation_rho + g) - 1.0) * sh + (sh - g)
    )
    total = math.fsum([limit.value, -FOUR_PI * w_top.value, shell])

    tail = 8.0 * math.pi * metric.mass / (3.0 * math.sinh(truncation_rho))
    if metric.mass > 0.0 and tail > 0.1 * abs(total):
        raise ValueError(
            f"truncation_rho = {truncation_rho!r} too small: tail estimate "
            f"{tail:.3e} exceeds 10% of the value {total:.6e}"
        )
    quad_error = (
        limit.error_bound
        + FOUR_PI * w_top.error_bound
        + FOUR_PI * math.sinh(truncation_rho + g) ** 2 * gap_top.error_bound
    )
    return RenormVolumeResult(
        value=total,
        truncation_rho=truncation_rho,
        tail_estimate=tail,
        quad_error=quad_error,
    )


def _renormalized_limit(metric: RadialMetric) -> QuadResult:
    """K = W(core) - V_H(core), the rho_T -> inf limit of V(rho_T); 0.0 on H^3.

    The bound is that of the one W(core) integral.
    """
    core = metric.core_radius
    w_core = _gap_moment(metric, core, 2)
    return QuadResult(
        math.fsum([FOUR_PI * w_core.value, -_ball_volume(core)]),
        FOUR_PI * w_core.error_bound,
        w_core.evaluations,
    )


# ----------------------------------------------------------------------
# Gap table


def gap_table(metric: RadialMetric, v_grid) -> ProfileTable:
    """Profile comparison columns on an increasing positive volume grid.

    scaled_gap is (gap + 2K) sqrt(v), with K = W(core) - V_H(core) the
    renormalized volume itself (no truncation radius, no tail); along a
    growing grid it tends to a constant proportional to the mass.  A
    scaled_gap that overflows raises ``NumericsError``, naming the first
    such v.
    """
    grid = np.array(v_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("v_grid must be nonempty")
    if (grid <= 0.0).any() or (np.diff(grid) <= 0.0).any():
        raise ValueError("v_grid must be positive and strictly increasing")
    report = validate_ah(metric)
    if not report.is_ah:
        raise ValueError(
            "model fails AH validation: " + "; ".join(report.messages)
        )
    limit = _renormalized_limit(metric).value
    s_v = model_radius_for_volume(metric, grid)
    a_g = FOUR_PI * s_v * s_v
    a_h = hyperbolic_profile(grid)
    gap = a_g - a_h
    # At huge volumes the rounding of gap times sqrt(v) overflows.
    with np.errstate(over="ignore"):
        scaled = (gap + 2.0 * limit) * np.sqrt(grid)
    if not np.isfinite(scaled).all():
        bad = float(grid[~np.isfinite(scaled)][0])
        raise NumericsError(f"gap_table: scaled_gap not finite for v = {bad!r}")
    return ProfileTable(v=grid, A_g=a_g, A_H=a_h, gap=gap, scaled_gap=scaled)


# ----------------------------------------------------------------------
# Vectorized cumulative volume for dense flow grids


def cumulative_volume_over_grid(
    metric: RadialMetric, s_grid: np.ndarray
) -> tuple[np.ndarray, float]:
    """Volume increments along a dense increasing radius grid.

    Returns cumulative volumes relative to s_grid[0] and a total error
    bound.  Each consecutive interval gets one Gauss-Kronrod panel,
    evaluated for the whole grid in one sweep in blocks of 1,024
    intervals (:func:`numerics._panels`, each panel held to its share
    1e-10 / len(s_grid)), so its node arrays are O(block) at any grid
    size; intervals whose error estimate is too large fall back to
    adaptive integration individually.  Interval count ~1e4 stays well
    under a second this way, where a per-interval adaptive call would
    not.  The grid must be finite, strictly increasing and start above
    the core radius (``ValueError``).
    """
    s = _increasing(s_grid, "s_grid")
    if s[0] <= metric.core_radius:
        raise ValueError("s_grid must start above the core radius")
    density = _volume_element(_chart(metric, head=False))
    vals, err, _ = _panels(density, s[:-1], s[1:], _VOLUME_TOL / s.size)
    out = np.concatenate([[0.0], np.cumsum(vals)])
    return out, float(np.sum(err))
