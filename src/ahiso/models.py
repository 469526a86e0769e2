"""Rotationally symmetric metric models in area-radius form.

A model is the warped product g = f(s)^{-1} ds^2 + s^2 sigma with sigma
the round unit 2-sphere and

    f(s) = 1 + s^2 - 2 m / s + sum_{k >= 2} c_k s^{-k}.

Hyperbolic space is f = 1 + s^2.  A positive mass adds the -2m/s well
and a core radius (the largest positive root of f); the metric lives on
s > core_radius.  Perturbation coefficients c_k deform the family while
keeping the 1 + s^2 leading behaviour.

Several quantities here are written in terms of the deficit

    d(s) = f(s) - (1 + s^2),

which is evaluated term by term.  Forming f - (1 + s^2) by subtraction
loses all significant digits once s is large, and the deficit is exactly
the piece that curvature excesses and mass integrands depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import (
    QuadResult,
    find_root,
    integrate,
    integrate_intervals,
    solve_increasing,
)

__all__ = [
    "RadialMetric",
    "ValidationReport",
    "make_hyperbolic",
    "make_ads_schwarzschild",
    "make_perturbed",
    "scalar_curvature",
    "scalar_curvature_excess",
    "coordinate_gap",
    "gap_over_grid",
    "rho_from_s",
    "s_from_rho",
    "validate_ah",
]


@dataclass(frozen=True)
class RadialMetric:
    """One member of the radial model family.

    Attributes
    ----------
    mass : float
        Coefficient m of the -2m/s term.  Nonnegative.
    coeffs : tuple of float
        Perturbation coefficients (c_2, c_3, ...), possibly empty.
    core_radius : float
        Largest positive root of f, or 0 when f > 0 on all of (0, inf).
        Computed by the constructors; do not pass by hand.

    The methods take a scalar or an array.  A scalar is evaluated as a 0-d
    array and returned as a float, so it gets the array path's bits, inf
    and nan included.
    """

    mass: float
    coeffs: tuple[float, ...] = ()
    core_radius: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mass) or self.mass < 0.0:
            raise ValueError(f"mass must be finite and >= 0, got {self.mass!r}")
        if any(not math.isfinite(c) for c in self.coeffs):
            raise ValueError("perturbation coefficients must be finite")
        if not math.isfinite(self.core_radius) or self.core_radius < 0.0:
            raise ValueError(
                f"core_radius must be finite and >= 0, got {self.core_radius!r}"
            )
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    # -- profile -------------------------------------------------------

    def deficit(self, s):
        """f(s) - (1 + s^2), evaluated without cancellation."""
        arr = np.asarray(s, dtype=float)
        out = np.zeros_like(arr)
        if self.mass:
            out = out - 2.0 * self.mass / arr
        for k, c in enumerate(self.coeffs, start=2):
            if c:
                out = out + c * np.power(arr, -k)
        return float(out) if arr.ndim == 0 else out

    def deficit_prime(self, s):
        """d/ds of the deficit."""
        arr = np.asarray(s, dtype=float)
        out = np.zeros_like(arr)
        if self.mass:
            out = out + 2.0 * self.mass / (arr * arr)
        for k, c in enumerate(self.coeffs, start=2):
            if c:
                out = out - k * c * np.power(arr, -k - 1)
        return float(out) if arr.ndim == 0 else out

    def f(self, s):
        arr = np.asarray(s, dtype=float)
        out = 1.0 + arr * arr + self.deficit(arr)
        return float(out) if arr.ndim == 0 else out

    def f_prime(self, s):
        arr = np.asarray(s, dtype=float)
        out = 2.0 * arr + self.deficit_prime(arr)
        return float(out) if arr.ndim == 0 else out

    def core_quotient(self, delta):
        """f(core_radius + delta) / delta for delta > 0, without cancellation.

        Only defined for models with core_radius > 0, where f has a simple
        root at the core.  The quotient extends smoothly to delta = 0 with
        value f'(core_radius), which is what makes integrands in the
        substitution s = core + w^2 regular.
        """
        if self.core_radius <= 0.0:
            raise ValueError("core_quotient requires a positive core_radius")
        arr = np.asarray(delta, dtype=float)
        sh = self.core_radius
        b = sh + arr
        # (f(b) - f(sh)) / delta with f(sh) = 0, expanded term by term.
        out = (2.0 * sh + arr) + 2.0 * self.mass / (b * sh)
        for k, c in enumerate(self.coeffs, start=2):
            if c:
                ladder = np.zeros_like(arr)
                for j in range(k):
                    ladder = ladder + np.power(b, j) * sh ** (k - 1 - j)
                out = out - c * ladder / (np.power(b, k) * sh ** k)
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the asymptotically hyperbolic sanity checks."""

    min_scalar_curvature_excess: float
    decay_exponent_estimate: float
    is_ah: bool
    messages: tuple[str, ...] = field(default_factory=tuple)


# ----------------------------------------------------------------------
# Constructors


def _core_radius(mass: float, coeffs: tuple[float, ...]) -> float:
    """Largest positive root of f, or 0 if none.

    s^n f(s), n = 1 + len(coeffs), is the monic polynomial P = [1, 0, 1,
    -2m, c_2, ...], so f > 0 above its largest root.  Roots are companion
    eigenvalues, real when |imag| <= 1e-7 |z| (so a near-double root split
    into a complex pair is kept), and accurate to about eps of the largest
    modulus (>= ~1): the root, if below 1e-6, is 1/w, w the least root
    above 1e6 of the reversed polynomial.  :func:`find_root` on P polishes
    it within 1e-9; where P keeps its sign there, it is a double root.
    """
    name = f"the model with mass {mass!r} and coeffs {list(coeffs)!r}"
    if math.isinf(2.0 * mass):
        raise ValueError(f"-2m overflows for {name}")
    coef = [1.0, 0.0, 1.0, -2.0 * mass, *coeffs]
    # Divide out s^k: a zero root is not positive, P would underflow near a
    # tiny root, and the reversed polynomial is normalized by coef[-1].
    while coef[-1] == 0.0:
        coef.pop()
    p = np.array(coef)

    def positive_roots(monic):
        # np.roots' companion matrix, without its input checks and trimming.
        companion = np.eye(monic.size - 1, k=-1)
        companion[0] = -monic[1:]
        z = np.linalg.eigvals(companion)
        real = z.real[np.abs(z.imag) <= 1e-7 * np.abs(z)]
        return real[real > 0.0]

    r = float(positive_roots(p).max(initial=0.0))
    if r < 1e-6:
        with np.errstate(over="ignore"):
            q = p[::-1] / p[-1]
        if not np.all(np.isfinite(q)):
            raise ValueError(f"cannot normalize the reversed polynomial of {name}")
        w = positive_roots(q)
        r = 1.0 / float(w[w > 1e6].min(initial=math.inf))

    def poly(s):
        out = 0.0
        for c in coef:
            out = out * s + c
        return out

    lo, hi = r * (1.0 - 1e-9), r * (1.0 + 1e-9)
    if r == 0.0 or (poly(lo) < 0.0) == (poly(hi) < 0.0):
        return r
    return find_root(poly, lo, hi, tol=1e-15 * hi)


def make_hyperbolic() -> RadialMetric:
    """Hyperbolic 3-space: f = 1 + s^2, domain s > 0."""
    return RadialMetric(mass=0.0, coeffs=(), core_radius=0.0)


def make_ads_schwarzschild(mass: float) -> RadialMetric:
    """AdS-Schwarzschild slice of mass m > 0: f = 1 + s^2 - 2m/s."""
    if not math.isfinite(mass) or mass <= 0.0:
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    return RadialMetric(mass=mass, coeffs=(), core_radius=_core_radius(mass, ()))


def make_perturbed(mass: float, coeffs: Sequence[float]) -> RadialMetric:
    """General member with decay tail sum c_k s^{-k}, k = 2, 3, ...

    The tail may shrink the core (fill in the profile near the horizon)
    but must not push it outward: a coefficient list that makes f vanish
    beyond the mass horizon removes part of the model's domain and is
    rejected.
    """
    # The record checks the mass and the coefficients before any root is taken.
    coeffs = RadialMetric(mass=mass, coeffs=tuple(coeffs)).coeffs
    base = _core_radius(mass, ())
    core = _core_radius(mass, coeffs) if coeffs else base
    if core > base * (1.0 + 1e-9) + 1e-12:
        raise ValueError(
            f"coefficients {list(coeffs)!r} remove the positive domain near "
            f"s = {core:.4g} (the horizon of mass {mass!r} is at s = {base:.4g})"
        )
    return RadialMetric(mass=mass, coeffs=coeffs, core_radius=core)


# ----------------------------------------------------------------------
# Curvature


def scalar_curvature(metric: RadialMetric, s):
    """Scalar curvature R(s) = (2/s^2) (1 - f - s f').

    Equals -6 identically for hyperbolic space and AdS-Schwarzschild.
    """
    arr = np.asarray(s, dtype=float)
    _check_domain(metric, arr)
    fv = metric.f(arr)
    fp = metric.f_prime(arr)
    out = (2.0 / (arr * arr)) * (1.0 - fv - arr * fp)
    return float(out) if arr.ndim == 0 else out


def scalar_curvature_excess(metric: RadialMetric, s):
    """R(s) + 6 evaluated without forming R first.

    Algebraically R + 6 = -(2/s^2) (d + s d') with d the deficit; the
    mass term cancels identically, leaving sum 2 (k-1) c_k s^{-k-2}.
    The direct route through scalar_curvature loses the excess to
    rounding once it falls below ~1e-15 * s^0, this one does not.
    """
    arr = np.asarray(s, dtype=float)
    _check_domain(metric, arr)
    out = np.zeros_like(arr)
    for k, c in enumerate(metric.coeffs, start=2):
        if c:
            out = out + 2.0 * (k - 1) * c * np.power(arr, -k - 2)
    return float(out) if arr.ndim == 0 else out


def _check_domain(metric: RadialMetric, arr: np.ndarray):
    if np.any(arr <= metric.core_radius) or np.any(~np.isfinite(arr)):
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {arr!r}"
        )


# ----------------------------------------------------------------------
# Geodesic coordinate


def _gap_integrand(metric: RadialMetric, k: int = 0):
    """Integrand of the coordinate gap, stable at every scale, times u^k.

    f^{-1/2} - (1+u^2)^{-1/2} rewritten as -d / (sqrt(f) sqrt(q)
    (sqrt(f) + sqrt(q))) with q = 1 + u^2; the subtraction form loses
    relative accuracy like u^2/d once u is large.
    """

    def g(u):
        u = np.asarray(u, dtype=float)
        q = 1.0 + u * u
        fv = metric.f(u)
        d = metric.deficit(u)
        sf = np.sqrt(fv)
        sq = np.sqrt(q)
        out = -d / (sf * sq * (sf + sq))
        return out * u**k

    return g


def _gap_head_integrand(metric: RadialMetric, k: int = 0):
    """The gap integrand times u^k in w, with u = core + w^2, du = 2 w dw.

    Near the core f vanishes like f'(core)(u - core), so the integrand in
    u carries a 1/sqrt spike; in w it is smooth, with f / w^2 taken from
    the cancellation-free core quotient.
    """
    core = metric.core_radius

    def g_head(w):
        w = np.asarray(w, dtype=float)
        delta = w * w
        b = core + delta
        q = 1.0 + b * b
        d = metric.deficit(b)
        sw = np.sqrt(metric.core_quotient(delta))
        sq = np.sqrt(q)
        out = -2.0 * d / (sw * sq * (w * sw + sq))
        return out * b**k

    return g_head


# Relative tolerance of every coordinate-gap and volume-deficit integral
# (G, W and the geodesic radius; a few dozen evaluations each on ads m = 1).
_GAP_TOL = 1e-13


def _gap_moment(metric: RadialMetric, s: float, k: int) -> QuadResult:
    """integral_s^inf u^k [f(u)^{-1/2} - (1+u^2)^{-1/2}] du, for s >= core.

    Below core + 1 it is integrated in w with u = core + w^2, which
    removes the integrable 1/sqrt spike at a positive core; above, by
    :func:`integrate`'s 1/u tail, to relative tolerance ``_GAP_TOL``.
    """
    core = metric.core_radius
    if not math.isfinite(s) or s < core:
        raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
    g = _gap_integrand(metric, k)
    if core > 0.0 and s < core + 1.0:
        split, head_fn = core + 1.0, _gap_head_integrand(metric, k)
        w0 = math.sqrt(s - core)
        head = integrate(head_fn, w0, 1.0, abs_tol=1e-14, rel_tol=_GAP_TOL)
    elif s > 0.0:
        # The relative floor, not abs_tol, is what matters here: the moment
        # decays like m / s^(3 - k) and is consumed relatively by
        # downstream expansions.
        return integrate(g, s, math.inf, abs_tol=1e-300, rel_tol=_GAP_TOL)
    else:
        # s == core == 0: the integrand is bounded but f may still blow up
        # at the origin when tail coefficients are present; keep the origin
        # panel separate with an absolute floor.
        split = 1.0
        head = integrate(g, 0.0, 1.0, abs_tol=1e-14, rel_tol=_GAP_TOL)
    tail = integrate(g, split, math.inf, abs_tol=1e-300, rel_tol=_GAP_TOL)
    return QuadResult(
        head.value + tail.value,
        head.error_bound + tail.error_bound,
        head.evaluations + tail.evaluations,
    )


def coordinate_gap(metric: RadialMetric, s: float) -> QuadResult:
    """G(s) = integral_s^inf [f(u)^{-1/2} - (1+u^2)^{-1/2}] du.

    Defined for s >= core_radius.  At s = core_radius (mass > 0) the
    integrand has an integrable 1/sqrt singularity which is removed by
    the substitution u = core + w^2.
    """
    return _gap_moment(metric, s, 0)


def gap_over_grid(metric: RadialMetric, s) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate gap G and its error bound at every point of ``s``.

    One outside-in sweep: a single :func:`coordinate_gap` tail integral
    (relative tolerance 1e-13, ``_GAP_TOL``) at the largest point, then
    one panel per gap between consecutive points
    (:func:`integrate_intervals` at the same tolerance), summed from the
    outside in.  Gaps above core + 1 (above 1 when the core is 0) are
    integrated in x = 1/u, gaps below it in w with u = core + w^2 (in u
    itself when the core is 0), the forms :func:`coordinate_gap` uses.
    The points may come in any order and may repeat; each must lie in
    [core, inf).  A point's bound is the tail's bound plus the bounds of
    every panel above it.
    """
    pts = np.asarray(s, dtype=float)
    core = metric.core_radius
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("s must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(pts)) or np.any(pts < core):
        raise ValueError(f"every s must lie in [{core!r}, inf)")
    split = core + 1.0 if core > 0.0 else 1.0
    u = np.sort(pts)
    u = np.concatenate([u[:1], u[1:][np.diff(u) > 0.0]])
    k = int(np.searchsorted(u, split))
    if 0 < k < u.size and u[k] != split:
        u = np.concatenate([u[:k], [split], u[k:]])

    def panels(fn, t):
        # t is nondecreasing; intervals of zero width (points that
        # coincide after the change of variable) contribute nothing.
        v, e = np.zeros(t.size - 1), np.zeros(t.size - 1)
        wide = np.diff(t) > 0.0
        if wide.any():
            edges = np.concatenate([t[:1], t[1:][wide]])
            v[wide], e[wide] = integrate_intervals(fn, edges, _GAP_TOL)
        return v, e

    # The intervals [u[i], u[i + 1]] with i < n_head lie below the split.
    n_head = min(int(np.searchsorted(u, split)), u.size - 1)
    if core > 0.0:
        head = panels(_gap_head_integrand(metric), np.sqrt(u[: n_head + 1] - core))
    else:
        head = panels(_gap_integrand(metric), u[: n_head + 1])
    far = (np.zeros(0), np.zeros(0))
    if n_head < u.size - 1:
        g = _gap_integrand(metric)
        far = panels(lambda x: g(1.0 / x) / (x * x), 1.0 / u[n_head:][::-1])
    top = coordinate_gap(metric, float(u[-1]))
    # Summed from the outside in: the x panels in x order, then the head
    # panels downward; reversed, u ascends again.
    gap = np.cumsum(np.concatenate([[top.value], far[0], head[0][::-1]]))[::-1]
    bound = np.cumsum(np.concatenate([[top.error_bound], far[1], head[1][::-1]]))[::-1]
    at = np.searchsorted(u, pts)
    return gap[at], bound[at]


def rho_from_s(metric: RadialMetric, s: float) -> float:
    """Geodesic radius of the sphere at area-radius s.

    rho(s) = arcsinh(s) - G(s) with G the coordinate gap, so that
    d rho / d s = f(s)^{-1/2} and rho(s) -> arcsinh(s) at infinity.
    For hyperbolic space G vanishes and rho = arcsinh(s) exactly.
    """
    if not math.isfinite(s) or s <= metric.core_radius:
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {s!r}"
        )
    return math.asinh(s) - coordinate_gap(metric, s).value


# Largest rho with a finite sinh(rho); no float area radius lies beyond it.
_RHO_MAX = math.asinh(np.finfo(float).max)


def s_from_rho(metric: RadialMetric, rho: float) -> float:
    """Numerical inverse of rho_from_s.

    Newton's method on rho(s) = rho (:func:`solve_increasing`) with
    d rho / d s = f^{-1/2}, in w with s = core + w^2 above a positive
    core, where d rho / d w = 2 (f / w^2)^{-1/2} stays finite.  It starts
    1e-12 below s = sinh(rho), or at the core when that lies below it,
    with rho there from one :func:`coordinate_gap` tail; every step adds
    one GK15 panel of the derivative.  Where G >= 0 the start lies below
    the root by more than the rounding of asinh, and rho(s) is concave
    wherever f grows, so the steps approach the root from below.  A start
    above the root (G < 0 there) is bracketed from below by the bottom of
    the domain, after one more tail integral checks that rho lies in its
    image.  The tails' relative tolerance and the absolute tolerance of
    the panels' sum are both 1e-13 (``_GAP_TOL``).
    """
    if not math.isfinite(rho) or rho > _RHO_MAX:
        raise ValueError(f"rho must be finite and <= {_RHO_MAX!r}, got {rho!r}")
    core = metric.core_radius
    # Below rho = 0 the start is the core, and sinh need not overflow.
    s0 = max(math.sinh(max(rho, 0.0)) * (1.0 - 1e-12), core)
    rho0 = math.asinh(s0) - coordinate_gap(metric, s0).value
    if core > 0.0:

        def density(w):
            return 2.0 / np.sqrt(metric.core_quotient(w * w))

    else:

        def density(s):
            return 1.0 / np.sqrt(metric.f(s))

    t0 = math.sqrt(s0 - core) if core > 0.0 else s0
    lo, hi = t0, math.inf
    if rho0 >= rho:
        # rho at the bottom of the domain: the core, or s = 0.
        bottom = rho0
        if s0 > core:
            bottom = math.asinh(core) - coordinate_gap(metric, core).value
        if bottom >= rho:
            raise ValueError(f"rho = {rho!r} is below the image of the domain")
        lo, hi = 0.0, t0
    t = float(solve_increasing(density, [rho], [t0], [rho0], [lo], [hi], _GAP_TOL)[0])
    return core + t * t if core > 0.0 else t


# ----------------------------------------------------------------------
# Validation


def default_grid(metric: RadialMetric, n: int = 50) -> np.ndarray:
    """Log-spaced validation grid [core + 0.1 max(1, core), max(1e3, 1e3 core)]."""
    core = metric.core_radius
    return np.geomspace(core + 0.1 * max(1.0, core), max(1e3, 1e3 * core), n)


def validate_ah(metric: RadialMetric) -> ValidationReport:
    """Check the asymptotically hyperbolic model requirements.

    Two properties are examined on :func:`default_grid`: the scalar
    curvature excess R + 6 must be nonnegative up to 1e-9, and the
    perturbation part of the profile, f - (1 + s^2 - 2m/s), must decay at
    least like s^{-2}.  The decay exponent is fit by log-log regression on
    the tail half of the grid and is +inf when the perturbation vanishes.
    """
    grid = default_grid(metric)
    _check_domain(metric, grid)

    excess = scalar_curvature_excess(metric, grid)
    min_excess = float(np.min(excess))
    messages: list[str] = []
    if min_excess < -1e-9:
        messages.append(
            f"scalar curvature dips below -6: min excess {min_excess:.3e}"
        )

    # Perturbation part only; the mass term is part of the family.
    pert = metric.deficit(grid) + 2.0 * metric.mass / grid
    tail = grid[grid.size // 2 :]
    pert_tail = pert[grid.size // 2 :]
    mask = np.abs(pert_tail) > 1e-280
    if not metric.coeffs or not np.any(mask):
        exponent = math.inf
    else:
        slope, _ = np.polyfit(np.log(tail[mask]), np.log(np.abs(pert_tail[mask])), 1)
        exponent = float(-slope)
        if exponent < 2.0 - 1e-2:
            messages.append(
                f"perturbation decays too slowly: fitted exponent {exponent:.3f}"
            )

    is_ah = not messages
    return ValidationReport(
        min_scalar_curvature_excess=min_excess,
        decay_exponent_estimate=exponent,
        is_ah=is_ah,
        messages=tuple(messages),
    )
