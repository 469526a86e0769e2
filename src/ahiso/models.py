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
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import (
    QuadResult,
    _panels,
    _reciprocal,
    find_root,
    integrate,
    solve_increasing,
)

__all__ = [
    "RadialMetric",
    "ValidationReport",
    "make_hyperbolic",
    "make_ads_schwarzschild",
    "make_perturbed",
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
        Derived from the mass and the coefficients, not passed.

    The tail may shrink the core (fill in the profile near the horizon)
    but must not push it outward: coefficients that make f vanish beyond
    the horizon of the mass alone remove part of the model's domain and
    raise ``ValueError``.

    The methods take a scalar or an array.  A scalar is evaluated as a 0-d
    array and returned as a float, so it gets the array path's bits, inf
    and nan included.
    """

    mass: float
    coeffs: tuple[float, ...] = ()
    core_radius: float = field(init=False)
    _quotient: tuple = field(default=(), init=False, repr=False, compare=False)  # P / (s - core)

    def __post_init__(self):
        mass = self.mass
        if not math.isfinite(mass) or mass < 0.0:
            raise ValueError(f"mass must be finite and >= 0, got {mass!r}")
        if any(not math.isfinite(c) for c in self.coeffs):
            raise ValueError("perturbation coefficients must be finite")
        coeffs = tuple(float(c) for c in self.coeffs)
        core = _core_radius(mass, coeffs)
        # The core lies beyond base (1 + 1e-9) + 1e-12, base the horizon of the
        # mass alone (the root of x^3 + x - 2m), exactly when that cubic, which
        # increases on x > 0, is positive at (core - 1e-12) / (1 + 1e-9).
        x = (core - 1e-12) / (1.0 + 1e-9)
        if (x * x + 1.0) * x - 2.0 * mass > 0.0:
            base = _core_radius(mass, ())
            raise ValueError(
                f"coefficients {list(coeffs)!r} remove the positive domain near "
                f"s = {core:.4g} (the horizon of mass {mass!r} is at s = {base:.4g})"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "core_radius", core)
        if core > 0.0:
            quotient = _horner(_polynomial(mass, coeffs), core)
            object.__setattr__(self, "_quotient", tuple(quotient[:-1]))

    # -- profile -------------------------------------------------------

    def deficit(self, s):
        """f(s) - (1 + s^2), evaluated without cancellation."""
        arr = np.asarray(s, dtype=float)
        # 0.0 - 2m/s, not -2m/s: a term that underflows gives +0.0.
        out = 0.0 - 2.0 * self.mass / arr if self.mass else np.zeros_like(arr)
        for k, c in enumerate(self.coeffs, start=2):
            if c:
                out = out + c * np.power(arr, -k)
        return float(out) if arr.ndim == 0 else out

    def f(self, s):
        arr = np.asarray(s, dtype=float)
        out = 1.0 + arr * arr + self.deficit(arr)
        return float(out) if arr.ndim == 0 else out

    def core_quotient(self, delta):
        """f(core_radius + delta) / delta for delta >= 0, without cancellation.

        Only defined for a positive core, a simple root of f: R(b) / b^n with
        b = core + delta and R = P / (s - core), P = s^n f(s) of :func:`_polynomial`
        deflated once per model, summed as b + r_1 + u (r_2 + u (r_3 + ...)) in u = 1/b,
        whose terms shrink as b grows.  At delta = 0 it is f'(core): s = core + w^2 is regular.
        """
        if self.core_radius <= 0.0:
            raise ValueError("core_quotient requires a positive core_radius")
        arr = np.asarray(delta, dtype=float)
        b, r = self.core_radius + arr, self._quotient
        out = b + r[1] + _horner(r[:1:-1], 1.0 / b)[-1] / b
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the asymptotically hyperbolic sanity checks."""

    min_scalar_curvature_excess: float
    is_ah: bool
    messages: tuple[str, ...] = field(default_factory=tuple)


# ----------------------------------------------------------------------
# Constructors

_SQRT3 = math.sqrt(3.0)


def _polynomial(mass: float, coeffs: tuple[float, ...]) -> list[float]:
    """P = s^n f(s) = [1, 0, 1, -2m, c_2, ...], highest power first, n = len(P) - 3 once s^k
    is divided out: P would underflow near a tiny root, and its reversal is normalized by P[-1]."""
    coef = [1.0, 0.0, 1.0, -2.0 * mass, *coeffs]
    return coef[: 1 + max(i for i, c in enumerate(coef) if c)]


def _horner(coef, x) -> list:
    """Horner's partial sums of ``coef`` at x: the quotient by s - x, then the value."""
    sums = [0.0]
    for c in coef:
        sums.append(sums[-1] * x + c)
    return sums[1:]


def _core_radius(mass: float, coeffs: tuple[float, ...]) -> float:
    """Largest positive root of f, or 0 if none.

    P = s^n f(s) (:func:`_polynomial`) is monic, so f > 0 above its largest
    root.  The mass-only cubic s^3 + s - 2m has the one real root (2/sqrt 3)
    sinh(asinh(3 sqrt(3) m) / 3), about 2m at tiny m, with asinh x taken as
    ln 2x where 3 sqrt(3) m overflows.  With a tail, roots are companion
    eigenvalues, real when |imag| <= 1e-7 |z| (so a near-double root split
    into a complex pair is kept), and accurate to about eps of the largest
    modulus (>= ~1): the root, if below 1e-6, is 1/w, w the least root above
    1e6 of the reversed polynomial.  :func:`find_root` on P polishes it to
    adjacent floats; where P keeps its sign there, it is a double root.
    Where some coefficient over P(0) overflows, so that the reversed
    polynomial cannot be normalized, Descartes' rule of signs decides: with
    no sign change in P's coefficients the core is 0, with one, P is
    bisected on [0, 1e-6], and a root it finds there that is not subnormal
    (or more sign changes) raises ValueError, since floats do not resolve P
    near such a root.  A subnormal core raises ValueError: the model's
    integrands overflow near it.
    """
    name = f"the model with mass {mass!r} and coeffs {list(coeffs)!r}"
    if math.isinf(2.0 * mass):
        raise ValueError(f"-2m overflows for {name}")
    coef = _polynomial(mass, coeffs)

    def positive_roots(monic):
        # np.roots' companion matrix, without its input checks and trimming.
        companion = np.eye(monic.size - 1, k=-1)
        companion[0] = -monic[1:]
        z = np.linalg.eigvals(companion)
        real = z.real[np.abs(z.imag) <= 1e-7 * np.abs(z)]
        return real[real > 0.0]

    def poly(s):
        return _horner(coef, s)[-1]

    if len(coef) <= 4:
        # No tail: the cubic's closed form (r = 0 at m = 0).
        x = 3.0 * _SQRT3 * mass
        a = math.asinh(x) if x < math.inf else math.log(6.0 * _SQRT3) + math.log(mass)
        r = 2.0 / _SQRT3 * math.sinh(a / 3.0)
    else:
        p = np.array(coef)
        r = float(positive_roots(p).max(initial=0.0))
    if r < 1e-6 and len(coef) > 4:
        with np.errstate(over="ignore"):
            q = p[::-1] / p[-1]
        if np.all(np.isfinite(q)):
            w = positive_roots(q)
            r = 1.0 / float(w[w > 1e6].min(initial=math.inf))
        else:
            # Descartes: P has as many positive roots as its coefficients
            # have sign changes, or fewer by an even number.
            signs = np.sign(p[p != 0.0])
            changes = np.count_nonzero(signs[1:] != signs[:-1])
            if changes == 0:
                return 0.0
            # One change: P(0) < 0 < P(inf), and the one root lies below
            # 1e-6.  It is bisected only to be named if subnormal: the terms
            # of P that balance so small a P(0) near a larger root can be
            # subnormal, where floats do not resolve P (c_2 = -5e-324 puts
            # s^2 = 5e-324 there).
            r = find_root(poly, 0.0, 1e-6) if changes == 1 and poly(1e-6) > 0.0 else 0.0
            if not 0.0 < r < sys.float_info.min:
                raise ValueError(f"cannot normalize the reversed polynomial of {name}")
    lo, hi = r * (1.0 - 1e-9), r * (1.0 + 1e-9)
    if r > 0.0 and (poly(lo) < 0.0) != (poly(hi) < 0.0):
        r = find_root(poly, lo, hi)
    if 0.0 < r < sys.float_info.min:
        raise ValueError(f"the core radius {r!r} of {name} is subnormal")
    return r


def make_hyperbolic() -> RadialMetric:
    """Hyperbolic 3-space: f = 1 + s^2, domain s > 0."""
    return RadialMetric(0.0)


def make_ads_schwarzschild(mass: float) -> RadialMetric:
    """AdS-Schwarzschild slice of mass m > 0: f = 1 + s^2 - 2m/s."""
    if not math.isfinite(mass) or mass <= 0.0:
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    return RadialMetric(mass)


def make_perturbed(mass: float, coeffs: Sequence[float]) -> RadialMetric:
    """General member with decay tail sum c_k s^{-k}, k = 2, 3, ...: the
    record of ``coeffs`` as a tuple, which keeps the core within the horizon."""
    return RadialMetric(mass, tuple(coeffs))


# ----------------------------------------------------------------------
# Curvature


def scalar_curvature_excess(metric: RadialMetric, s):
    """R(s) + 6 evaluated without forming R first.

    Algebraically R + 6 = -(2/s^2) (d + s d') with d the deficit; the
    mass term cancels identically, leaving sum 2 (k-1) c_k s^{-k-2}, so
    R is exactly -6 on every AdS-Schwarzschild model.  The direct route
    through R = (2/s^2) (1 - f - s f') loses the excess to rounding: it
    put R below -6 by up to 1.5e-14 on hyperbolic space.  ``s`` is
    checked by :func:`_check_domain`.  A weight 2 (k-1) c_k past the float
    range is applied last, so only a term that itself overflows is inf.
    """
    arr, scalar = _check_domain(metric, s)
    out = np.zeros_like(arr)
    for k, c in enumerate(metric.coeffs, start=2):
        if c:
            weight = 2.0 * (k - 1) * c
            if math.isfinite(weight):
                out = out + weight * np.power(arr, -k - 2)
            else:
                with np.errstate(over="ignore"):
                    out = out + c * np.power(arr, -k - 2) * (2.0 * (k - 1))
    return float(out) if scalar else out


def _check_domain(metric: RadialMetric, s):
    """s as a float array, whether it was a scalar, after a domain check."""
    arr = np.asarray(s, dtype=float)
    if not np.isfinite(arr).all() or (arr <= metric.core_radius).any():
        raise ValueError(
            f"s must lie in ({metric.core_radius!r}, inf), got {s!r}"
        )
    return arr, arr.ndim == 0


# ----------------------------------------------------------------------
# Radial chart and elements


class _Chart(NamedTuple):
    """A radial coordinate t of one model (see :func:`_chart`)."""

    metric: RadialMetric
    # t -> (s, ds / (sqrt(f) dt), sqrt(f)) on an array of chart points.
    point: Callable
    # s -> t and t -> s.
    to_t: Callable
    to_s: Callable


def _chart(metric: RadialMetric, head: bool = True) -> _Chart:
    """The coordinate in which a radial integral over the area radius runs.

    Above a positive core (``head``) it is w with s = core + w^2: there
    ds = 2 w dw and sqrt(f) = w sqrt(f / w^2), with f / w^2 the
    cancellation-free :meth:`RadialMetric.core_quotient`, so
    ds / (sqrt(f) dw) = 2 / sqrt(f / w^2) stays finite at the core, where
    f^{-1/2} in s has an integrable spike.  Otherwise (core 0, or
    ``head=False``) it is s itself.  Every radial element is written in s
    through ``point``; a G integral leaves the head at :func:`_split`.
    """
    core = metric.core_radius
    if head and core > 0.0:

        def point(w):
            w = np.asarray(w, dtype=float)
            delta = w * w
            root = np.sqrt(metric.core_quotient(delta))
            return core + delta, 2.0 / root, w * root

        return _Chart(metric, point, lambda s: np.sqrt(s - core), lambda w: core + w * w)

    def point(s):
        s = np.asarray(s, dtype=float)
        root = np.sqrt(metric.f(s))
        return s, 1.0 / root, root

    return _Chart(metric, point, lambda s: s, lambda s: s)


def _gap_element(chart: _Chart, k: int = 0):
    """s^k [f(s)^{-1/2} - (1 + s^2)^{-1/2}] ds/dt at chart points t.

    The difference is taken as -d / (sqrt(f) sqrt(q) (sqrt(f) + sqrt(q))),
    q = 1 + s^2 and d the deficit, since the subtraction loses relative
    accuracy like s^2 / d once s is large; the chart's ds / (sqrt(f) dt)
    carries the 1 / sqrt(f), so no product of three roots is formed.
    """

    def g(t):
        # Where s * s or the deficit overflows this is inf or nan, which
        # the kernels' finite checks turn into a NumericsError.
        with np.errstate(over="ignore", invalid="ignore"):
            s, jac, root = chart.point(t)
            sq = np.sqrt(1.0 + s * s)
            out = -chart.metric.deficit(s) * jac / (sq * (root + sq))
            # s**0 is 1.0, so k = 0 skips that pass with the same bits.
            return out * s**k if k else out

    return g


def _geodesic_element(chart: _Chart):
    """d rho / dt = ds / (sqrt(f) dt) at chart points t."""
    return lambda t: chart.point(t)[1]


# Absolute tolerance of gap_over_grid's panels and of s_from_rho's Newton
# steps, each shared over its panels.  The semi-infinite G and W integrals
# are held to integrate's own relative floor, also 1e-13.
_GAP_TOL = 1e-13


def _split(metric: RadialMetric) -> float:
    """core + max(1, core): a G integral runs in the head chart of
    :func:`_chart` below it (s itself at a zero core) and in u = 1/s
    above it, so the head keeps its shape however large the core is."""
    return metric.core_radius + max(1.0, metric.core_radius)


def _gap_moment(metric: RadialMetric, s: float, k: int) -> QuadResult:
    """integral_s^inf u^k [f(u)^{-1/2} - (1+u^2)^{-1/2}] du, for s >= core.

    From s below :func:`_split` it is integrated in the head chart of
    :func:`_chart` up to the split, which removes the integrable 1/sqrt
    spike at a positive core, to an absolute 1e-14; the rest, from the
    split or from s above it, in u = 1/s by :func:`integrate`.
    """
    core = metric.core_radius
    if not math.isfinite(s) or s < core:
        raise ValueError(f"s must lie in [{core!r}, inf), got {s!r}")
    split = _split(metric)
    tail_fn = _gap_element(_chart(metric, head=False), k)
    if s >= split:
        # The tail's abs_tol is negligible, so integrate's relative floor
        # decides: the moment decays like m / s^(3 - k) and is consumed
        # relatively by downstream expansions.
        return integrate(tail_fn, s, math.inf, abs_tol=1e-300)
    chart = _chart(metric)
    t0, t1 = chart.to_t(s), chart.to_t(split)
    head = integrate(_gap_element(chart, k), t0, t1, abs_tol=1e-14)
    tail = integrate(tail_fn, split, math.inf, abs_tol=1e-300)
    return QuadResult(
        head.value + tail.value,
        head.error_bound + tail.error_bound,
        head.evaluations + tail.evaluations,
    )


def coordinate_gap(metric: RadialMetric, s: float) -> QuadResult:
    """G(s) = integral_s^inf [f(u)^{-1/2} - (1+u^2)^{-1/2}] du.

    Defined for s >= core_radius.  At s = core_radius (mass > 0) the
    integrand has an integrable 1/sqrt singularity, which the chart of
    :func:`_chart` removes.
    """
    return _gap_moment(metric, s, 0)


def gap_over_grid(metric: RadialMetric, s) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate gap G and its error bound at every point of ``s``.

    The sweep form of :func:`coordinate_gap`: the points and
    :func:`_split` cut [min s, inf) into gaps, one panel of
    :func:`numerics._panels` each, in the head chart below the split and
    in u = 1/s above it (the last from the largest point to u = 0, and
    the integrand ~m u^2, so one panel spans any number of decades).  The
    panels share the absolute tolerance 1e-13 (``_GAP_TOL``) and are
    summed from the outside in, so a point's bound is the sum of those
    above it.  The points may come in any order and may repeat; each must
    lie in [core, inf).
    """
    pts = np.asarray(s, dtype=float)
    core = metric.core_radius
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("s must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(pts)) or np.any(pts < core):
        raise ValueError(f"every s must lie in [{core!r}, inf)")
    u = np.sort(pts)
    u = np.concatenate([u[:1], u[1:][np.diff(u) > 0.0]])
    split = _split(metric)
    below = u < split
    ends = np.concatenate([u[below], [split], u[u > split], [math.inf]])
    # Gap i runs from ends[i] to ends[i + 1] (1/inf = 0 in u).  Gaps of
    # zero width (points that coincide in their chart) contribute nothing.
    n_head = np.count_nonzero(below)
    chart = _chart(metric)
    head_t = chart.to_t(ends[: n_head + 1])
    tail_u = 1.0 / ends[n_head:]
    lo = np.concatenate([head_t[:-1], tail_u[1:]])
    hi = np.concatenate([head_t[1:], tail_u[:-1]])
    v, e = np.zeros(lo.size), np.zeros(lo.size)
    panel = hi > lo
    share = _GAP_TOL / np.count_nonzero(panel)
    head = np.arange(lo.size) < n_head
    for part, fn in (
        (head, _gap_element(chart)),
        (~head, _reciprocal(_gap_element(_chart(metric, head=False)))),
    ):
        on = panel & part
        if on.any():
            v[on], e[on] = _panels(fn, lo[on], hi[on], share)[:2]
    gap = np.cumsum(v[::-1])[::-1]
    bound = np.cumsum(e[::-1])[::-1]
    at = np.searchsorted(ends, pts)
    return gap[at], bound[at]


def rho_from_s(metric: RadialMetric, s: float) -> float:
    """Geodesic radius of the sphere at area-radius s.

    rho(s) = arcsinh(s) - G(s) with G the coordinate gap, so that
    d rho / d s = f(s)^{-1/2} and rho(s) -> arcsinh(s) at infinity.
    For hyperbolic space G vanishes and rho = arcsinh(s) exactly.
    """
    _check_domain(metric, s)
    return math.asinh(s) - coordinate_gap(metric, s).value


# The largest radius a coordinate-gap tail starts from: in u = 1/s its GK15
# node nearest u = 0 lies at 234 s, where the gap element ~2 s^2 overflows
# past 9.5e153, so past s = 4.05e151; 1e151 stays below even after two
# halvings of that panel.  s_from_rho's first tail starts at sinh(rho).
_S_MAX = 1e151
_RHO_MAX = math.asinh(_S_MAX)


def s_from_rho(metric: RadialMetric, rho: float) -> float:
    """Numerical inverse of rho_from_s.

    Newton's method on rho(s) = rho (:func:`solve_increasing`) with the
    geodesic element d rho / dt = ds / (sqrt(f) dt) as the derivative, in
    s when the bracket lies above :func:`_split`, else in the head chart
    t of :func:`_chart`, where it stays finite at a positive core.  It
    starts 1e-12 below s = sinh(rho), or at the core when that lies below
    it, with rho there from one :func:`coordinate_gap`; every step adds
    one GK15 panel of the derivative.  Where G >= 0 the start lies below
    the root by more than the rounding of asinh, and rho(s) is concave
    wherever f grows, so the steps approach the root from below.  A start
    above the root (G < 0 there) is bracketed from below by the bottom of
    the domain, after one more G checks that rho lies in its image; a rho
    below it raises ``ValueError`` ("below the image").  G is held to
    :func:`integrate`'s relative floor 1e-13, and the panels' sum to the
    absolute 1e-13 of ``_GAP_TOL``.  A rho above asinh(1e151) = 348.38...
    raises ``ValueError``: G from sinh(rho) would overflow.
    """
    if not math.isfinite(rho) or rho > _RHO_MAX:
        raise ValueError(f"rho must be finite and <= {_RHO_MAX!r}, got {rho!r}")
    core = metric.core_radius
    # Below rho = 0 the start is the core, and sinh need not overflow.
    s0 = max(math.sinh(max(rho, 0.0)) * (1.0 - 1e-12), core)
    rho0 = math.asinh(s0) - coordinate_gap(metric, s0).value
    lo, hi = s0, math.inf
    if rho0 >= rho:
        # rho at the bottom of the domain: the core, or s = 0.
        bottom = rho0
        if s0 > core:
            bottom = math.asinh(core) - coordinate_gap(metric, core).value
        if bottom >= rho:
            raise ValueError(f"rho = {rho!r} is below the image of the domain")
        lo, hi = core, s0
    chart = _chart(metric, head=lo < _split(metric))
    t0, t_lo, t_hi = (float(chart.to_t(x)) for x in (s0, lo, hi))
    density = _geodesic_element(chart)
    slope = density(np.array([t0]))
    t = float(solve_increasing(density, [rho], [t0], [rho0], slope, [t_lo], [t_hi], _GAP_TOL)[0])
    return float(chart.to_s(t))


# ----------------------------------------------------------------------
# Validation


def _geomspace(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)`` bit for bit, for 0 < lo < hi: its steps
    without its generality (it costs ~6x more on a 50-point grid)."""
    if n < 2:
        return np.full(n, lo, dtype=float)
    a, b = np.log10(lo), np.log10(hi)
    y = np.arange(n, dtype=float) * ((b - a) / (n - 1)) + a
    y[-1] = b
    out = 10.0 ** y
    out[0], out[-1] = lo, hi
    return out


def _grid_ends(metric: RadialMetric) -> tuple[float, float]:
    """The ends of :func:`default_grid`."""
    core = metric.core_radius
    return core + 0.1 * max(1.0, core), max(1e3, 1e3 * core)


def default_grid(metric: RadialMetric, n: int = 50) -> np.ndarray:
    """Log-spaced validation grid [core + 0.1 max(1, core), max(1e3, 1e3 core)]."""
    return _geomspace(*_grid_ends(metric), n)


def validate_ah(metric: RadialMetric) -> ValidationReport:
    """Check the asymptotically hyperbolic model requirements.

    The scalar curvature excess R + 6 must be nonnegative up to 1e-9 on
    :func:`default_grid`.  The report holds the minimum excess, the verdict
    and its messages: only what was measured.  The decay of the tail is the
    coefficients themselves, which the caller already holds.
    """
    grid = default_grid(metric)
    excess = scalar_curvature_excess(metric, grid)
    min_excess = float(np.min(excess))
    messages: list[str] = []
    if min_excess < -1e-9:
        messages.append(
            f"scalar curvature dips below -6: min excess {min_excess:.3e}"
        )
    return ValidationReport(
        min_scalar_curvature_excess=min_excess,
        is_ah=not messages,
        messages=tuple(messages),
    )
